"""Wiring a mediated federation: parties, bus, and setup helpers.

A :class:`Federation` owns one network, one certification authority, one
mediator, one client, and the contracted datasources — the "contract
based confederation" of Section 1.  It is the object examples and the
runner build once and then issue queries against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MediationError
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import AccessPolicy
from repro.mediation.ca import CertificationAuthority
from repro.mediation.client import Client
from repro.mediation.datasource import DataSource
from repro.mediation.mediator import Mediator
from repro.mediation.network import Network
from repro.relational.relation import Relation
from repro.storage.base import StorageBackend
from repro.transport.base import Transport


@dataclass
class Federation:
    """One mediated information system instance.

    ``network`` accepts any :class:`~repro.transport.base.Transport`:
    the in-process bus (default) or a :class:`repro.transport.TcpTransport`
    wired to per-party endpoints — protocols never know the difference.
    """

    ca: CertificationAuthority
    network: Transport = field(default_factory=Network)
    mediator: Mediator = field(default_factory=Mediator)
    sources: dict[str, DataSource] = field(default_factory=dict)
    client: Client | None = None
    #: Optional shared storage backend (see :mod:`repro.storage`): every
    #: contracted source keeps its key epoch, its relations' content
    #: fingerprints and its encrypted-index cache in it (namespaced by
    #: source name).  Sources still answer from their own relations, and
    #: the mediator never touches it.
    storage: StorageBackend | None = None
    #: Federation-wide default for the leakage-hardened oblivious mode:
    #: a :class:`~repro.hardening.PaddingPolicy` here makes every run
    #: hardened unless the ``run_join_query`` caller overrides it.
    hardening: PaddingPolicy | None = None

    def __post_init__(self) -> None:
        self.network.register(self.mediator.name)

    # -- wiring -------------------------------------------------------------

    def attach_storage(self, backend: StorageBackend) -> None:
        """Bind a storage backend to every source."""
        self.storage = backend
        for source in self.sources.values():
            source.attach_storage(backend)

    def add_source(
        self,
        name: str,
        relations: list[tuple[Relation, AccessPolicy | None]],
    ) -> DataSource:
        """Contract a datasource supplying the given relations."""
        if name in self.sources:
            raise MediationError(f"datasource {name!r} already contracted")
        source = DataSource(
            name=name, ca_key=self.ca.verification_key, storage=self.storage
        )
        for relation, policy in relations:
            source.add_relation(relation, policy)
        self.sources[name] = source
        self.network.register(name)
        schemas = [relation.schema for relation, _ in relations]
        self.mediator.register_source(
            name, *schemas, property_names=source.relevant_property_names
        )
        return source

    def attach_client(self, client: Client) -> None:
        if self.client is not None:
            raise MediationError("a client is already attached")
        self.client = client
        self.network.register(client.name)

    def require_client(self) -> Client:
        if self.client is None:
            raise MediationError("no client attached to the federation")
        return self.client

    def source(self, name: str) -> DataSource:
        if name not in self.sources:
            raise MediationError(f"unknown datasource {name!r}")
        return self.sources[name]
