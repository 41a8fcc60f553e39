"""The datasource party: relations, access control, query execution.

A datasource holds named relations, a per-relation access policy, and
the CA verification key.  On receiving a partial query with a credential
subset it (1) verifies every credential signature, (2) evaluates the
policy over the asserted properties, and (3) executes the partial query
over the *permitted* rows — so, as Section 6 stresses, "even if the
client receives a superset of the global result ... he never receives
data he is not allowed to read".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.crypto import rsa
from repro.crypto.engine import CryptoEngine, get_engine
from repro.errors import AccessDenied, CredentialError, QueryError
from repro.mediation.access_control import AccessPolicy, allow_all
from repro.mediation.ca import verify_credential
from repro.mediation.credentials import Credential
from repro.relational.algebra import PartialQuery
from repro.relational.relation import Relation, Row
from repro.session import SessionRegistry, current_session_id
from repro.storage.base import IndexCache, StorageBackend
from repro.telemetry import tracing

T = TypeVar("T")


@dataclass
class DataSource:
    """One contracted datasource of the mediator."""

    name: str
    relations: dict[str, Relation] = field(default_factory=dict)
    policies: dict[str, AccessPolicy] = field(default_factory=dict)
    ca_key: rsa.RSAPublicKey | None = None
    #: Property names this source's policies refer to; the mediator uses
    #: this to select the credential subset CR_i it forwards.
    relevant_property_names: frozenset[str] = frozenset()
    #: Per-session verified-credential cache: within one mediation
    #: session a credential whose CA signature already verified is not
    #: re-verified on every partial query.  Keyed by session so the
    #: cache can never launder a credential across clients; calls outside
    #: any session scope always verify.
    sessions: SessionRegistry = field(
        default_factory=lambda: SessionRegistry(capacity=256), repr=False
    )
    #: Optional storage backend.  When set, the protocols amortize
    #: encrypted-index material across queries via :meth:`index_cache`,
    #: under this source's key epoch; the backend records each
    #: relation's content fingerprint, never its rows, which the source
    #: keeps in :attr:`relations` and answers from.  ``None`` recomputes
    #: every index per query.
    storage: StorageBackend | None = field(default=None, repr=False)
    _index_cache: IndexCache | None = field(default=None, repr=False)
    #: Per relation name: ``(content, value)`` of the last :meth:`derived`.
    _derived: dict[str, tuple[tuple, Any]] = field(
        default_factory=dict, repr=False
    )

    def add_relation(
        self, relation: Relation, policy: AccessPolicy | None = None
    ) -> None:
        self.relations[relation.name] = relation
        self.policies[relation.name] = policy or allow_all()
        names = {
            name
            for rule in self.policies[relation.name].rules
            for name, _ in rule.required_properties
        }
        self.relevant_property_names = self.relevant_property_names | names
        # Recording an unchanged fingerprint is a no-op that keeps the
        # encrypted-index caches warm across process restarts; changed
        # content invalidates them (see StorageBackend).
        self._record(relation)

    # -- storage ----------------------------------------------------------

    def attach_storage(self, backend: StorageBackend) -> None:
        """Bind a storage backend and record the current relations'
        fingerprints."""
        self.storage = backend
        self._index_cache = None
        for relation in self.relations.values():
            backend.store_relation(self.name, relation)

    def _record(self, relation: Relation) -> None:
        """Record ``relation``'s fingerprint; when the store drops its
        cache entries (the content changed), the index cache's resident
        copy of them goes too."""
        if self.storage is None:
            return
        if (
            self.storage.store_relation(self.name, relation)
            and self._index_cache is not None
        ):
            self._index_cache.forget(relation.name)

    def index_cache(self) -> IndexCache | None:
        """The soft-failure encrypted-index cache, or ``None`` when no
        backend is attached (protocols then recompute everything)."""
        if self.storage is None:
            return None
        if self._index_cache is None:
            self._index_cache = IndexCache(self.storage, self.name)
        return self._index_cache

    def rotate_keys(self) -> int:
        """Rotate this source's protocol keys: bump the key epoch.

        Cached index material (commutative keys/tags/double-encryptions,
        tuple ciphertexts, polynomial coefficients) written under the
        old epoch is dropped; the next query regenerates everything
        under fresh keys.  Without storage this is a no-op (keys are
        fresh per query anyway).
        """
        if self.storage is None:
            return 0
        epoch = self.storage.bump_key_epoch(self.name)
        if self._index_cache is not None:
            self._index_cache.forget()
        return epoch

    def derived(
        self,
        relation: Relation,
        join_attributes: tuple[str, ...],
        derive: Callable[[], T],
    ) -> T:
        """``derive()``'s value for this partial result R_i, computed once
        per content.

        One entry per relation name, keyed by R_i's content: its schema's
        attributes, the join attributes and its rows, compared by
        equality.  A row mutation, another selection or another
        credential view is other content, so it misses and replaces the
        entry; nothing needs invalidating.  The rows are immutable tuples
        the relation shares from query to query, so a hit compares them
        by identity.  The entry is plaintext-derived: it stays in this
        object and never keys a store or cache entry.
        """
        content = (
            relation.schema.attributes, tuple(join_attributes), relation.rows
        )
        entry = self._derived.get(relation.name)
        if entry is not None and entry[0] == content:
            return entry[1]
        # Sessions racing here each derive, and the last entry stays:
        # every value is right for its content.
        value = derive()
        self._derived[relation.name] = (content, value)
        return value

    # -- row mutations -----------------------------------------------------

    def _replace_relation(self, name: str, rows: Iterable[Row]) -> Relation:
        if name not in self.relations:
            raise QueryError(f"datasource {self.name} does not manage {name!r}")
        updated = Relation(self.relations[name].schema, rows)
        self.relations[name] = updated
        self._record(updated)  # a changed row set invalidates its caches
        return updated

    def insert_rows(self, name: str, rows: Iterable[Sequence]) -> Relation:
        """Insert rows (set semantics); invalidates the relation's caches."""
        current = self.relations.get(name)
        if current is None:
            raise QueryError(f"datasource {self.name} does not manage {name!r}")
        return self._replace_relation(
            name, list(current.rows) + [tuple(row) for row in rows]
        )

    def delete_rows(self, name: str, rows: Iterable[Sequence]) -> Relation:
        """Delete exact rows; invalidates the relation's caches."""
        current = self.relations.get(name)
        if current is None:
            raise QueryError(f"datasource {self.name} does not manage {name!r}")
        doomed = {tuple(row) for row in rows}
        return self._replace_relation(
            name, [row for row in current.rows if row not in doomed]
        )

    def update_row(self, name: str, old_row: Sequence, new_row: Sequence) -> Relation:
        """Replace one row; invalidates the relation's caches."""
        current = self.relations.get(name)
        if current is None:
            raise QueryError(f"datasource {self.name} does not manage {name!r}")
        old = tuple(old_row)
        if old not in current:
            raise QueryError(f"row {old!r} not present in {name!r}")
        rows = [row for row in current.rows if row != old] + [tuple(new_row)]
        return self._replace_relation(name, rows)

    def check_credentials(
        self,
        credentials: list[Credential],
        engine: CryptoEngine | None = None,
    ) -> list[Credential]:
        """Signature-verify the presented credentials; drop invalid ones.

        An empty *valid* set is an authorization failure (raised later by
        the policy), but a *tampered* credential is a hard error — the
        paper's datasources only ever act on CA-certified properties.
        Verification of the whole set runs as one crypto-engine batch.

        Inside a session scope, signatures that already verified in the
        same session are skipped (keyed by the CA signature bytes, which
        cover the full canonical payload — any tampering changes the
        key and forces a fresh verification).
        """
        if self.ca_key is None:
            raise CredentialError(f"datasource {self.name} has no CA key")
        verified = self._session_verified()
        pending = (
            credentials
            if verified is None
            else [c for c in credentials if c.signature not in verified]
        )
        if pending:
            engine = engine or get_engine()
            verdicts = engine.map_batch(
                verify_credential,
                [(credential, self.ca_key) for credential in pending],
            )
            if not all(verdicts):
                raise CredentialError(
                    f"datasource {self.name}: credential signature invalid"
                )
            if verified is not None:
                verified.update(credential.signature for credential in pending)
        return list(credentials)

    def _session_verified(self) -> set[bytes] | None:
        """The current session's verified-signature set, or None outside
        any session scope (no caching then)."""
        session_id = current_session_id()
        if session_id is None:
            return None
        session = self.sessions.get(session_id)
        with session.lock:
            return session.state.setdefault("verified_signatures", set())

    def execute_partial_query(
        self, query: PartialQuery, credentials: list[Credential]
    ) -> Relation:
        """Listing 1 step 4: check credentials, execute ``q_i`` -> ``R_i``."""
        with tracing.span(
            "execute_partial_query", self.name,
            kind="mediation", relation=query.relation_name,
        ):
            if query.relation_name not in self.relations:
                raise QueryError(
                    f"datasource {self.name} does not manage "
                    f"{query.relation_name!r}"
                )
            valid = self.check_credentials(credentials)
            policy = self.policies[query.relation_name]
            try:
                permitted = policy.evaluate(
                    self.relations[query.relation_name], valid
                )
            except AccessDenied as denial:
                raise AccessDenied(
                    f"datasource {self.name} denied {query.sql!r}: {denial}"
                ) from denial
            return query.evaluate({query.relation_name: permitted})
