"""The five benchmark workloads: what they are, how they are set up and run.

Everything here goes through the library's public surface only
(``run_join_query``, ``reference_join``, ``Federation``, ``TcpTransport``,
``storage_from_spec``, ``DataSource.rotate_keys``).  A workload is a
frozen :class:`WorkloadDef`; :func:`set_up` turns one into a live
:class:`Instance` (generated relations, transports, storage, reference
result) and :func:`run_clients` drives its closed loop.

Operating point, identical on every workload: RSA-2048 CA and client
keys, Paillier-2048, the RFC 3526 2048-bit commutative group, a serial
pure-Python crypto engine, ``ack_delay=0``, STRING join values.  The
``--quick`` smoke mode swaps in small keys and is never comparable.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro import (
    CommutativeConfig,
    DASConfig,
    Federation,
    MediationResult,
    PMConfig,
    reference_join,
    run_join_query,
)
from repro.crypto import paillier, rsa
from repro.crypto import serialization as key_serialization
from repro.crypto.engine import CryptoEngine
from repro.crypto.homomorphic import PaillierScheme
from repro.crypto.hybrid import key_fingerprint
from repro.mediation.access_control import allow_all
from repro.mediation.ca import CertificationAuthority
from repro.mediation.client import Client
from repro.relational.datagen import Workload, WorkloadSpec, generate
from repro.relational.schema import AttributeType
from repro.storage import storage_from_spec
from repro.transport import TcpTransport

from hostspeed import HostSpeed

QUERY = "select * from R1 natural join R2"
TRIO = ("mediator", "S1", "S2")
KEY_FILE = pathlib.Path(__file__).with_name("keys_2048.json")
FULL_BITS = 2048
#: Smallest sizes every protocol still runs at: private matching needs a
#: 74-byte payload inside the Paillier message space, and RSA-OAEP/PSS
#: with SHA-256 cannot carry a session key below 1024 bits.
QUICK_BITS = 768
QUICK_RSA_BITS = 1024
#: Queries one client session of ``comm_warm_tcp`` runs before it closes
#: its transport and opens the next (fresh transport + session id).
QUERIES_PER_SESSION = 15
#: Resident memory is read once every client has completed this many
#: queries (the slowest workload manages 3 in a 14 s window).
RSS_AFTER_QUERIES = 3


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    protocol: str
    transport: str  # "bus" | "tcp"
    storage: bool
    spec: dict[str, int]
    hardened: bool = False
    #: Rotate both sources' keys before every query (outside the timed
    #: span), so every query is a cold fill of the storage caches.
    rotate: bool = False
    #: More than one: the client works in sessions (fresh transport,
    #: federation and session id every ``QUERIES_PER_SESSION`` queries)
    #: and the traced pass adds a stretch with this many clients at once.
    #: The end-to-end pass always runs one client: more busy threads
    #: than the host has cores measure its scheduler, not the program.
    clients: int = 1

    def config(self, bits: int) -> Any:
        if self.protocol == "commutative":
            return CommutativeConfig(group_bits=bits)
        if self.protocol == "das":
            return DASConfig(strategy="equi_depth", buckets=4)
        return PMConfig()


def _spec(domain: int, overlap: int, rows: int, width: int) -> dict[str, int]:
    return {
        "domain_1": domain, "domain_2": domain, "overlap": overlap,
        "rows_per_value_1": rows, "rows_per_value_2": rows,
        "payload_attributes": 2, "payload_width": width,
    }


#: Why each was chosen is recorded once, in ``BENCHMARK.json``.
WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef("comm_cold_bus", "commutative", "bus", False, _spec(16, 8, 2, 16)),
        WorkloadDef("pm_cold_bus", "private-matching", "bus", False, _spec(6, 3, 2, 8)),
        WorkloadDef(
            "das_fill_tcp", "das", "tcp", True, _spec(40, 20, 4, 64), rotate=True
        ),
        WorkloadDef(
            "das_hardened_tcp", "das", "tcp", False, _spec(24, 12, 2, 32),
            hardened=True,
        ),
        WorkloadDef(
            "comm_warm_tcp", "commutative", "tcp", True, _spec(100, 2, 1, 32),
            clients=2,
        ),
    )
}


class _FixedKeyCA(CertificationAuthority):
    """A CA around an existing signing key (no prime search)."""

    def __init__(self, signing_key: rsa.RSAPrivateKey) -> None:
        self.name = "CA"
        self._signing_key = signing_key


@dataclass
class Context:
    """Key material and crypto engine shared by every workload of a run."""

    bits: int
    ca: CertificationAuthority
    client: Client
    engine: CryptoEngine


def make_context(quick: bool = False) -> Context:
    """Build the CA, the client and the pinned engine.

    The 2048-bit keys are read from the committed fixture: prime search
    is random-length work that belongs to the paper's one-off
    preparatory phase, and a benchmark run must not start with several
    seconds of it.  The fixture keys protect nothing.  Quick mode
    generates throwaway keys instead: 768-bit Paillier (and commutative
    group), 1024-bit RSA.
    """
    if quick:
        bits = QUICK_BITS
        ca_key = rsa.generate_keypair(QUICK_RSA_BITS)
        client_key = rsa.generate_keypair(QUICK_RSA_BITS)
        paillier_key = paillier.generate_keypair(bits)
    else:
        bits = FULL_BITS
        document = json.loads(KEY_FILE.read_text())
        ca_key = key_serialization.rsa_private_from_dict(document["ca_rsa"])
        client_key = key_serialization.rsa_private_from_dict(
            document["client_rsa"]
        )
        paillier_key = key_serialization.paillier_private_from_dict(
            document["client_paillier"]
        )
    ca = _FixedKeyCA(ca_key)
    public_key = client_key.public_key()
    properties = {("role", "analyst")}
    client = Client(
        name="bench-client",
        credentials=[ca.issue_credential(properties, public_key)],
        identity_certificates=[
            ca.issue_identity_certificate("bench-client", public_key)
        ],
        rsa_keys={key_fingerprint(public_key): client_key},
        homomorphic_scheme=PaillierScheme(bits),
        homomorphic_key=paillier_key,
    )
    return Context(
        bits=bits, ca=ca, client=client,
        engine=CryptoEngine(workers=0, backend="python"),
    )


def _federate(
    context: Context, data: Workload, network: Any = None, storage: Any = None
) -> Federation:
    options = {} if network is None else {"network": network}
    federation = Federation(ca=context.ca, storage=storage, **options)
    federation.add_source("S1", [(data.relation_1, allow_all())])
    federation.add_source("S2", [(data.relation_2, allow_all())])
    federation.attach_client(context.client)
    return federation


def _cache_stats(federation: Federation) -> Counter:
    totals: Counter = Counter()
    for source in federation.sources.values():
        cache = source.index_cache()
        if cache is not None:
            totals.update(cache.stats.as_dict())
    return totals


@dataclass
class Sample:
    seconds: float
    #: ``None`` when the query returned exactly the reference join.
    error: str | None
    result: MediationResult | None = None
    #: Nominal host speed over the speed measured around this query
    #: (1.0 in loops that do not calibrate).
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Instance:
    """One set-up workload, ready to answer queries."""

    definition: WorkloadDef
    context: Context
    data: Workload
    expected: Counter
    expected_names: tuple[str, ...]
    hub: TcpTransport | None = None
    storage: Any = None
    #: The long-lived federation of one-client workloads (``None`` on
    #: ``comm_warm_tcp``, whose clients build one per session).
    federation: Federation | None = None
    session_id: str | None = None
    _session_ids: Any = field(default_factory=itertools.count)
    #: Wire accounting of client sessions that have already closed.
    closed_bytes: int = 0
    closed_messages: int = 0
    closed_cache: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- one query ---------------------------------------------------------

    def query(
        self, federation: Federation, session_id: str | None, keep: bool = False
    ) -> Sample:
        """Run one join query, time it, check it against the reference."""
        definition = self.definition
        if definition.rotate:
            for source in federation.sources.values():
                source.rotate_keys()
        started = time.perf_counter()
        result = run_join_query(
            federation,
            QUERY,
            protocol=definition.protocol,
            config=definition.config(self.context.bits),
            engine=self.context.engine,
            on_failure="return",
            session_id=session_id,
            hardening=True if definition.hardened else None,
        )
        seconds = time.perf_counter() - started
        if not isinstance(result, MediationResult):
            return Sample(seconds, f"{result.error_type}: {result.error_message}")
        if (
            tuple(result.global_result.schema.names()) != self.expected_names
            or Counter(result.global_result.rows) != self.expected
        ):
            return Sample(seconds, "result differs from the reference join")
        return Sample(seconds, None, result if keep else None)

    # -- sessions ----------------------------------------------------------

    def open_session(self) -> tuple[Federation, str]:
        """A fresh client transport + federation + session id against
        the hub's endpoints (TCP workloads only)."""
        assert self.hub is not None
        transport = TcpTransport(
            endpoints={party: self.hub.endpoint_of(party) for party in TRIO}
        )
        federation = _federate(
            self.context, self.data, network=transport, storage=self.storage
        )
        return federation, f"bench-{next(self._session_ids):05d}"

    def close_session(self, federation: Federation) -> None:
        network = federation.network
        with self._lock:
            self.closed_bytes += network.total_bytes()
            self.closed_messages += len(network.transcript)
            self.closed_cache.update(_cache_stats(federation))
        network.close()

    def wire_totals(self) -> tuple[int, int]:
        """(bytes, messages) sent so far, closed sessions included."""
        total_bytes, messages = self.closed_bytes, self.closed_messages
        if self.federation is not None:
            total_bytes += self.federation.network.total_bytes()
            messages += len(self.federation.network.transcript)
        return total_bytes, messages

    def cache_stats(self) -> Counter:
        """Index-cache hits/misses/puts/errors so far, closed sessions included."""
        totals = Counter(hits=0, misses=0, puts=0, errors=0)
        totals.update(self.closed_cache)
        if self.federation is not None:
            totals.update(_cache_stats(self.federation))
        return totals

    def close(self) -> None:
        if self.federation is not None:
            self.federation.network.close()
        if self.hub is not None:
            self.hub.close()
        if self.storage is not None:
            self.storage.close()


def set_up(
    definition: WorkloadDef, context: Context, seed: int, workdir: pathlib.Path
) -> tuple[Instance, float]:
    """Build a live instance; returns it with its set-up seconds.

    Set-up is everything up to and including the first answered query:
    data generation, federation wiring, storage open and
    ``store_relation``, TCP trio start and handshakes, then one checked
    query that pays the lazy initialisation (group parameters, SQLite
    schema, connection pools) and, on ``comm_warm_tcp``, fills the
    caches every timed query hits.  Work a later change moves out of
    the query path and into start-up therefore shows here.  Not timed:
    key material (see :func:`make_context`) and the plaintext reference
    result, which is the benchmark's own oracle.
    """
    started = time.perf_counter()
    data = generate(
        WorkloadSpec(join_type=AttributeType.STRING, seed=seed, **definition.spec)
    )
    setup_seconds = time.perf_counter() - started

    reference = reference_join(_federate(context, data), QUERY)
    instance = Instance(
        definition, context, data,
        expected=Counter(reference.rows),
        expected_names=tuple(reference.schema.names()),
    )

    started = time.perf_counter()
    try:
        if definition.storage:
            workdir.mkdir(parents=True, exist_ok=True)
            path = workdir / f"{definition.name}-{time.monotonic_ns()}.db"
            instance.storage = storage_from_spec(f"sqlite:{path}")
        if definition.transport == "tcp":
            instance.hub = TcpTransport()
            for party in TRIO:
                instance.hub.register(party)
        if definition.clients == 1 and instance.hub is None:
            instance.federation = _federate(context, data)
            first = instance.query(instance.federation, None)
        elif definition.clients == 1:
            instance.federation, instance.session_id = instance.open_session()
            first = instance.query(instance.federation, instance.session_id)
        else:
            federation, session_id = instance.open_session()
            try:
                first = instance.query(federation, session_id)
            finally:
                instance.close_session(federation)
        if not first.ok:
            raise RuntimeError(f"{definition.name}: first query: {first.error}")
    except BaseException:
        instance.close()
        raise
    setup_seconds += time.perf_counter() - started
    return instance, setup_seconds


@dataclass
class LoopResult:
    samples: list[Sample]
    wall_seconds: float
    cpu_seconds: float
    wire_bytes: int
    messages: int
    rss_mb: float

    @property
    def completed(self) -> int:
        return sum(1 for sample in self.samples if sample.ok)

    @property
    def failed(self) -> int:
        return len(self.samples) - self.completed

    def first_error(self) -> str | None:
        return next((s.error for s in self.samples if not s.ok), None)


def rss_mb() -> float:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def run_clients(
    instance: Instance,
    clients: int,
    seconds: float | None,
    max_queries: int | None = None,
    keep_results: bool = False,
    host: HostSpeed | None = None,
) -> LoopResult:
    """Closed loop: each client sends its next query when the last returned.

    With ``host`` (one client only, whose last calibration burst has just
    ended) a burst follows every query, and the wall and CPU seconds of
    the result are the sum over the stretches between bursts, each scaled
    to the nominal host speed; the bursts themselves are left out.

    Stops at ``seconds`` (checked between queries, so the window ends
    with the last completed query) or after ``max_queries`` per client,
    whichever comes first; always runs at least one query per client.

    Resident memory is read when the ``RSS_AFTER_QUERIES``-th query per
    client completes (or at the end, if the loop is shorter): transports
    retain every message body, so memory read at the end of a timed
    window would grow with the number of queries that fitted into it.
    """
    bytes_before, messages_before = instance.wire_totals()
    cpu_started = time.process_time()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds
    finished = itertools.count(1)  # next() is atomic under the GIL
    rss_at_mark: list[float] = []
    assert host is None or clients == 1
    stretch = [started, cpu_started]
    scaled = [0.0, 0.0]

    def more(done: int) -> bool:
        if done == 0:
            return True
        if max_queries is not None and done >= max_queries:
            return False
        return deadline is None or time.perf_counter() < deadline

    def query(federation: Federation, session_id: str | None) -> Sample:
        sample = instance.query(federation, session_id, keep_results)
        if host is not None:
            wall = time.perf_counter() - stretch[0]
            cpu = time.process_time() - stretch[1]
            sample.speed = host.factor(wall)
            scaled[0] += wall * sample.speed
            scaled[1] += cpu * sample.speed
            stretch[:] = time.perf_counter(), time.process_time()
        if next(finished) == RSS_AFTER_QUERIES * clients:
            rss_at_mark.append(rss_mb())
        return sample

    def long_lived_client() -> list[Sample]:
        samples: list[Sample] = []
        while more(len(samples)):
            samples.append(query(instance.federation, instance.session_id))
        return samples

    def session_client() -> list[Sample]:
        samples: list[Sample] = []
        while more(len(samples)):
            federation, session_id = instance.open_session()
            try:
                for _ in range(QUERIES_PER_SESSION):
                    samples.append(query(federation, session_id))
                    if not more(len(samples)):
                        break
            finally:
                instance.close_session(federation)
        return samples

    client = long_lived_client if instance.federation is not None else session_client
    if clients == 1:
        per_client = [client()]
    else:
        with ThreadPoolExecutor(clients, thread_name_prefix="bench-client") as pool:
            per_client = list(pool.map(lambda _: client(), range(clients)))
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    bytes_after, messages_after = instance.wire_totals()
    return LoopResult(
        samples=[sample for samples in per_client for sample in samples],
        wall_seconds=wall if host is None else scaled[0],
        cpu_seconds=cpu if host is None else scaled[1],
        wire_bytes=bytes_after - bytes_before,
        messages=messages_after - messages_before,
        rss_mb=rss_at_mark[0] if rss_at_mark else rss_mb(),
    )
