"""Differential leakage audit: adjacent workloads, adversary by adversary.

Table 1 says *what kind* of quantity each party learns; this module
measures *how much the observables move* when the input moves by one
tuple — the differential view of leakage used by the encrypted-database
literature ("Information Flows in Encrypted Databases", arXiv
1605.01092).  The auditor:

1. generates a seeded workload and its **adjacent** twin (one tuple's
   join value replaced, :func:`adjacent_workload`),
2. runs the same join query over both, under each protocol, capturing
   per-adversary :class:`~repro.telemetry.observables.ObservableTrace`s,
3. compares each adversary's observable distributions with explicit
   distance metrics (:func:`trace_distances`), and
4. emits a deterministic ``repro-leakage/1`` JSON document whose
   ``gate`` section makes today's distances a CI-enforceable envelope
   (``scripts/check_regression.py``).

Determinism: workloads are seeded and all size observations are
power-of-two buckets, so the document is byte-identical across runs of
the same code — crypto randomness moves bytes *within* buckets, never
across.  Wall-clock timing distances are computed only when
``include_timing`` is set and are never gated.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.federation import Federation
from repro.errors import ParameterError
from repro.relational.datagen import Workload, WorkloadSpec, generate
from repro.relational.relation import Relation
from repro.telemetry.observables import ObservableTrace, adversary_traces

#: Schema tag of the leakage-audit artifact.
LEAKAGE_SCHEMA = "repro-leakage/1"

#: Protocols audited by default (every delivery protocol).
AUDIT_PROTOCOLS = ("commutative", "das", "private-matching")

#: Gate policy per distance metric: distribution distances get a
#: relative tolerance plus a small absolute slack (a zero-distance
#: baseline must not make the gate infinitely strict); count deltas are
#: integers, gated by absolute slack alone.
DEFAULT_GATE_RULES: dict[str, dict[str, float | str]] = {
    "messages_tv": {"direction": "max", "tolerance": 0.25, "slack": 0.05},
    "kinds_tv": {"direction": "max", "tolerance": 0.25, "slack": 0.05},
    "sequence_divergence": {"direction": "max", "tolerance": 0.25, "slack": 0.05},
    "bucket_frequency_tv": {"direction": "max", "tolerance": 0.25, "slack": 0.05},
    "max_count_delta": {"direction": "max", "tolerance": 0.0, "slack": 2.0},
    "max_bucket_count_delta": {"direction": "max", "tolerance": 0.0, "slack": 2.0},
    "max_bucket_frequency_delta": {
        "direction": "max", "tolerance": 0.0, "slack": 2.0,
    },
    "max_cardinality_delta": {"direction": "max", "tolerance": 0.0, "slack": 4.0},
}

#: Epsilon for hardened-mode TV distances: the hardened envelope is
#: "indistinguishable up to rounding", not "within today's leakage".
HARDENED_EPSILON = 0.01

#: Gate policy for hardened audits: TV distances at most epsilon, every
#: count/bucket/cardinality delta exactly zero.  This is the mechanical
#: success criterion of the oblivious mode — see docs/security.md
#: ("Hardened mode").
HARDENED_GATE_RULES: dict[str, dict[str, float | str]] = {
    "messages_tv": {
        "direction": "max", "tolerance": 0.0, "slack": HARDENED_EPSILON,
    },
    "kinds_tv": {
        "direction": "max", "tolerance": 0.0, "slack": HARDENED_EPSILON,
    },
    "sequence_divergence": {
        "direction": "max", "tolerance": 0.0, "slack": HARDENED_EPSILON,
    },
    "bucket_frequency_tv": {
        "direction": "max", "tolerance": 0.0, "slack": HARDENED_EPSILON,
    },
    "max_count_delta": {"direction": "max", "tolerance": 0.0, "slack": 0.0},
    "max_bucket_count_delta": {
        "direction": "max", "tolerance": 0.0, "slack": 0.0,
    },
    "max_bucket_frequency_delta": {
        "direction": "max", "tolerance": 0.0, "slack": 0.0,
    },
    "max_cardinality_delta": {"direction": "max", "tolerance": 0.0, "slack": 0.0},
}


@dataclass(frozen=True)
class AuditConfig:
    """Parameters of one differential audit."""

    protocols: tuple[str, ...] = AUDIT_PROTOCOLS
    transport: str = "bus"
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    rsa_bits: int = 1024
    paillier_bits: int = 1024
    #: Wrap the carrier in the size-leaking canary decorator
    #: (:class:`~repro.faults.leaky.LeakyTransport`).
    canary: bool = False
    canary_pads_per_item: int = 4
    canary_pad_bytes: int = 32
    #: Include (nondeterministic, ungated) step-latency distances.
    include_timing: bool = False
    #: Audit the leakage-hardened oblivious mode: runs execute with
    #: ``hardening=True`` and the gate uses :data:`HARDENED_GATE_RULES`
    #: (TV <= epsilon, all deltas zero).  Combined with ``canary``, the
    #: protocol runs deliberately execute *unhardened* while the
    #: document still claims (and gates) hardened distances — modelling
    #: a deployment whose padding layer silently regressed, which the
    #: zero-slack hardened gate must flag under ``--expect-fail``.
    hardened: bool = False

    def __post_init__(self) -> None:
        if self.transport not in ("bus", "tcp"):
            raise ParameterError(
                f"transport must be 'bus' or 'tcp', got {self.transport!r}"
            )
        unknown = set(self.protocols) - set(AUDIT_PROTOCOLS)
        if unknown:
            raise ParameterError(f"unknown audit protocols {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Adjacent workloads.
# ---------------------------------------------------------------------------

def adjacent_workload(workload: Workload) -> tuple[Workload, dict[str, Any]]:
    """The canonical neighbouring input: one join value moved.

    Every tuple of ``relation_1`` carrying the first *shared* join value
    is rewritten to a fresh value outside both active domains — the
    smallest semantic change that moves the join size, the active-domain
    intersection, and the DAS bucket occupancy at once.  Returns the new
    workload plus a JSON-able perturbation descriptor.
    """
    if not workload.shared_values:
        raise ParameterError("adjacent_workload needs at least one shared value")
    victim = workload.shared_values[0]
    relation = workload.relation_1
    join_attribute = workload.spec.join_attribute
    names = [attribute.name for attribute in relation.schema.attributes]
    position = names.index(join_attribute)
    taken = set(relation.active_domain(join_attribute)) | set(
        workload.relation_2.active_domain(join_attribute)
    )
    if isinstance(victim, int):
        replacement: Any = max(
            (v for v in taken if isinstance(v, int)), default=0
        ) + 1
    else:
        replacement = f"adjacent-{victim}"
        while replacement in taken:
            replacement = f"x{replacement}"
    rows = [
        tuple(
            replacement if index == position and value == victim else value
            for index, value in enumerate(row)
        )
        for row in relation.rows
    ]
    perturbed = Relation(relation.schema, rows)
    adjacent = Workload(
        spec=workload.spec,
        relation_1=perturbed,
        relation_2=workload.relation_2,
        shared_values=tuple(
            value for value in workload.shared_values if value != victim
        ),
    )
    return adjacent, {
        "relation": relation.name,
        "join_attribute": join_attribute,
        "replaced_value": str(victim),
        "replacement": str(replacement),
        "rows_rewritten": sum(1 for row in relation.rows if row[position] == victim),
    }


# ---------------------------------------------------------------------------
# Distance metrics.
# ---------------------------------------------------------------------------

def _total_variation(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Total variation distance between two count distributions."""
    total_a, total_b = sum(a.values()), sum(b.values())
    if total_a == 0 and total_b == 0:
        return 0.0
    distance = 0.0
    for key in set(a) | set(b):
        p = a.get(key, 0) / total_a if total_a else 0.0
        q = b.get(key, 0) / total_b if total_b else 0.0
        distance += abs(p - q)
    return distance / 2.0


def _max_delta(a: Mapping[str, int], b: Mapping[str, int]) -> int:
    return max(
        (abs(a.get(key, 0) - b.get(key, 0)) for key in set(a) | set(b)),
        default=0,
    )


def _sequence_divergence(a: list[str], b: list[str]) -> float:
    """Fraction of positions where the ordered event streams differ."""
    length = max(len(a), len(b))
    if length == 0:
        return 0.0
    mismatches = sum(
        1 for x, y in zip(a, b) if x != y
    ) + abs(len(a) - len(b))
    return mismatches / length


def _frequency_ranks(trace: ObservableTrace) -> dict[str, int]:
    """Rank-labelled DAS bucket histogram (labels are salted per run,
    so only the rank-aligned shape is comparable across runs)."""
    return {
        f"rank_{position}": count
        for position, count in enumerate(trace.bucket_frequency_shape())
    }


def _timing_distribution(trace: ObservableTrace) -> dict[str, int]:
    flat: dict[str, int] = {}
    for step, buckets in trace.latency_buckets.items():
        for label, count in buckets.items():
            flat[f"{step}|{label}"] = flat.get(f"{step}|{label}", 0) + count
    return flat


def trace_distances(
    base: ObservableTrace, adjacent: ObservableTrace,
    include_timing: bool = False,
) -> dict[str, float]:
    """Explicit distances between one adversary's two observable traces.

    All values are deterministic for seeded workloads except
    ``timing_tv`` (only present with ``include_timing``, never gated).
    """
    distances = {
        "messages_tv": _total_variation(
            base.size_histogram(), adjacent.size_histogram()
        ),
        "kinds_tv": _total_variation(base.kind_counts(), adjacent.kind_counts()),
        "max_count_delta": float(
            _max_delta(base.kind_counts(), adjacent.kind_counts())
        ),
        "max_bucket_count_delta": float(
            _max_delta(base.size_histogram(), adjacent.size_histogram())
        ),
        "max_cardinality_delta": float(
            _max_delta(base.cardinality_totals(), adjacent.cardinality_totals())
        ),
        "bucket_frequency_tv": _total_variation(
            _frequency_ranks(base), _frequency_ranks(adjacent)
        ),
        "max_bucket_frequency_delta": float(
            _max_delta(_frequency_ranks(base), _frequency_ranks(adjacent))
        ),
        "sequence_divergence": _sequence_divergence(
            base.event_sequence(), adjacent.event_sequence()
        ),
    }
    if include_timing:
        distances["timing_tv"] = _total_variation(
            _timing_distribution(base), _timing_distribution(adjacent)
        )
    return {name: round(value, 6) for name, value in distances.items()}


# ---------------------------------------------------------------------------
# The auditor.
# ---------------------------------------------------------------------------

def _make_transport(config: AuditConfig) -> Any:
    if config.transport == "tcp":
        from repro.transport.tcp import TcpTransport

        carrier: Any = TcpTransport()
    else:
        from repro.mediation.network import Network

        carrier = Network()
    if config.canary:
        from repro.faults.leaky import LeakyTransport

        carrier = LeakyTransport(
            carrier,
            pads_per_item=config.canary_pads_per_item,
            pad_bytes=config.canary_pad_bytes,
        )
    return carrier


def _default_federation_factory(config: AuditConfig) -> Callable[..., Federation]:
    """Build a federation factory with key material shared across runs."""
    from repro import CertificationAuthority, setup_client
    from repro.mediation.access_control import allow_all
    from repro.mediation.client import default_homomorphic_scheme

    ca = CertificationAuthority(key_bits=config.rsa_bits)
    client = setup_client(
        ca,
        "audit-client",
        {("role", "auditor")},
        rsa_bits=config.rsa_bits,
        homomorphic_scheme=default_homomorphic_scheme(config.paillier_bits),
    )

    def factory(workload: Workload, network: Any) -> Federation:
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


def _observed_run(
    factory: Callable[..., Federation],
    workload: Workload,
    protocol: str,
    query: str,
    config: AuditConfig,
) -> dict[str, ObservableTrace]:
    """One protocol run over a fresh transport; returns adversary traces."""
    from repro.core.runner import run_join_query

    transport = _make_transport(config)
    # The canary models a hardened deployment whose padding layer
    # silently regressed, so a hardened+canary audit runs unhardened
    # (the LeakyTransport pads proportionally to observable counts,
    # which genuine hardening would make invariant — the planted defect
    # must actually move the distances for --expect-fail to bite).
    hardened_run = config.hardened and not config.canary
    try:
        federation = factory(workload, transport)
        result = run_join_query(
            federation, query, protocol=protocol, hardening=hardened_run
        )
        return adversary_traces(result)
    finally:
        transport.close()


def _spec_document(spec: WorkloadSpec) -> dict[str, Any]:
    document = dataclasses.asdict(spec)
    document["join_type"] = spec.join_type.value
    return document


def default_gate(
    protocols_document: Mapping[str, Any], hardened: bool = False
) -> dict[str, Any]:
    """One gate rule per (protocol, adversary, gated metric) present."""
    rules = HARDENED_GATE_RULES if hardened else DEFAULT_GATE_RULES
    gate: dict[str, Any] = {}
    for protocol, entry in sorted(protocols_document.items()):
        for adversary, audit in sorted(entry["adversaries"].items()):
            for metric in audit["distances"]:
                rule = rules.get(metric)
                if rule is not None:
                    gate[f"{protocol}/{adversary}/{metric}"] = dict(rule)
    return gate


def differential_audit(
    config: AuditConfig | None = None,
    *,
    federation_factory: Callable[..., Federation] | None = None,
) -> dict[str, Any]:
    """Run the full differential audit and return the artifact document.

    ``federation_factory(workload, network)`` may be supplied to reuse
    existing key material (tests, benchmarks); by default fresh keys are
    generated once and shared across every run of the audit.
    """
    config = config or AuditConfig()
    factory = federation_factory or _default_federation_factory(config)
    base = generate(config.spec)
    adjacent, perturbation = adjacent_workload(base)
    query = (
        f"select * from {config.spec.name_1} "
        f"natural join {config.spec.name_2}"
    )
    protocols_document: dict[str, Any] = {}
    for protocol in config.protocols:
        base_traces = _observed_run(factory, base, protocol, query, config)
        adjacent_traces = _observed_run(
            factory, adjacent, protocol, query, config
        )
        adversaries: dict[str, Any] = {}
        for name in sorted(base_traces):
            base_trace = base_traces[name]
            adjacent_trace = adjacent_traces.get(name)
            if adjacent_trace is None:
                continue
            adversaries[name] = {
                "distances": trace_distances(
                    base_trace, adjacent_trace, config.include_timing
                ),
                "base": base_trace.summary(),
                "adjacent": adjacent_trace.summary(),
            }
        protocols_document[protocol] = {"adversaries": adversaries}
    return {
        "schema": LEAKAGE_SCHEMA,
        "bench": "leakage_audit",
        "transport": config.transport,
        "canary": config.canary,
        "hardened": config.hardened,
        "include_timing": config.include_timing,
        "query": query,
        "workload": {
            "spec": _spec_document(config.spec),
            "perturbation": perturbation,
        },
        "protocols": protocols_document,
        "gate": default_gate(protocols_document, hardened=config.hardened),
        "context": {
            "rsa_bits": config.rsa_bits,
            "paillier_bits": config.paillier_bits,
        },
    }


def leakage_json(document: Mapping[str, Any]) -> str:
    """Canonical serialization (what determinism is asserted against)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_leakage_artifact(path: str, document: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(leakage_json(document))


def render_audit_summary(document: Mapping[str, Any]) -> str:
    """Human-readable per-adversary distance table."""
    lines = [
        "Differential leakage audit "
        f"(transport={document['transport']}, canary={document['canary']}, "
        f"hardened={document.get('hardened', False)})",
        f"{'protocol':18s} {'adversary':16s} {'msgs_tv':>8s} {'kinds_tv':>9s} "
        f"{'Δcount':>7s} {'Δbucket':>8s} {'Δcard':>6s} {'seq_div':>8s}",
        "-" * 78,
    ]
    for protocol, entry in sorted(document["protocols"].items()):
        for adversary, audit in sorted(entry["adversaries"].items()):
            d = audit["distances"]
            lines.append(
                f"{protocol:18s} {adversary:16s} "
                f"{d['messages_tv']:8.4f} {d['kinds_tv']:9.4f} "
                f"{d['max_count_delta']:7.0f} {d['max_bucket_count_delta']:8.0f} "
                f"{d['max_cardinality_delta']:6.0f} "
                f"{d['sequence_divergence']:8.4f}"
            )
    return "\n".join(lines)
