"""End-to-end orchestration: request phase + chosen delivery phase.

:func:`run_join_query` is the library's primary entry point: build a
:class:`~repro.core.federation.Federation`, attach a client, then run a
global join query under any of the three delivery protocols.  The
returned :class:`~repro.core.result.MediationResult` carries the global
result and the full transcript for analysis.
"""

from __future__ import annotations

import contextlib
from typing import Any

from repro.core.commutative import CommutativeConfig, run_commutative_delivery
from repro.core.das import DASConfig, run_das_delivery
from repro.core.federation import Federation
from repro.core.private_matching import PMConfig, run_private_matching_delivery
from repro.core.request import RequestPhaseOutcome, run_request_phase
from repro.core.result import MediationResult, RunFailure
from repro.crypto.engine import CryptoEngine
from repro.deadline import deadline
from repro.errors import ProtocolError, ReproError
from repro.hardening import resolve_hardening
from repro.relational.algebra import evaluate_above_join
from repro.relational.relation import Relation
from repro.session import session_scope
from repro.telemetry import tracing
from repro.telemetry.observables import observables_artifact

#: Protocol registry: name -> (delivery function, config class).
PROTOCOLS = {
    "das": (run_das_delivery, DASConfig),
    "commutative": (run_commutative_delivery, CommutativeConfig),
    "private-matching": (run_private_matching_delivery, PMConfig),
}


def run_join_query(
    federation: Federation,
    query: str,
    protocol: str = "commutative",
    config: Any = None,
    engine: CryptoEngine | None = None,
    *,
    on_failure: str = "raise",
    deadline_seconds: float | None = None,
    session_id: str | None = None,
    hardening: Any = None,
) -> MediationResult | RunFailure:
    """Run a global join query end to end under the named protocol.

    ``protocol`` is one of ``"das"``, ``"commutative"`` (the paper's
    recommendation: "the commutative approach seems to be the most
    efficient one"), or ``"private-matching"``.  ``config`` is the
    protocol's config dataclass (:class:`DASConfig`,
    :class:`CommutativeConfig`, or :class:`PMConfig`) or None for
    defaults.  ``engine`` selects the crypto execution engine (serial or
    pooled); None uses the process-wide installed engine.

    Robustness knobs (see ``docs/robustness.md``):

    * ``deadline_seconds`` installs a :mod:`repro.deadline` budget for
      the whole run; every transport wait below shortens itself to the
      remaining budget and the run fails with
      :class:`~repro.errors.DeadlineExceeded` once it is spent.
    * ``on_failure="return"`` degrades gracefully: a run interrupted by
      a :class:`~repro.errors.ReproError` (crashed party, exhausted
      retries, expired deadline) returns a structured
      :class:`~repro.core.result.RunFailure` — carrying the partial
      transcript and any injected-fault events — instead of raising.
      Usage errors (unknown protocol, wrong config type) always raise.
    * ``session_id`` runs the query inside a
      :func:`~repro.session.session_scope`: every transport send, fault
      decision, and span below carries the id, and endpoints key their
      per-session state by it.  ``None`` leaves any enclosing scope in
      force (or runs session-less, the legacy behaviour).
    * ``hardening`` opts into the leakage-hardened oblivious mode
      (``True``, a :class:`~repro.hardening.PaddingPolicy`, or a
      prepared :class:`~repro.hardening.Hardening` context); ``None``
      falls back to ``federation.hardening``.  See ``docs/security.md``
      ("Hardened mode").
    """
    if protocol not in PROTOCOLS:
        raise ProtocolError(
            f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
        )
    delivery, config_type = PROTOCOLS[protocol]
    if config is not None and not isinstance(config, config_type):
        raise ProtocolError(
            f"protocol {protocol!r} expects a {config_type.__name__}, "
            f"got {type(config).__name__}"
        )
    if on_failure not in ("raise", "return"):
        raise ProtocolError(
            f"on_failure must be 'raise' or 'return', got {on_failure!r}"
        )
    context = resolve_hardening(hardening, federation.hardening)
    client_party = federation.client.name if federation.client else "client"
    scope = (
        session_scope(session_id)
        if session_id is not None
        else contextlib.nullcontext()
    )
    # The transcript of a federation that answers a series of queries
    # keeps growing; this run's observables cover this run's messages.
    messages_before = len(federation.network.transcript)
    phase = "request"
    try:
        with scope, deadline(deadline_seconds), tracing.span(
            "run_join_query", client_party, kind="run", protocol=protocol
        ):
            with tracing.span("request_phase", client_party, kind="phase"):
                outcome = run_request_phase(federation, query)
            phase = "delivery"
            with tracing.span(
                "delivery", client_party, kind="phase", protocol=protocol
            ):
                result = delivery(
                    federation, outcome, config, engine=engine,
                    hardening=context,
                )
            # The protocols deliver the JOIN; remaining operators of the
            # global query (selection, projection) are the client's local
            # post-work.
            phase = "postprocessing"
            tree = outcome.decomposition.tree
            join_rows = len(result.global_result)
            result.global_result = evaluate_above_join(
                tree, result.global_result
            )
            result.artifacts["join_rows_before_postprocessing"] = join_rows
            result.artifacts["crypto"] = crypto_context(engine)
            result.artifacts["observables"] = observables_artifact(
                result, federation.network.transcript[messages_before:]
            )
            storage_stats = _collect_storage_stats(federation)
            if storage_stats is not None:
                result.artifacts["storage_cache"] = storage_stats
            if context is not None:
                result.artifacts["hardening"] = context.artifact()
                context.record_metrics(protocol)
            return result
    except ReproError as exc:
        if on_failure != "return":
            raise
        return _describe_failure(federation, query, protocol, phase, exc)


def crypto_context(engine: CryptoEngine | None = None) -> dict[str, Any]:
    """Self-description of the crypto configuration a run executed under.

    Recorded in ``result.artifacts["crypto"]`` so audit records, bench
    JSON, and load reports name the engine mode that produced their
    numbers.
    """
    from repro.crypto.engine import get_engine

    active = engine if engine is not None else get_engine()
    return {
        "engine_mode": active.mode,
        "workers": active.workers,
    }


def _collect_storage_stats(federation: Federation) -> dict[str, Any] | None:
    """Aggregate per-source index-cache statistics for ``result.artifacts``.

    Returns None when the federation has no storage backend so storage-less
    runs keep their artifact dict unchanged (and tests comparing artifacts
    across configurations stay meaningful).
    """
    if federation.storage is None:
        return None
    totals = {"hits": 0, "misses": 0, "puts": 0, "errors": 0}
    per_source: dict[str, dict[str, int]] = {}
    for name, source in sorted(federation.sources.items()):
        cache = source.index_cache()
        if cache is None:
            continue
        stats = cache.stats.as_dict()
        per_source[name] = stats
        for key in totals:
            totals[key] += stats[key]
    return {
        "backend": federation.storage.describe(),
        "sources": per_source,
        **totals,
    }


def _describe_failure(
    federation: Federation,
    query: str,
    protocol: str,
    phase: str,
    error: ReproError,
) -> RunFailure:
    """Structured degradation: partial observables instead of a traceback."""
    network = federation.network
    events = getattr(network, "fault_events", [])
    return RunFailure(
        protocol=protocol,
        query=query,
        phase=phase,
        error_type=type(error).__name__,
        error_message=str(error),
        network=network,
        fault_events=[event.summary() for event in events],
    )


def reference_join(
    federation: Federation, query: str, outcome: RequestPhaseOutcome | None = None
) -> Relation:
    """The plaintext result the protocols must reproduce.

    Evaluates the global query directly over the (access-controlled)
    partial results — the ground truth every protocol's decrypted global
    result is compared against in tests.

    NOTE: this deliberately bypasses the encryption machinery and exists
    for verification only; it also re-runs the request phase unless an
    ``outcome`` is supplied, so transcripts of a protocol run are not
    polluted.
    """
    if outcome is None:
        outcome = run_request_phase(federation, query)
    env = {
        partial_query.relation_name: outcome.partial_results[source_name]
        for partial_query, source_name in zip(
            outcome.decomposition.partial_queries,
            outcome.decomposition.source_names,
        )
    }
    return outcome.decomposition.tree.evaluate(env)
