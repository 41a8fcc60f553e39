"""End-to-end orchestration: request phase + chosen delivery phase.

:func:`run_join_query` is the library's primary entry point: build a
:class:`~repro.core.federation.Federation`, attach a client, then run a
global join query under any of the three delivery protocols.  The
returned :class:`~repro.core.result.MediationResult` carries the global
result and the run's slice of the transcript for analysis.
"""

from __future__ import annotations

from typing import Any

from repro.core import commutative, das, private_matching, request, steps
from repro.core.federation import Federation
from repro.core.result import MediationResult, RunFailure
from repro.core.steps import deliver
from repro.crypto.backend import arithmetic
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.instrumentation import count_primitives
from repro.deadline import deadline
from repro.errors import ProtocolError, ReproError
from repro.hardening import resolve_hardening
from repro.relational.algebra import evaluate_above_join
from repro.relational.relation import Relation
from repro.session import current_session_id, session_scope
from repro.telemetry import tracing

#: Protocol registry: name -> the delivery phase as data — ``seat``
#: (the step table, and what the protocol adds to the parties' states),
#: ``report`` (result and artifacts from the final states) — and the
#: config class.
PROTOCOLS = {
    "das": (das.seat, das.report, das.DASConfig),
    "commutative": (
        commutative.seat, commutative.report, commutative.CommutativeConfig
    ),
    "private-matching": (
        private_matching.seat, private_matching.report,
        private_matching.PMConfig,
    ),
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
    defaults.  ``engine`` is the crypto batch engine; None uses the
    process-wide installed one.

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
      force, or else runs in the transport's own session
      (``federation.network.session_id``).
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
    seat, report, config_type = PROTOCOLS[protocol]
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
    scope = session_scope(
        session_id or current_session_id() or federation.network.session_id
    )
    # The transcript of a federation that answers a series of queries
    # keeps growing; the result records the positions this run added.
    messages_before = federation.network.message_count()
    phase = "request"
    try:
        with scope, deadline(deadline_seconds), tracing.span(
            "run_join_query", client_party, kind="run", protocol=protocol
        ):
            result = MediationResult(
                protocol=protocol, query=query, global_result=None,
                network=federation.network, primitive_counter=None,
            )  # report() sets the protocol label and the result
            config = config or config_type()
            with tracing.span("request_phase", client_party, kind="phase"):
                parties = steps.seat(
                    federation, query, config, engine or get_engine(), context
                )
                deliver(request.TABLE, parties, federation.network, result)
            phase = "delivery"
            with tracing.span(
                "delivery", client_party, kind="phase", protocol=protocol
            ):
                parties = steps.joined(parties)
                with count_primitives() as counter:
                    result.primitive_counter = counter
                    deliver(seat(parties), parties, federation.network, result)
                report(result, parties, config)
            # The protocols deliver the JOIN; remaining operators of the
            # global query (selection, projection) are the client's local
            # post-work.
            phase = "postprocessing"
            tree = parties[federation.mediator.name][1].decomposition.tree
            join_rows = len(result.global_result)
            result.global_result = evaluate_above_join(
                tree, result.global_result
            )
            result.artifacts["join_rows_before_postprocessing"] = join_rows
            result.artifacts["crypto"] = crypto_context()
            result.message_range = (
                messages_before, federation.network.message_count()
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
        return _describe_failure(
            federation, query, protocol, phase, exc, messages_before
        )


def crypto_context() -> dict[str, Any]:
    """Self-description of the crypto configuration a run executed under.

    Recorded in ``result.artifacts["crypto"]`` so audit records, bench
    JSON, and load reports name the bigint arithmetic that produced
    their numbers: ``"gmp"`` when :mod:`repro.crypto.backend` loaded the
    host's GMP library, ``"python"`` when it runs on ``pow()``.
    """
    return {"bigint": arithmetic()}


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
    messages_before: int,
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
        message_range=(messages_before, network.message_count()),
    )


def reference_join(federation: Federation, query: str) -> Relation:
    """The plaintext result the protocols must reproduce.

    Evaluates the global query's decomposition directly over each
    source's access-controlled partial result — the ground truth every
    protocol's decrypted global result is compared against in tests.

    NOTE: this deliberately bypasses the encryption machinery and the
    transport and exists for verification only; it sends no message, so
    the transcript of a protocol run is not polluted.
    """
    credentials = federation.require_client().credentials
    mediator = federation.mediator
    decomposition = mediator.decompose_join(query)
    env = {
        leaf.relation_name: federation.source(name).execute_partial_query(
            leaf, mediator.select_credentials(name, credentials)
        )
        for leaf, name in zip(
            decomposition.partial_queries, decomposition.source_names
        )
    }
    return decomposition.tree.evaluate(env)
