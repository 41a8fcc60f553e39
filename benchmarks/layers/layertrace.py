"""Per-layer accounting for the traced pass.

The library already emits a span tree (``repro.telemetry.tracing``):
``run_join_query`` > phases > protocol steps > ``send:*`` /
``crypto:*`` / ``storage:*``.  Some layers emit no span of their own
(the codec, the DEM, the index cache, hardening), so for the traced
pass only :func:`layer_wrappers` wraps their public functions from out
here; the wrappers open ordinary spans on the installed tracer, nest
into the same tree, and are removed again afterwards.  Nothing under
``src/`` changes and the untraced pass runs the original functions.

:func:`attribute` then turns the spans of the traced queries into
seconds per layer: a span's *self time* is its duration minus its
children's, every span name must be known to :func:`classify`, and what
no layer claims is ``core.unattributed_s``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.crypto import backend as crypto_backend
from repro.crypto import hybrid, symmetric
from repro.hardening import Hardening
from repro.storage import IndexCache
from repro.telemetry import tracing
from repro.telemetry.tracing import Span
from repro.transport import codec

UNATTRIBUTED = "core.unattributed_s"

#: Span name -> the per-layer metric its self time is charged to.  This
#: table is the whole classification; README.md reproduces it.
EXACT: dict[str, str] = {
    # Runner glue outside any step: nobody's, so it counts against
    # trace.coverage.
    "run_join_query": UNATTRIBUTED,
    "delivery": UNATTRIBUTED,
    "request_phase": "mediation.request_phase_s",
    "crypto:call": "mediation.request_phase_s",  # credential signature checks
    "decompose_join": "relational.decompose_s",
    "execute_partial_query": "relational.partial_query_s",
    # DAS steps are relational work on ciphertext relations.
    "partition_and_encrypt": "relational.partition_s",
    "evaluate_server_query": "relational.server_query_s",
    "translate_query": "relational.client_query_s",
    "decrypt_and_postprocess": "relational.client_query_s",
    # Commutative and private-matching steps: protocol driver code.
    "hash_encrypt_round1": "core.protocol_s",
    "double_encrypt": "core.protocol_s",
    "match": "core.protocol_s",
    "decrypt_and_combine": "core.protocol_s",
    "build_polynomial": "core.protocol_s",
    "evaluate_polynomial": "core.protocol_s",
    "decrypt_and_match": "core.protocol_s",
    "crypto:commutative": "crypto.commutative_s",
    "crypto:hybrid_encrypt": "crypto.hybrid_encrypt_s",
    "bench:hybrid.encrypt": "crypto.hybrid_encrypt_s",
    "crypto:hybrid_decrypt": "crypto.hybrid_decrypt_s",
    "bench:hybrid.decrypt": "crypto.hybrid_decrypt_s",
    "decrypt_hybrid_many": "crypto.hybrid_decrypt_s",
    "bench:dem.encrypt": "crypto.dem_s",
    "bench:dem.decrypt": "crypto.dem_s",
    "crypto:scheme_encrypt": "crypto.scheme_encrypt_s",
    "crypto:paillier_encrypt": "crypto.scheme_encrypt_s",
    "crypto:paillier_encrypt_nonce": "crypto.scheme_encrypt_s",
    "crypto:pow": "crypto.scheme_encrypt_s",
    "crypto:pow_shared_base": "crypto.scheme_encrypt_s",
    "crypto:scheme_decrypt": "crypto.scheme_decrypt_s",
    "crypto:paillier_decrypt": "crypto.scheme_decrypt_s",
    "decrypt_homomorphic_many": "crypto.scheme_decrypt_s",
    "crypto:poly_eval": "crypto.poly_eval_s",
    "bench:codec.encode": "transport.encode_s",
    "bench:codec.decode": "transport.decode_s",
    "bench:cache.get": "storage.cache_get_s",
    "bench:cache.put": "storage.cache_put_s",
    "storage:select": "storage.select_s",
    "storage:load_relation": "storage.select_s",
    "storage:bucket_join": "storage.bucket_join_s",
    "bench:hardening.wrap": "hardening.wrap_s",
}
#: ``send:<kind>`` self time is the wait for the acknowledgement: the
#: codec work inside it is charged to the wrapped codec spans.
PREFIXES: dict[str, str] = {"send:": "transport.ack_wait_s"}

PAILLIER_SPANS = frozenset(
    name for name, metric in EXACT.items()
    if name.startswith("crypto:") and metric in (
        "crypto.scheme_encrypt_s", "crypto.scheme_decrypt_s", "crypto.poly_eval_s"
    )
)


class UnknownSpan(Exception):
    """A span name the classifier has no layer for."""


def classify(name: str) -> str:
    metric = EXACT.get(name)
    if metric is not None:
        return metric
    for prefix, metric in PREFIXES.items():
        if name.startswith(prefix):
            return metric
    raise UnknownSpan(name)


# ---------------------------------------------------------------------------
# Wrappers (traced pass only)
# ---------------------------------------------------------------------------


def _spanned(
    function: Callable, name: str, size_of: Callable[[tuple], int] | None = None
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attributes = {"kind": "layer"}
        if size_of is not None:
            attributes["bytes"] = size_of(args)
        with tracing.span(name, "bench", **attributes):
            return function(*args, **kwargs)

    return wrapper


#: (owner, attribute, span name, size-of-arguments or None)
_SPANNED: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (symmetric, "encrypt", "bench:dem.encrypt", lambda args: len(args[1])),
    (symmetric, "decrypt", "bench:dem.decrypt", lambda args: len(args[1])),
    (hybrid, "encrypt", "bench:hybrid.encrypt", None),
    (hybrid, "decrypt", "bench:hybrid.decrypt", None),
    (codec, "encode_envelope", "bench:codec.encode", None),
    (codec, "encode_value", "bench:codec.encode", None),
    (codec, "decode_envelope", "bench:codec.decode", None),
    (codec, "decode_value", "bench:codec.decode", None),
    (IndexCache, "get", "bench:cache.get", None),
    (IndexCache, "put", "bench:cache.put", None),
    (Hardening, "wrap_uniform", "bench:hardening.wrap", None),
    (Hardening, "wrap_table", "bench:hardening.wrap", None),
    (Hardening, "dummy", "bench:hardening.wrap", None),
    (Hardening, "unwrap", "bench:hardening.wrap", None),
)


#: Bigint entry points of the pure-Python backend -> position of the
#: argument whose length is the number of exponentiations (None: one).
_COUNTED: dict[str, int | None] = {
    "powmod": None, "powmod_base_list": 0, "powmod_exp_list": 1,
}


def wrapped_targets() -> list[tuple[Any, str]]:
    """Every (owner, attribute) :func:`layer_wrappers` replaces."""
    return [(owner, attribute) for owner, attribute, _, _ in _SPANNED] + [
        (crypto_backend.PythonBackend, attribute) for attribute in _COUNTED
    ]


@contextmanager
def layer_wrappers() -> Iterator[Counter]:
    """Install the span wrappers and the modexp counter; restore on exit.

    Yields the counter of bigint modular exponentiations (keyed
    ``"modexp"``), which is exact: the pure-Python backend has exactly
    three entry points and each is counted per exponentiation.
    """
    counts: Counter = Counter()

    def counted(method: Callable, batch_argument: int | None) -> Callable:
        @functools.wraps(method)
        def wrapper(self: Any, *args: Any) -> Any:
            counts["modexp"] += (
                1 if batch_argument is None else len(args[batch_argument])
            )
            return method(self, *args)

        return wrapper

    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute in wrapped_targets()
    ]
    try:
        for owner, attribute, name, size_of in _SPANNED:
            setattr(owner, attribute, _spanned(getattr(owner, attribute), name, size_of))
        for attribute, batch_argument in _COUNTED.items():
            method = crypto_backend.PythonBackend.__dict__[attribute]
            setattr(crypto_backend.PythonBackend, attribute, counted(method, batch_argument))
        yield counts
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


def attribute(spans: Iterable[Span], queries: int, wall_seconds: float) -> dict[str, float]:
    """Layer seconds and span-derived counts, each a mean per query.

    ``wall_seconds`` is the summed harness-side wall time of the traced
    queries.  Only trees rooted at ``run_join_query`` lie on the query's
    blocking chain; everything else the tracer saw (endpoint-side codec
    work on the transport loop thread, session set-up) is reported as
    ``transport.recv_s`` / ignored and never counted as coverage.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list[Span]] = defaultdict(list)
    roots: list[Span] = []
    for span in spans:
        if span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)

    seconds: Counter = Counter()
    counts: Counter = Counter()

    def walk(span: Span, on_path: bool) -> None:
        below = children.get(span.span_id, ())
        own = max(0.0, span.seconds - sum(child.seconds for child in below))
        metric = classify(span.name)
        if on_path:
            seconds[metric] += own
            name = span.name
            if name.startswith("send:"):
                seconds["transport.send_s"] += span.seconds
            elif name == "crypto:commutative":
                counts["crypto.commutative_ops"] += span.attributes.get("items", 0)
            elif name in PAILLIER_SPANS:
                counts["crypto.paillier_ops"] += span.attributes.get("items", 0)
            elif name == "crypto:call":
                counts["mediation.credential_checks"] += span.attributes.get("items", 0)
            elif name in ("bench:hybrid.encrypt", "bench:hybrid.decrypt"):
                counts["crypto.hybrid_ops"] += 1
            elif name in ("bench:dem.encrypt", "bench:dem.decrypt"):
                counts["crypto.dem_bytes"] += span.attributes.get("bytes", 0)
        elif metric in ("transport.encode_s", "transport.decode_s"):
            seconds["transport.recv_s"] += own
        for child in below:
            walk(child, on_path)

    for root in roots:
        walk(root, root.name == "run_join_query")

    claimed = sum(
        value for metric, value in seconds.items()
        if metric not in (UNATTRIBUTED, "transport.send_s", "transport.recv_s")
    )
    result = {metric: value / queries for metric, value in seconds.items()}
    result.update({metric: value / queries for metric, value in counts.items()})
    result[UNATTRIBUTED] = max(0.0, wall_seconds - claimed) / queries
    result["trace.coverage"] = claimed / wall_seconds if wall_seconds else 0.0
    result["telemetry.spans_per_query"] = len(spans) / queries
    return result
