"""Exporting protocol runs for external auditing.

Serializes a :class:`~repro.core.result.MediationResult` — transcript
metadata, leakage report, primitive profile, timings — into a single
JSON-compatible dictionary.  Ciphertext payloads are exported as sizes
and fingerprints only: the export exists to *audit* a run, not to leak
it a second time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.analysis.leakage import analyze
from repro.analysis.primitives import primitive_profile
from repro.core.result import MediationResult


def _body_fingerprint(body: Any) -> str:
    from repro.analysis.views import iter_byte_material

    digest = hashlib.sha256()
    for fragment in iter_byte_material(body):
        digest.update(len(fragment).to_bytes(4, "big"))
        digest.update(fragment)
    return digest.hexdigest()[:16]


def export_run(result: MediationResult) -> dict[str, Any]:
    """A JSON-compatible audit record of one protocol run."""
    leakage = analyze(result)
    profile = primitive_profile(result)
    return {
        "protocol": result.protocol,
        "query": result.query,
        "result_rows": len(result.global_result),
        "result_schema": list(result.global_result.schema.names()),
        "transcript": [
            {
                "sequence": message.sequence,
                "sender": message.sender,
                "receiver": message.receiver,
                "kind": message.kind,
                "size_bytes": message.size_bytes,
                "body_fingerprint": _body_fingerprint(message.body),
            }
            for message in result.messages
        ],
        "totals": {
            "bytes": result.total_bytes(),
            "messages": len(result.messages),
            "seconds": result.total_seconds(),
        },
        "timings": [
            {"party": t.party, "step": t.step, "seconds": t.seconds}
            for t in result.timings
        ],
        "leakage": {
            "mediator_learns": dict(leakage.mediator_learns),
            "client_learns": dict(leakage.client_learns),
            "notes": list(leakage.notes),
        },
        "primitives": {
            "categories": dict(profile.categories),
            "operations": dict(profile.operations),
        },
    }


def export_run_json(result: MediationResult, indent: int = 2) -> str:
    """The audit record as a JSON string."""
    return json.dumps(export_run(result), indent=indent, sort_keys=True)
