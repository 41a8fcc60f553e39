"""Evaluation analyses reproducing the paper's Tables, Figures and §6.

Every analysis reads one run: ``result.messages``, the slice of the
transcript the run added, with the parties named by
:func:`repro.telemetry.observables.detect_roles`.

* :mod:`~repro.analysis.views` — the byte material a party received
* :mod:`~repro.analysis.leakage` — Table 1 read off the run's
  observable traces (:mod:`repro.telemetry.observables`)
* :mod:`~repro.analysis.audit` — differential leakage audit over
  adjacent workloads (the ``repro-leakage/1`` artifact)
* :mod:`~repro.analysis.primitives` — Table 2 from primitive counters
* :mod:`~repro.analysis.conformance` — Listing 1-4 / Figure 1-2 checks
* :mod:`~repro.analysis.comparison` — Section 6 performance quantities
* :mod:`~repro.analysis.inference` — DAS partition-inference ablation
* :mod:`~repro.analysis.statistics` — ciphertext uniformity checks
* :mod:`~repro.analysis.export` — JSON audit records of protocol runs
"""

from repro.analysis.audit import (
    AuditConfig,
    adjacent_workload,
    differential_audit,
    render_audit_summary,
    trace_distances,
    write_leakage_artifact,
)
from repro.analysis.comparison import ComparisonRow, compare, measure, render
from repro.analysis.export import export_run, export_run_json
from repro.analysis.conformance import architecture_edges, check_flow
from repro.analysis.leakage import (
    LeakageReport,
    analyze,
    table1,
    verify_no_plaintext_leak,
)
from repro.analysis.primitives import PrimitiveProfile, primitive_profile, table2
from repro.analysis.statistics import (
    commutative_tag_spread,
    mediator_ciphertext_uniformity,
)

__all__ = [
    "AuditConfig",
    "ComparisonRow",
    "LeakageReport",
    "PrimitiveProfile",
    "adjacent_workload",
    "analyze",
    "architecture_edges",
    "check_flow",
    "commutative_tag_spread",
    "compare",
    "differential_audit",
    "export_run",
    "export_run_json",
    "measure",
    "mediator_ciphertext_uniformity",
    "primitive_profile",
    "render",
    "render_audit_summary",
    "table1",
    "trace_distances",
    "table2",
    "verify_no_plaintext_leak",
    "write_leakage_artifact",
]
