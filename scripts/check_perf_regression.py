#!/usr/bin/env python3
"""CI perf-regression gate over committed ``BENCH_*.json`` baselines.

The benchmarks emit self-describing perf artifacts (schema
``repro-bench/1``, see ``benchmarks/conftest.py``): a ``metrics`` map
plus a ``gate`` declaring which metrics are regression-gated and how —

* ``direction: "max"`` — bigger is worse; the candidate must stay at or
  below ``baseline * (1 + tolerance)``,
* ``direction: "min"`` — bigger is better; the candidate must stay at
  or above ``baseline * (1 - tolerance)``.

Gate policy is taken from the **baseline** (the committed file is the
contract); ungated metrics are reported but never fail the build.  Only
host-independent metrics (ratios, counts) should be gated — absolute
wall-clock differs between the baseline host and CI runners.

Usage (what the ``perf-gate`` CI job runs)::

    python scripts/check_perf_regression.py \
        --baseline benchmarks/baselines --candidate benchmarks/out

Exit codes: 0 all gates pass, 1 regression or missing candidate,
2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SCHEMA = "repro-bench/1"


class GateError(Exception):
    """Malformed artifact or gate declaration."""


def load_bench(path: pathlib.Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: unreadable bench artifact: {exc}") from exc
    if document.get("schema") != SCHEMA:
        raise GateError(
            f"{path}: expected schema {SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    for key in ("bench", "metrics", "gate"):
        if key not in document:
            raise GateError(f"{path}: missing {key!r}")
    return document


def check_metric(
    name: str, rule: dict, baseline: float, candidate: float
) -> tuple[bool, str]:
    """Apply one gate rule; returns (passed, human verdict line).

    A rule may add an absolute ``slack`` on top of the relative
    tolerance (``bound = baseline * (1 ± tolerance) ± slack``) so a
    zero-valued baseline — common for leakage distances — does not make
    the gate infinitely strict.
    """
    direction = rule.get("direction")
    tolerance = float(rule.get("tolerance", 0.0))
    slack = float(rule.get("slack", 0.0))
    if direction == "max":
        bound = baseline * (1.0 + tolerance) + slack
        passed = candidate <= bound
        relation = f"<= {bound:g}"
    elif direction == "min":
        bound = baseline * (1.0 - tolerance) - slack
        passed = candidate >= bound
        relation = f">= {bound:g}"
    else:
        raise GateError(f"gate {name!r}: unknown direction {direction!r}")
    status = "ok  " if passed else "FAIL"
    return passed, (
        f"  {status} {name:32s} baseline {baseline:>10g}  "
        f"candidate {candidate:>10g}  (need {relation})"
    )


def compare(baseline_doc: dict, candidate_doc: dict) -> tuple[bool, list[str]]:
    lines: list[str] = []
    all_passed = True
    for key in ("gate", "metrics"):
        if key not in baseline_doc:
            raise GateError(f"baseline document is missing {key!r}")
    if "metrics" not in candidate_doc:
        raise GateError("candidate document is missing 'metrics'")
    gate = baseline_doc["gate"]
    base_metrics = baseline_doc["metrics"]
    cand_metrics = candidate_doc["metrics"]
    for name in sorted(gate):
        if name not in base_metrics:
            raise GateError(f"gated metric {name!r} missing from baseline")
        if name not in cand_metrics:
            all_passed = False
            lines.append(f"  FAIL {name:32s} missing from candidate run")
            continue
        try:
            values = float(base_metrics[name]), float(cand_metrics[name])
        except (TypeError, ValueError) as exc:
            raise GateError(
                f"gated metric {name!r} is not numeric "
                f"(baseline {base_metrics[name]!r}, "
                f"candidate {cand_metrics[name]!r})"
            ) from exc
        passed, line = check_metric(name, gate[name], *values)
        all_passed &= passed
        lines.append(line)
    for name in sorted(set(cand_metrics) - set(gate)):
        try:
            rendered = f"{float(cand_metrics[name]):>10g}"
        except (TypeError, ValueError):
            rendered = repr(cand_metrics[name])
        lines.append(f"  info {name:32s} candidate {rendered}  (ungated)")
    return all_passed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, type=pathlib.Path,
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--candidate", required=True, type=pathlib.Path,
        help="directory of freshly measured BENCH_*.json artifacts",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline}", file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    try:
        for baseline_path in baselines:
            # Sibling artifact families (the repro-leakage/1 baseline of
            # check_leakage_regression.py) share the BENCH_ prefix; this
            # gate only judges repro-bench/1 documents.
            try:
                schema = json.loads(baseline_path.read_text()).get("schema")
            except (OSError, json.JSONDecodeError) as exc:
                raise GateError(f"{baseline_path}: unreadable: {exc}") from exc
            if schema != SCHEMA:
                print(f"skipping {baseline_path.name} (schema {schema!r})")
                continue
            baseline_doc = load_bench(baseline_path)
            compared += 1
            candidate_path = args.candidate / baseline_path.name
            print(f"{baseline_doc['bench']}:")
            if not candidate_path.exists():
                print(f"  FAIL candidate artifact {candidate_path} missing")
                failures += 1
                continue
            candidate_doc = load_bench(candidate_path)
            if candidate_doc["bench"] != baseline_doc["bench"]:
                raise GateError(
                    f"{candidate_path}: bench name mismatch "
                    f"({candidate_doc['bench']!r} vs {baseline_doc['bench']!r})"
                )
            passed, lines = compare(baseline_doc, candidate_doc)
            print("\n".join(lines))
            if not passed:
                failures += 1
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if failures:
        print(f"\nperf gate: {failures} bench(es) regressed")
        return 1
    if not compared:
        print("\nperf gate: no repro-bench/1 baselines to compare", file=sys.stderr)
        return 2
    print(f"\nperf gate: all {compared} bench(es) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
