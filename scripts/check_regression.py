#!/usr/bin/env python3
"""CI regression gate: fresh artifacts against committed ``BENCH_*.json``.

Two self-describing artifact families share one rule.  The
**baseline's** ``schema`` picks how a document flattens to named values:

* ``repro-bench/1`` (``benchmarks/conftest.py``) — its ``metrics`` map;
* ``repro-leakage/1`` (``repro audit --differential``, see
  ``docs/observability.md``) — per protocol and adversary, the
  ``distances`` between two adjacent workloads' observables, keyed
  ``protocol/adversary/metric``.  Baseline and candidate must describe
  the same audit: workload, hardened flag, and transport (a baseline
  labelled ``"any"`` gates either carrier).

The baseline's ``gate`` names the regression-gated values and how:

* ``direction: "max"`` — bigger is worse; the candidate must stay at or
  below ``baseline * (1 + tolerance) + slack``,
* ``direction: "min"`` — bigger is better; the candidate must stay at
  or above ``baseline * (1 - tolerance) - slack``.

The absolute ``slack`` keeps a zero baseline — common for leakage
distances — from making the gate infinitely strict.  A gated value
missing from the candidate fails; ungated values are reported only.
Only host-independent metrics (ratios, counts, distances) should be
gated: absolute wall-clock differs between the baseline host and CI.

Usage::

    # every repro-bench/1 baseline in a directory against its namesake
    python scripts/check_regression.py \\
        --baseline benchmarks/baselines --candidate benchmarks/out
    # one artifact against one baseline
    python scripts/check_regression.py \\
        --baseline benchmarks/baselines/BENCH_leakage_audit.json \\
        --candidate benchmarks/out/BENCH_leakage_audit.json

``--expect-fail`` inverts the verdict: the leakage job audits the
deliberately size-leaking canary transport and requires the gate to
fail on it — a gate that cannot detect a planted channel is vacuous.

Exit codes: 0 the gate passed (or, with ``--expect-fail``, failed),
1 regression, missing candidate, or an unexpected canary pass, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCH = "repro-bench/1"
LEAKAGE = "repro-leakage/1"

#: Top-level keys every document of a schema must carry.
REQUIRED = {
    BENCH: ("bench", "metrics", "gate"),
    LEAKAGE: ("transport", "protocols", "gate"),
}


class GateError(Exception):
    """Malformed artifact or gate declaration."""


def load(path: pathlib.Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: unreadable artifact: {exc}") from exc
    schema = document.get("schema")
    if schema not in REQUIRED:
        raise GateError(f"{path}: unknown schema {schema!r}")
    for key in REQUIRED[schema]:
        if key not in document:
            raise GateError(f"{path}: missing {key!r}")
    return document


def check_metric(
    name: str, rule: dict, baseline: float, candidate: float
) -> tuple[bool, str]:
    """Apply one gate rule; returns (passed, human verdict line)."""
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


def bench_metrics(document: dict) -> dict:
    """A ``repro-bench/1`` document's ``metrics`` map."""
    if "metrics" not in document:
        raise GateError("bench document is missing 'metrics'")
    return document["metrics"]


def flatten_distances(document: dict) -> dict[str, float]:
    """A ``repro-leakage/1`` document as ``protocol/adversary/metric`` keys."""
    if "protocols" not in document:
        raise GateError("leakage document is missing 'protocols'")
    return {
        f"{protocol}/{adversary}/{metric}": value
        for protocol, entry in document["protocols"].items()
        for adversary, audit in entry.get("adversaries", {}).items()
        for metric, value in audit.get("distances", {}).items()
    }


def check_same_audit(baseline_doc: dict, candidate_doc: dict) -> None:
    """Leakage distances compare only between runs of one audit."""
    if (
        baseline_doc["transport"] != "any"
        and candidate_doc["transport"] != baseline_doc["transport"]
    ):
        raise GateError(
            f"transport mismatch: baseline {baseline_doc['transport']!r} "
            f"vs candidate {candidate_doc['transport']!r}"
        )
    if bool(candidate_doc.get("hardened")) != bool(baseline_doc.get("hardened")):
        raise GateError(
            f"hardened-flag mismatch: baseline "
            f"hardened={bool(baseline_doc.get('hardened'))} vs candidate "
            f"hardened={bool(candidate_doc.get('hardened'))}; compare "
            f"like against like"
        )
    if candidate_doc.get("workload") != baseline_doc.get("workload"):
        raise GateError(
            "workload mismatch: baseline and candidate audited different "
            "inputs; regenerate the baseline"
        )


def compare(baseline_doc: dict, candidate_doc: dict) -> tuple[bool, list[str]]:
    schema = baseline_doc.get("schema")
    if schema == BENCH:
        flatten = bench_metrics
    elif schema == LEAKAGE:
        check_same_audit(baseline_doc, candidate_doc)
        flatten = flatten_distances
    else:
        raise GateError(f"unknown baseline schema {schema!r}")
    if "gate" not in baseline_doc:
        raise GateError("baseline document is missing 'gate'")
    gate = baseline_doc["gate"]
    base = flatten(baseline_doc)
    candidate = flatten(candidate_doc)
    lines: list[str] = []
    all_passed = True
    for name in sorted(gate):
        if name not in base:
            raise GateError(f"gated metric {name!r} missing from baseline")
        if name not in candidate:
            all_passed = False
            lines.append(f"  FAIL {name:32s} missing from candidate run")
            continue
        try:
            values = float(base[name]), float(candidate[name])
        except (TypeError, ValueError) as exc:
            raise GateError(
                f"gated metric {name!r} is not numeric "
                f"(baseline {base[name]!r}, candidate {candidate[name]!r})"
            ) from exc
        passed, line = check_metric(name, gate[name], *values)
        all_passed &= passed
        lines.append(line)
    for name in sorted(set(candidate) - set(gate)):
        try:
            rendered = f"{float(candidate[name]):>10g}"
        except (TypeError, ValueError):
            rendered = repr(candidate[name])
        lines.append(f"  info {name:32s} candidate {rendered}  (ungated)")
    return all_passed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, type=pathlib.Path,
        help="a committed baseline, or a directory of repro-bench/1 ones",
    )
    parser.add_argument(
        "--candidate", required=True, type=pathlib.Path,
        help="the fresh artifact, or the directory holding its namesakes",
    )
    parser.add_argument(
        "--expect-fail", action="store_true",
        help="invert the verdict: exit 0 only when the gate FAILS "
             "(the seeded-canary check)",
    )
    args = parser.parse_args(argv)

    directory = args.baseline.is_dir()
    if directory:
        pairs = [
            (path, args.candidate / path.name)
            for path in sorted(args.baseline.glob("BENCH_*.json"))
        ]
    else:
        pairs = [(args.baseline, args.candidate)]

    failures = compared = 0
    try:
        for baseline_path, candidate_path in pairs:
            baseline_doc = load(baseline_path)
            if directory and baseline_doc["schema"] != BENCH:
                # Leakage baselines gate candidates of their own audit
                # flags, one file at a time.
                print(f"skipping {baseline_path.name} ({baseline_doc['schema']})")
                continue
            compared += 1
            print(f"{baseline_path.name}:")
            if not candidate_path.exists():
                print(f"  candidate artifact {candidate_path} missing")
                return 1
            candidate_doc = load(candidate_path)
            if candidate_doc["schema"] != baseline_doc["schema"] or (
                candidate_doc.get("bench") != baseline_doc.get("bench")
            ):
                raise GateError(
                    f"{candidate_path}: not a {baseline_doc['schema']} "
                    f"{baseline_doc.get('bench')!r} artifact"
                )
            passed, lines = compare(baseline_doc, candidate_doc)
            print("\n".join(lines))
            failures += not passed
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not compared:
        print(f"no repro-bench/1 baselines under {args.baseline}", file=sys.stderr)
        return 2

    if args.expect_fail:
        if not failures:
            print("\ngate: PASSED but was expected to fail — the canary "
                  "leak went undetected")
            return 1
        print("\ngate: failed as expected (canary detected)")
        return 0
    if failures:
        print(f"\ngate: {failures} of {compared} artifact(s) regressed")
        return 1
    print(f"\ngate: all {compared} artifact(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
