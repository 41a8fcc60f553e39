"""Unit tests for the CI gate script's tolerance arithmetic and errors.

``scripts/check_regression.py`` is the last line of defence in CI, for
``repro-bench/1`` and ``repro-leakage/1`` baselines alike; a malformed
artifact must produce a clear :class:`GateError` (exit code 2), never a
bare ``KeyError`` traceback, and the bound arithmetic
(``baseline * (1 ± tolerance) ± slack``) must be exact in both
directions.
"""

import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import check_regression as regression  # noqa: E402
from check_regression import GateError, check_metric  # noqa: E402


def leakage_doc(transport="bus", hardened=False, distance=0.0, gate=None):
    return {
        "schema": regression.LEAKAGE,
        "transport": transport,
        "hardened": hardened,
        "workload": {"spec": {"seed": 7}},
        "protocols": {
            "das": {
                "adversaries": {
                    "network": {"distances": {"messages_tv": distance}}
                }
            }
        },
        "gate": gate if gate is not None else {
            "das/network/messages_tv": {
                "direction": "max", "tolerance": 0.0, "slack": 0.01,
            }
        },
    }


class TestCheckMetricArithmetic:
    def test_max_bound_is_baseline_scaled_plus_slack(self):
        rule = {"direction": "max", "tolerance": 0.25, "slack": 0.05}
        passed, _ = check_metric("m", rule, 1.0, 1.30)
        assert passed  # bound = 1.0 * 1.25 + 0.05 = 1.30 inclusive
        passed, line = check_metric("m", rule, 1.0, 1.3001)
        assert not passed and "FAIL" in line

    def test_min_bound_is_baseline_scaled_minus_slack(self):
        rule = {"direction": "min", "tolerance": 0.1, "slack": 0.2}
        passed, _ = check_metric("m", rule, 10.0, 8.8)
        assert passed  # bound = 10 * 0.9 - 0.2 = 8.8 inclusive
        passed, _ = check_metric("m", rule, 10.0, 8.79)
        assert not passed

    def test_zero_baseline_zero_slack_is_exact(self):
        rule = {"direction": "max", "tolerance": 0.0, "slack": 0.0}
        assert check_metric("m", rule, 0.0, 0.0)[0]
        assert not check_metric("m", rule, 0.0, 1e-9)[0]

    def test_unknown_direction_is_a_gate_error(self):
        with pytest.raises(GateError, match="unknown direction"):
            check_metric("m", {"direction": "sideways"}, 1.0, 1.0)


class TestPerfCompareDiagnostics:
    BASE = {
        "schema": regression.BENCH,
        "gate": {"ratio": {"direction": "max", "tolerance": 0.1}},
        "metrics": {"ratio": 2.0},
    }

    def test_missing_gate_in_baseline_is_gate_error(self):
        with pytest.raises(GateError, match="missing 'gate'"):
            regression.compare(
                {"schema": regression.BENCH, "metrics": {}}, {"metrics": {}}
            )

    def test_missing_metrics_in_candidate_is_gate_error(self):
        with pytest.raises(GateError, match="missing 'metrics'"):
            regression.compare(self.BASE, {"bench": "x"})

    def test_non_numeric_gated_value_is_gate_error(self):
        candidate = {"metrics": {"ratio": "fast"}}
        with pytest.raises(GateError, match="not numeric"):
            regression.compare(self.BASE, candidate)

    def test_gated_metric_missing_from_candidate_fails_not_raises(self):
        passed, lines = regression.compare(self.BASE, {"metrics": {}})
        assert not passed
        assert any("missing from candidate" in line for line in lines)

    def test_within_tolerance_passes(self):
        passed, _ = regression.compare(self.BASE, {"metrics": {"ratio": 2.2}})
        assert passed


class TestLeakageCompare:
    def test_matching_documents_pass(self):
        passed, _ = regression.compare(leakage_doc(), leakage_doc())
        assert passed

    def test_distance_above_slack_fails(self):
        passed, lines = regression.compare(
            leakage_doc(), leakage_doc(distance=0.02)
        )
        assert not passed
        assert any("FAIL" in line for line in lines)

    def test_transport_mismatch_is_gate_error(self):
        with pytest.raises(GateError, match="transport mismatch"):
            regression.compare(leakage_doc("bus"), leakage_doc("tcp"))

    def test_any_transport_baseline_gates_both_carriers(self):
        for transport in ("bus", "tcp"):
            passed, _ = regression.compare(
                leakage_doc("any"), leakage_doc(transport)
            )
            assert passed, transport

    def test_hardened_flag_mismatch_is_gate_error(self):
        with pytest.raises(GateError, match="hardened-flag mismatch"):
            regression.compare(
                leakage_doc(hardened=True), leakage_doc(hardened=False)
            )

    def test_missing_protocols_is_gate_error_not_keyerror(self):
        document = leakage_doc()
        del document["protocols"]
        with pytest.raises(GateError, match="missing 'protocols'"):
            regression.flatten_distances(document)

    def test_gated_distance_missing_from_candidate_fails(self):
        candidate = leakage_doc()
        candidate["protocols"]["das"]["adversaries"] = {}
        passed, lines = regression.compare(leakage_doc(), candidate)
        assert not passed
        assert any("missing from candidate" in line for line in lines)

    def test_workload_mismatch_is_gate_error(self):
        candidate = leakage_doc()
        candidate["workload"] = {"spec": {"seed": 8}}
        with pytest.raises(GateError, match="workload mismatch"):
            regression.compare(leakage_doc(), candidate)


class TestLeakageMain:
    def write(self, tmp_path, name, document):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(document))
        return path

    def test_expect_fail_inverts_the_verdict(self, tmp_path, capsys):
        baseline = self.write(tmp_path, "base.json", leakage_doc())
        breach = self.write(
            tmp_path, "cand.json", leakage_doc(distance=0.5)
        )
        assert regression.main(
            ["--baseline", str(baseline), "--candidate", str(breach),
             "--expect-fail"]
        ) == 0
        assert regression.main(
            ["--baseline", str(baseline), "--candidate", str(baseline),
             "--expect-fail"]
        ) == 1

    def test_malformed_artifact_exits_2_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        good = self.write(tmp_path, "good.json", leakage_doc())
        assert regression.main(
            ["--baseline", str(bad), "--candidate", str(good)]
        ) == 2
        assert "unreadable" in capsys.readouterr().err


class TestDirectoryMode:
    def test_judges_bench_baselines_and_skips_leakage_ones(self, tmp_path):
        import json

        baselines, candidates = tmp_path / "base", tmp_path / "out"
        baselines.mkdir()
        candidates.mkdir()
        bench = {
            **TestPerfCompareDiagnostics.BASE, "bench": "x",
        }
        (baselines / "BENCH_x.json").write_text(json.dumps(bench))
        # No candidate of its own: the directory mode must not ask.
        (baselines / "BENCH_leakage.json").write_text(json.dumps(
            {**leakage_doc(), "bench": "leakage_audit"}
        ))
        argv = ["--baseline", str(baselines), "--candidate", str(candidates)]
        assert regression.main(argv) == 1  # BENCH_x candidate missing
        for ratio, verdict in ((2.1, 0), (2.5, 1)):
            (candidates / "BENCH_x.json").write_text(
                json.dumps({**bench, "metrics": {"ratio": ratio}})
            )
            assert regression.main(argv) == verdict, ratio
