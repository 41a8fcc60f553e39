"""Smoke test of the layered benchmark (run by explicit path, not tier-1):

    PYTHONPATH=src python -m pytest -q benchmarks/layers/test_layers_bench.py

Runs the whole benchmark twice in ``--quick`` mode (768-bit keys, two
queries per pass) and checks its shape, not its numbers.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Counts that must repeat exactly when the seed does.
EXACT = (
    ("end_to_end", "messages_per_query"),
    ("per_layer", "crypto.modexp_ops"),
    ("per_layer", "storage.hits"),
    ("per_layer", "storage.misses"),
    ("per_layer", "storage.puts"),
    ("per_layer", "storage.errors"),
)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    documents = []
    for index in range(2):
        out = tmp_path_factory.mktemp("layers") / f"quick-{index}.json"
        assert run.main(["--quick", "--seed", "11", "--out", str(out)]) == 0
        documents.append(json.loads(out.read_text()))
    return documents


def test_every_declared_metric_once_per_workload(quick_runs):
    document = quick_runs[0]
    assert sorted(document["workloads"]) == sorted(run.WORKLOAD_NAMES)
    for name, result in document["workloads"].items():
        assert sorted(result["end_to_end"]) == sorted(run.END_TO_END), name
        assert sorted(result["per_layer"]) == sorted(run.PER_LAYER), name
        assert result["failed"] == 0


def test_metric_and_workload_names_are_plain():
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_quick_output_is_marked_not_comparable(quick_runs):
    for document in quick_runs:
        assert document["comparable"] is False
        assert document["context"]["key_bits"] < 2048


def test_same_seed_repeats_the_exact_counts(quick_runs):
    first, second = quick_runs
    for name in run.WORKLOAD_NAMES:
        for section, metric in EXACT:
            assert (
                first["workloads"][name][section][metric]
                == second["workloads"][name][section][metric]
            ), (name, metric)


def test_predicted_absent_cells_are_zero(quick_runs):
    document = quick_runs[0]
    layers = {name: w["per_layer"] for name, w in document["workloads"].items()}
    assert layers["comm_warm_tcp"]["crypto.commutative_ops"] == 0
    assert layers["comm_warm_tcp"]["storage.hit_ratio"] == 1.0
    for name in ("comm_cold_bus", "pm_cold_bus", "das_hardened_tcp"):
        assert layers[name]["storage.hits"] + layers[name]["storage.puts"] == 0
    for name in run.WORKLOAD_NAMES:
        hardened = layers[name]["hardening.frames"] > 0
        assert hardened == (name == "das_hardened_tcp")
    for name in ("comm_cold_bus", "pm_cold_bus"):
        assert layers[name]["transport.frames"] == 0


@pytest.mark.parametrize("trace,catalogue", [("0", "END_TO_END"), ("1", "PER_LAYER")])
def test_contract_line_and_wrapper_removal(capsys, trace, catalogue):
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute in layertrace.wrapped_targets()
    ]
    argv = ["--quick", "--workload", "das_fill_tcp", "--seed", "5", "--trace", trace]
    assert run.main(argv) == 0
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, (owner, attribute)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = getattr(run, catalogue)
    assert sorted(line["metrics"]) == sorted(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float))
