"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.cli import main

FAST_WORKLOAD = ["--domain", "4", "--overlap", "2", "--rows-per-value", "1"]
FAST = [*FAST_WORKLOAD, "--rsa-bits", "1024", "--paillier-bits", "768"]


class TestDemo:
    def test_runs_and_prints_result(self, capsys):
        assert main(["demo", "--protocol", "commutative", *FAST]) == 0
        out = capsys.readouterr().out
        assert "R1_join_R2" in out
        assert "protocol: commutative" in out

    def test_das_protocol(self, capsys):
        assert main(["demo", "--protocol", "das", *FAST]) == 0
        assert "das[client]" in capsys.readouterr().out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "--protocol", "nope"])


class TestCompare:
    def test_prints_table(self, capsys):
        assert main(["compare", *FAST]) == 0
        out = capsys.readouterr().out
        assert "das[client]" in out
        assert "commutative" in out
        assert "private-matching" in out


class TestLeakage:
    def test_prints_both_tables(self, capsys):
        assert main(["leakage", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "hashfunction" in out


class TestAudit:
    def test_emits_valid_json(self, capsys):
        assert main(["audit", "--protocol", "commutative", *FAST]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["protocol"] == "commutative"
        assert record["transcript"]

    def test_differential_emits_leakage_artifact(self, capsys):
        assert main(["audit", "--differential", *FAST]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-leakage/1"
        assert document["transport"] == "bus"
        assert set(document["protocols"]) == {
            "commutative", "das", "private-matching",
        }
        assert document["gate"]

    def test_differential_out_writes_file_and_summary(self, tmp_path, capsys):
        artifact = str(tmp_path / "leakage.json")
        assert main([
            "audit", "--differential", "--canary", "--out", artifact, *FAST,
        ]) == 0
        out = capsys.readouterr().out
        assert "Differential leakage audit" in out
        document = json.loads((tmp_path / "leakage.json").read_text())
        assert document["canary"] is True


class TestWorkloadAndQuery:
    def test_workload_then_query(self, tmp_path, capsys):
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        assert main(["workload", out1, out2, *FAST_WORKLOAD]) == 0
        capsys.readouterr()
        assert main(["query", out1, out2, "--protocol", "commutative",
                     "--rsa-bits", "1024", "--paillier-bits", "768"]) == 0
        out = capsys.readouterr().out
        assert "R1_join_R2" in out

    def test_query_with_sql_and_output(self, tmp_path, capsys):
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        main(["workload", out1, out2, *FAST_WORKLOAD])
        capsys.readouterr()
        result_path = str(tmp_path / "join.csv")
        assert main([
            "query", out1, out2,
            "--sql", "select k from R1 natural join R2",
            "--output", result_path,
            "--rsa-bits", "1024", "--paillier-bits", "768",
        ]) == 0
        from repro.relational import csvio

        joined = csvio.load("J", result_path)
        assert joined.schema.names() == ("k",)

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServe:
    def test_sigterm_is_a_clean_stop(self, tmp_path):
        database = tmp_path / "mediator.db"
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "mediator",
                "--port", "0", "--storage", f"sqlite:{database}",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        watchdog = threading.Timer(60, process.kill)
        watchdog.start()
        try:
            for line in process.stderr:
                if "listening on" in line:
                    break
            else:
                pytest.fail("serve exited before it was listening")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=5) == 0
            assert "0 messages received, bye" in process.stderr.read()
            # A closed SQLite store checkpoints and removes its WAL.
            assert database.exists()
            assert not database.with_name("mediator.db-wal").exists()
        finally:
            watchdog.cancel()
            process.kill()
            process.wait()
