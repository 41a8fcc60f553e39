"""Tests for the one-shot evaluation report."""

import pytest

from repro.analysis.report import full_report

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def document(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def factory():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return full_report(
        factory, QUERY, [workload.relation_1, workload.relation_2]
    )


class TestFullReport:
    def test_contains_all_sections(self, document):
        for heading in (
            "## Correctness",
            "## Table 1",
            "## Table 2",
            "## Section 6",
            "## Conformance and confidentiality",
        ):
            assert heading in document

    def test_correctness_verdicts(self, document):
        assert "same global result: YES" in document
        assert "Row-level agreement across protocols: YES" in document

    def test_all_protocols_present(self, document):
        for protocol in ("das", "commutative", "private-matching"):
            assert f"- `{protocol}`: listing-conformant" in document

    def test_conformance_lines(self, document):
        assert document.count("listing-conformant=True") == 3
        assert document.count("plaintext-leaks=0") == 3

    def test_table2_content(self, document):
        assert "homomorphic encryption and random numbers" in document

    def test_is_markdown(self, document):
        assert document.startswith("# ")
        assert "```" in document


class TestCLIReport:
    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        output = str(tmp_path / "report.md")
        code = main([
            "report", "--output", output,
            "--domain", "4", "--overlap", "2", "--rows-per-value", "1",
            "--rsa-bits", "1024", "--paillier-bits", "1024",
        ])
        assert code == 0
        with open(output, encoding="utf-8") as handle:
            content = handle.read()
        assert "## Table 1" in content
