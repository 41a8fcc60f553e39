"""Tests for the Table-1 leakage analysis (E1)."""

import pytest

from repro import DASConfig, run_join_query
from repro.analysis.leakage import analyze, table1, verify_no_plaintext_leak

QUERY = "select * from R1 natural join R2"
STRING_QUERY = "select * from clinic natural join lab"


@pytest.fixture(scope="module")
def das_result(make_federation_module, workload):
    return run_join_query(make_federation_module(workload), QUERY, protocol="das")


@pytest.fixture(scope="module")
def commutative_result(make_federation_module, workload):
    return run_join_query(
        make_federation_module(workload), QUERY, protocol="commutative"
    )


@pytest.fixture(scope="module")
def pm_result(make_federation_module, workload):
    return run_join_query(
        make_federation_module(workload), QUERY, protocol="private-matching"
    )


@pytest.fixture(scope="module")
def make_federation_module(ca, client):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def factory(workload):
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return factory


class TestDASRow:
    """Table 1, row 1: client gets a superset + index tables; the
    mediator learns |R_i| and |R_C|."""

    def test_mediator_learns_relation_sizes(self, das_result, workload):
        report = analyze(das_result)
        assert report.mediator_learns["|R1|"] == len(workload.relation_1)
        assert report.mediator_learns["|R2|"] == len(workload.relation_2)

    def test_mediator_learns_rc_size(self, das_result):
        report = analyze(das_result)
        assert report.mediator_learns["|R_C|"] == das_result.artifacts[
            "server_result_size"
        ]

    def test_rc_upper_bounds_result(self, das_result):
        report = analyze(das_result)
        assert report.mediator_learns["|R_C|"] >= len(das_result.global_result)

    def test_client_receives_superset_and_tables(self, das_result):
        report = analyze(das_result)
        assert (
            report.client_learns["superset_rows_received"]
            >= report.client_learns["exact_result_rows"]
        )
        assert report.client_learns["index_tables_received"] == 2


class TestHardenedDASRowCountsEveryFrame:
    """A hardened result travels in several ``das_server_result`` frames;
    the Table 1 cells are sums over them, never the last frame's size
    (with batch 64 on the 24/24 shape that read |R_C| = 64)."""

    @pytest.fixture(scope="class")
    def hardened(self, make_federation_module, workload):
        from repro.hardening import PaddingPolicy

        federation = make_federation_module(workload)
        result = run_join_query(
            federation, QUERY, protocol="das",
            hardening=PaddingPolicy(batch_size=2),
        )
        return result, federation.network

    def test_cells_sum_over_result_frames(self, hardened):
        result, network = hardened
        report = analyze(result)
        padded = [
            len(message.body["relation"])
            for message in network.messages_of_kind("das_encrypted_partial_result")
        ]
        frames = [len(m.body) for m in network.messages_of_kind("das_server_result")]
        # At least two frames per relation, so a last-frame reading is wrong.
        assert all(rows > 2 for rows in padded) and max(frames) == 2
        assert report.client_learns["superset_rows_received"] == sum(padded)
        assert sum(padded) == sum(frames) == result.artifacts["server_result_size"]
        assert report.mediator_learns["|R_C|"] == padded[0] * padded[1]
        assert any("implied" in note for note in report.notes)

    def test_unhardened_result_is_enumerated(self, das_result):
        report = analyze(das_result)
        assert any("enumerated" in note for note in report.notes)
        assert not any("implied" in note for note in report.notes)


class TestCommutativeRow:
    """Table 1, row 2: client gets only the exact result; the mediator
    learns |domactive| and the intersection size."""

    def test_mediator_learns_domain_sizes(self, commutative_result, workload):
        report = analyze(commutative_result)
        assert report.mediator_learns["|domactive@S1|"] == len(
            workload.relation_1.active_domain("k")
        )
        assert report.mediator_learns["|domactive@S2|"] == len(
            workload.relation_2.active_domain("k")
        )

    def test_mediator_learns_intersection(self, commutative_result, workload):
        report = analyze(commutative_result)
        dom_1 = set(workload.relation_1.active_domain("k"))
        dom_2 = set(workload.relation_2.active_domain("k"))
        assert report.mediator_learns["intersection_size"] == len(dom_1 & dom_2)

    def test_intersection_lower_bounds_result(self, commutative_result):
        report = analyze(commutative_result)
        assert report.mediator_learns["intersection_size"] <= len(
            commutative_result.global_result
        )

    def test_client_gets_exact_sets_only(self, commutative_result, workload):
        report = analyze(commutative_result)
        dom_1 = set(workload.relation_1.active_domain("k"))
        dom_2 = set(workload.relation_2.active_domain("k"))
        assert report.client_learns["matched_tuple_set_pairs"] == len(dom_1 & dom_2)


class TestPMRow:
    """Table 1, row 3: mediator learns |domactive| (polynomial degrees);
    client receives n + m values but deciphers only the join."""

    def test_mediator_learns_degrees(self, pm_result, workload):
        report = analyze(pm_result)
        assert report.mediator_learns["|domactive@S1|"] == len(
            workload.relation_1.active_domain("k")
        )
        assert report.mediator_learns["|domactive@S2|"] == len(
            workload.relation_2.active_domain("k")
        )

    def test_client_receives_all_encrypted_values(self, pm_result, workload):
        report = analyze(pm_result)
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert report.client_learns["encrypted_values_received"] == n + m


class TestPlaintextConfidentiality:
    """The shared claim: the mediator never sees plaintext tuples."""

    @pytest.fixture(scope="class")
    def string_results(self, make_federation_module, string_workload):
        return {
            protocol: run_join_query(
                make_federation_module(string_workload),
                STRING_QUERY,
                protocol=protocol,
            )
            for protocol in ("das", "commutative", "private-matching")
        }

    def test_no_leak_in_any_protocol(self, string_results, string_workload):
        relations = [string_workload.relation_1, string_workload.relation_2]
        for protocol, result in string_results.items():
            assert verify_no_plaintext_leak(result, relations) == [], protocol

    def test_mediator_setting_leaks(
        self, make_federation_module, string_workload
    ):
        result = run_join_query(
            make_federation_module(string_workload),
            STRING_QUERY,
            protocol="das",
            config=DASConfig(setting="mediator"),
        )
        leaks = verify_no_plaintext_leak(
            result, [string_workload.relation_1, string_workload.relation_2]
        )
        # Every join value in either active domain is exposed via the
        # plaintext index tables.
        assert len(leaks) > 0


class TestSessionKeySecrecy:
    """A source's per-epoch hybrid session key lives in that source's
    own store (next to its SRA exponent) and reaches no other sink."""

    @pytest.mark.parametrize("protocol", ["das", "commutative"])
    def test_session_key_reaches_no_sink_but_its_own_slot(
        self, ca, client, string_workload, tmp_path, caplog, protocol
    ):
        import logging
        import sqlite3

        from repro import Federation
        from repro.core.encapsulation import session_slot
        from repro.mediation.access_control import allow_all
        from repro.relational.encoding import encode_row
        from repro.storage import KIND_HYBRID_SESSION, IndexCache, SQLiteBackend
        from repro.storage.serialize import deserialize_session
        from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer
        from repro.transport import codec

        path = str(tmp_path / "secrecy.db")
        backend = SQLiteBackend(path)
        try:
            federation = Federation(ca=ca, storage=backend)
            relations = {
                "S1": string_workload.relation_1, "S2": string_workload.relation_2
            }
            for source, relation in relations.items():
                federation.add_source(source, [(relation, allow_all())])
            federation.attach_client(client)
            tracer, registry = Tracer(), MetricsRegistry()
            with caplog.at_level(logging.DEBUG), use_tracer(tracer), \
                    use_metrics(registry):
                result = run_join_query(federation, STRING_QUERY, protocol=protocol)

            slot = session_slot(client.credential_public_keys())
            secrets = []
            for source, relation in relations.items():
                blob = IndexCache(backend, source).get(
                    relation.name, KIND_HYBRID_SESSION, slot
                )
                key = deserialize_session(blob).key
                secrets += [key.master, key.cipher_key, key.mac_key]
            cached = sqlite3.connect(path).execute(
                "select kind, value from index_cache"
            ).fetchall()
        finally:
            backend.close()

        other_values = b"\x00".join(
            value for kind, value in cached if kind != KIND_HYBRID_SESSION
        )
        sinks = {
            "send bodies": b"\x00".join(
                codec.encode_value(message.body)
                for message in result.network.transcript
            ),
            "span attributes": repr(
                [span.to_dict() for span in tracer.spans]
            ).encode(),
            "metric labels": repr(registry.snapshot()).encode(),
            "log records": caplog.text.encode(),
            "other cache values": other_values,
        }
        for sink, material in sinks.items():
            for secret in secrets:
                for form in (secret, secret.hex().encode(), repr(secret).encode()):
                    assert form not in material, sink
        # And, as before, ciphertext is all the cache holds of the rows.
        for relation in relations.values():
            for row in relation:
                assert encode_row(row) not in other_values


class TestRendering:
    def test_table1_renders_all_rows(self, das_result, commutative_result, pm_result):
        text = table1([analyze(r) for r in (das_result, commutative_result, pm_result)])
        assert "das[client]" in text
        assert "commutative" in text
        assert "private-matching" in text
        assert "|R_C|" in text
