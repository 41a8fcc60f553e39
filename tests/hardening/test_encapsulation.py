"""Which ciphertexts may share a key encapsulation in hardened mode.

The rule (``docs/security.md``): one encapsulation per sender and epoch,
dummies included.  A second encapsulation for the dummies would mark
them.

* Hardened **DAS**: a source's real etuples, its bucket-padding dummies
  and its encrypted index table all carry the *same* encapsulation —
  cold, and warm from a persistent store.
* Hardened **commutative**: each source mints |M_i| dummy tuple sets
  under its session, and the mediator tops the result channel up by
  pairing S1's with S2's — every result pair references S1's
  encapsulation first and S2's second, so the client unwraps twice.
"""

import contextlib

import pytest

from repro import Federation, run_join_query
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.storage import SQLiteBackend
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"

POLICY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                     io_timeout=30.0)


def build(ca, client, workload, storage=None, network=None):
    carrier = {} if network is None else {"network": network}
    federation = Federation(ca=ca, storage=storage, **carrier)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def das_encapsulations(result) -> dict[str, set[bytes]]:
    """Source -> digests of every encapsulation it put on the wire."""
    found: dict[str, set[bytes]] = {}
    for message in result.messages:
        if message.kind != "das_encrypted_partial_result":
            continue
        digests = {
            etuple.wrapped_keys.digest()
            for etuple, _ in message.body["relation"].rows
        }
        digests.add(message.body["index_table"].wrapped_keys.digest())
        found[message.sender] = digests
    return found


class TestHardenedDasSharesOneEncapsulationPerSource:
    def test_rows_dummies_and_table_cold_and_warm(
        self, ca, client, skewed_workload, tmp_path
    ):
        backend = SQLiteBackend(str(tmp_path / "hardened-das.db"))
        try:
            runs = []
            for _ in range(2):  # cold fill, then warm from sqlite
                federation = build(ca, client, skewed_workload, storage=backend)
                result = run_join_query(
                    federation, QUERY, protocol="das", hardening=True
                )
                assert result.artifacts["hardening"]["dummy_items_total"] > 0
                runs.append(das_encapsulations(result))
            cold, warm = runs
            for source in ("S1", "S2"):
                assert len(cold[source]) == 1, source
                assert warm[source] == cold[source], source
            assert cold["S1"] != cold["S2"]
        finally:
            backend.close()

    def test_server_result_frames_reference_only_the_two_sources(
        self, ca, client, skewed_workload
    ):
        """Every forwarded etuple references its own source's single
        encapsulation, and dummies look like real rows: one encapsulation
        and one body length per frame, whatever the frame holds."""
        result = run_join_query(
            build(ca, client, skewed_workload), QUERY,
            protocol="das", hardening=PaddingPolicy(batch_size=8),
        )
        assert result.artifacts["dummy_rows_discarded"] > 0
        sources = das_encapsulations(result)
        frames = [m for m in result.messages if m.kind == "das_server_result"]
        assert len(frames) > 2
        owners = []
        for frame in frames:
            digests = {etuple.wrapped_keys.digest() for etuple, _ in frame.body}
            assert len({len(etuple.body) for etuple, _ in frame.body}) == 1
            (owner,) = [name for name in sources if sources[name] == digests]
            owners.append(owner)
        # S1's table first, then S2's: frames never mix the two.
        assert owners == sorted(owners) and set(owners) == {"S1", "S2"}


def commutative_encapsulations(result) -> dict[str, set[bytes]]:
    """Source -> digests of every encapsulation it put on the wire."""
    found: dict[str, set[bytes]] = {}
    for message in result.messages:
        if message.kind == "commutative_m_set":
            found.setdefault(message.sender, set()).update(
                payload.wrapped_keys.digest() for payload in message.body.payloads
            )
        elif message.kind == "commutative_dummies":
            found.setdefault(message.sender, set()).update(
                dummy.wrapped_keys.digest() for dummy in message.body
            )
    return found


class TestCommutativeSharesOneEncapsulation:
    def test_pairs_cold_and_warm(self, ca, client, skewed_workload, tmp_path):
        """Real tuple sets and the dummies the mediator pads with carry
        their source's one encapsulation, so no result ciphertext is
        told apart by the key it references."""
        backend = SQLiteBackend(str(tmp_path / "hardened-comm.db"))
        try:
            runs = []
            for _ in range(2):  # cold fill, then warm from sqlite
                federation = build(ca, client, skewed_workload, storage=backend)
                result = run_join_query(
                    federation, QUERY, protocol="commutative", hardening=True
                )
                # Dummy pairs were needed, so look-alikes are on the wire.
                assert result.artifacts["dummy_pairs_discarded"] > 0
                sources = commutative_encapsulations(result)
                for source in ("S1", "S2"):
                    assert len(sources[source]) == 1, source
                pairs = [
                    pair
                    for frame in result.messages
                    if frame.kind == "commutative_result"
                    for pair in frame.body
                ]
                assert pairs
                for position, source in enumerate(("S1", "S2")):
                    assert {
                        pair[position].wrapped_keys.digest() for pair in pairs
                    } == sources[source], source
                    assert len({len(pair[position].body) for pair in pairs}) == 1
                runs.append(sources)
            cold, warm = runs
            assert warm == cold
            assert cold["S1"] != cold["S2"]
        finally:
            backend.close()


class TestCommutativeUnwrapsTwice:
    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    def test_no_mediator_encryption(self, ca, client, skewed_workload, carrier):
        """The client unwraps each source's session once; every hybrid
        encryption of the run is a source's tuple set or dummy (|M_i| of
        each per source) under one key wrap per source, so the mediator
        encrypts nothing."""
        transport = (
            TcpTransport(retry=POLICY) if carrier == "tcp"
            else contextlib.nullcontext()
        )
        with transport as network:
            federation = build(ca, client, skewed_workload, network=network)
            result = run_join_query(
                federation, QUERY, protocol="commutative", hardening=True
            )
        counts = result.primitive_counter.counts
        domains = sum(result.artifacts["active_domain_sizes"].values())
        assert counts["rsa.decrypt"] == 2
        assert counts["rsa.encrypt"] == 2
        assert counts["hybrid.encrypt"] == 2 * domains
        assert result.artifacts["hardening"]["dummy_items_total"] == domains
