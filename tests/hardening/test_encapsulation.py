"""Which ciphertexts may share a key encapsulation in hardened mode.

The rule (``docs/security.md``): one encapsulation per sender and epoch,
except where a third party must mint look-alikes.

* Hardened **DAS**: a source's real etuples, its bucket-padding dummies
  and its encrypted index table all carry the *same* encapsulation —
  cold, and warm from a persistent store.  A second encapsulation for
  the dummies would mark them.
* Hardened **commutative**: the mediator tops the result channel up with
  dummy pairs it encrypts itself and cannot reference a source's
  session, so every ciphertext on that channel carries an encapsulation
  of its own — all wrapped-key blobs are pairwise distinct.
"""

import pytest

from repro import Federation, run_join_query
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.storage import SQLiteBackend

QUERY = "select * from R1 natural join R2"


def build(ca, client, workload, storage=None):
    federation = Federation(ca=ca, storage=storage)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def das_encapsulations(result) -> dict[str, set[bytes]]:
    """Source -> digests of every encapsulation it put on the wire."""
    found: dict[str, set[bytes]] = {}
    for message in result.network.messages_of_kind("das_encrypted_partial_result"):
        digests = {
            row.etuple.wrapped_keys.digest()
            for row in message.body["relation"].rows
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
        frames = result.network.messages_of_kind("das_server_result")
        assert len(frames) > 2
        owners = []
        for frame in frames:
            digests = {row.etuple.wrapped_keys.digest() for row in frame.body}
            assert len({len(row.etuple.body) for row in frame.body}) == 1
            (owner,) = [name for name in sources if sources[name] == digests]
            owners.append(owner)
        # S1's table first, then S2's: frames never mix the two.
        assert owners == sorted(owners) and set(owners) == {"S1", "S2"}


class TestHardenedCommutativeResultChannelIsPerCiphertext:
    @pytest.mark.parametrize("storage", [None, "sqlite"])
    def test_every_wrapped_key_blob_is_distinct(
        self, ca, client, skewed_workload, tmp_path, storage
    ):
        backend = (
            None if storage is None
            else SQLiteBackend(str(tmp_path / "hardened-comm.db"))
        )
        try:
            for _ in range(2):  # the second run is warm when stored
                federation = build(ca, client, skewed_workload, storage=backend)
                result = run_join_query(
                    federation, QUERY, protocol="commutative", hardening=True
                )
                # Dummy pairs were needed, so look-alikes are on the wire.
                assert result.artifacts["hardening"]["dummy_items_total"] > 0
                blobs = [
                    blob
                    for frame in result.network.messages_of_kind(
                        "commutative_result"
                    )
                    for pair in frame.body
                    for ciphertext in pair
                    for blob in ciphertext.wrapped_keys.values()
                ]
                assert blobs
                assert len(set(blobs)) == len(blobs)
        finally:
            if backend is not None:
                backend.close()
