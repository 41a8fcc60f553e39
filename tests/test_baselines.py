"""Tests for the two-party baseline protocols ([1], [12])."""

import pytest

from repro.baselines import (
    two_party_equijoin,
    two_party_intersection,
    two_party_private_matching,
)
from repro.relational.algebra import natural_join
from repro.relational.relation import Relation
from repro.relational.schema import schema

S_R = schema("VR", k="int", a="string")
S_S = schema("VS", k="int", b="string")

R_RELATION = Relation(S_R, [(1, "a1"), (2, "a2"), (2, "a2b"), (3, "a3")])
S_RELATION = Relation(S_S, [(2, "b2"), (3, "b3"), (4, "b4")])


class TestAgrawalIntersection:
    def test_basic(self):
        result = two_party_intersection(
            {(1,), (2,), (3,)}, {(2,), (3,), (4,)}
        )
        assert result.intersection == ((2,), (3,))

    def test_empty_intersection(self):
        result = two_party_intersection({(1,)}, {(9,)})
        assert result.intersection == ()

    def test_identical_sets(self):
        keys = {(1,), (7,), (9,)}
        result = two_party_intersection(keys, keys)
        assert set(result.intersection) == keys

    def test_string_keys(self):
        result = two_party_intersection(
            {("ada",), ("bob",)}, {("bob",), ("eve",)}
        )
        assert result.intersection == (("bob",),)

    def test_cardinalities_disclosed(self):
        result = two_party_intersection({(1,), (2,)}, {(2,), (3,), (4,)})
        assert result.receiver_set_size == 2
        assert result.sender_set_size == 3

    def test_transcript_has_three_messages(self):
        result = two_party_intersection({(1,)}, {(1,)})
        kinds = [m.kind for m in result.network.transcript]
        assert kinds == [
            "blinded_set", "blinded_set", "double_encrypted_pairs",
        ]


class TestAgrawalEquijoin:
    def test_matches_reference_join(self):
        result = two_party_equijoin(R_RELATION, S_RELATION, ("k",))
        assert result.joined == natural_join(R_RELATION, S_RELATION)
        assert result.intersection == ((2,), (3,))

    def test_empty_join(self):
        disjoint = Relation(S_S, [(9, "b9")])
        result = two_party_equijoin(R_RELATION, disjoint, ("k",))
        assert len(result.joined) == 0

    def test_unmatched_sender_values_stay_sealed(self):
        """The receiver's view contains the sender's unmatched tuple sets
        only as unopened ciphertext: the plaintext never appears."""
        from repro.analysis.views import view_material

        result = two_party_equijoin(R_RELATION, S_RELATION, ("k",))
        receiver_view = result.network.view("receiver")
        material = view_material(receiver_view)
        assert b"b4" not in material  # value 4 did not match

    def test_receiver_learns_intersection_values(self):
        """The key trust difference to the mediated protocol: the
        *receiver party* (a datasource role) learns the shared values."""
        result = two_party_equijoin(R_RELATION, S_RELATION, ("k",))
        assert result.intersection  # plaintext join keys at the receiver


class TestFNPPrivateMatching:
    @pytest.fixture(scope="class")
    def scheme(self, paillier_scheme):
        return paillier_scheme

    def test_basic_matching(self, scheme):
        result = two_party_private_matching(
            scheme,
            {(1,), (2,), (3,)},
            {(2,): b"payload-2", (4,): b"payload-4"},
        )
        assert set(result.matches) == {(2,)}
        assert result.matches[(2,)] == b"payload-2"

    def test_no_payload(self, scheme):
        result = two_party_private_matching(
            scheme, {(5,)}, {(5,): None, (6,): None}
        )
        assert result.matches == {(5,): None}

    def test_empty_intersection(self, scheme):
        result = two_party_private_matching(
            scheme, {(1,)}, {(2,): b"x"}
        )
        assert result.matches == {}

    def test_sender_learns_only_degree(self, scheme):
        result = two_party_private_matching(
            scheme, {(1,), (2,)}, {(1,): b"x"}
        )
        coefficient_messages = [
            m for m in result.network.transcript
            if m.kind == "encrypted_coefficients"
        ]
        # Degree (= chooser set size) is visible; nothing else is sent
        # from chooser to sender beyond the public key.
        # The leading coefficient is the public (-1)^n and is not sent.
        assert len(coefficient_messages[0].body) == 2  # degree 2

    def test_unmatched_payloads_unrecoverable(self, scheme):
        result = two_party_private_matching(
            scheme, {(1,)}, {(2,): b"secret-payload"}
        )
        assert not result.matches

    def test_string_keys_with_payloads(self, scheme):
        result = two_party_private_matching(
            scheme,
            {("ada",), ("eve",)},
            {("ada",): b"record-ada", ("bob",): b"record-bob"},
        )
        assert result.matches == {("ada",): b"record-ada"}


class TestBaselineProperties:
    """Hypothesis coverage of the two-party protocols."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    keys = st.sets(
        st.tuples(st.integers(min_value=0, max_value=30)), max_size=10
    )

    @given(receiver=keys, sender=keys)
    @settings(max_examples=15, deadline=None)
    def test_intersection_exact(self, receiver, sender):
        result = two_party_intersection(receiver, sender)
        assert set(result.intersection) == receiver & sender

    @given(
        rows_r=st.lists(
            st.tuples(st.integers(0, 8), st.text(max_size=3)), max_size=6
        ),
        rows_s=st.lists(
            st.tuples(st.integers(0, 8), st.text(max_size=3)), max_size=6
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_equijoin_matches_reference(self, rows_r, rows_s):
        r = Relation(S_R, rows_r)
        s = Relation(S_S, rows_s)
        result = two_party_equijoin(r, s, ("k",))
        assert result.joined == natural_join(r, s)


class TestBaselineVsMediated:
    """The structural comparison the baselines exist for."""

    def test_mediated_client_never_sees_source_sets(self, ca, client, workload):
        """In the two-party baseline the receiver (a data party) learns
        the intersection *values*; in the mediated protocol the matching
        party (the mediator) learns only counts."""
        from repro import Federation, run_join_query
        from repro.analysis.leakage import analyze
        from repro.mediation.access_control import allow_all

        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, "select * from R1 natural join R2",
            protocol="commutative",
        )
        report = analyze(result)
        # Counts only: every mediator_learns entry is an integer.
        assert all(isinstance(v, int) for v in report.mediator_learns.values())

    def test_same_machinery_same_matches(self):
        """Baseline and mediated matching agree on the intersection."""
        keys_r = {(k,) for k in R_RELATION.active_domain("k")}
        keys_s = {(k,) for k in S_RELATION.active_domain("k")}
        baseline = two_party_intersection(keys_r, keys_s)
        assert set(baseline.intersection) == keys_r & keys_s
