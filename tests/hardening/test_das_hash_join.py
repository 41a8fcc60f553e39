"""The hardened DAS client join, on generated relations.

Under hardening the client receives the two padded etuple tables and
evaluates q_C as a hash join after discarding dummies.  Hypothesis draws
the shapes a join goes wrong on — duplicate and skewed join values,
unicode and 64-bit/negative keys, disjoint domains (every real row is
unmatched), an empty side, a single-value domain, dummy-heavy buckets —
and every example must equal a nested-loop join written here (and the
reference join), under both partition strategies, with one bucket and
with more buckets than values, over the bus and over
TCP, with the same transcript on both carriers.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DASConfig, Federation, reference_join, run_join_query
from repro.core import das
from repro.errors import IntegrityError
from repro.hardening import MARKER_DUMMY, PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.relational.encoding import encode_relation
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import RetryPolicy, TcpTransport, codec

QUERY = "select * from R1 natural join R2"
RETRY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                    io_timeout=30.0)
#: Small frames: most examples need more than one per relation.
POLICY = PaddingPolicy(batch_size=4)
SHAPES = ["skewed", "disjoint", "empty_side", "single_value", "dummy_heavy"]

KEYS = {
    "int": st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.sampled_from([-(2**63), 2**63 - 1, -(2**31), 2**32]),
    ),
    "string": st.text(max_size=5),  # NULL-free unicode, "" included
}


@st.composite
def relation_pairs(draw):
    """(key type, rows of R1, rows of R2) in one of :data:`SHAPES`."""
    kind = draw(st.sampled_from(sorted(KEYS)))
    keys = draw(st.lists(KEYS[kind], min_size=2, max_size=6, unique=True))
    shape = draw(st.sampled_from(SHAPES))
    pools = [keys, keys]
    if shape == "disjoint":
        split = draw(st.integers(min_value=1, max_value=len(keys) - 1))
        pools = [keys[:split], keys[split:]]
    elif shape == "empty_side":
        pools[draw(st.integers(min_value=0, max_value=1))] = []
    elif shape == "single_value":
        pools = [keys[:1], keys[:1]]
    elif shape == "skewed":
        pools = [draw(st.lists(st.sampled_from(keys), unique=True)) for _ in pools]

    def rows(pool):
        out = []
        for rank, key in enumerate(pool):
            if shape == "dummy_heavy":  # one hot value sets the bucket bound
                copies = 5 if rank == 0 else 1
            else:
                copies = draw(st.integers(min_value=1, max_value=3))
            out.extend((key, draw(st.text(max_size=4))) for _ in range(copies))
        return out

    return kind, rows(pools[0]), rows(pools[1])


def build(ca, client, relations, network):
    federation = Federation(ca=ca, network=network)
    for name, relation in zip(("S1", "S2"), relations):
        federation.add_source(name, [(relation, allow_all())])
    federation.attach_client(client)
    return federation


def profile(network):
    """The transcript as both carriers must produce it: routing and kind
    of every message, rows and encoded size (net of the random index
    identifiers' own widths) of every result frame."""
    lines = []
    for message in network.transcript:
        line = (message.sender, message.receiver, message.kind)
        if message.kind == "das_server_result":
            identifiers = sum(
                codec.encoded_size(index_value)
                for index_value in message.body.index_values
            )
            line += (
                len(message.body),
                codec.encoded_size(message.body) - identifiers,
            )
        lines.append(line)
    return lines


@pytest.mark.parametrize(
    "strategy, buckets",
    [
        pytest.param("equi_depth", 2, id="equi_depth"),
        pytest.param("singleton", 2, id="singleton"),
        pytest.param("equi_depth", 1, id="equi_depth-one-bucket"),
        pytest.param("equi_depth", 16, id="equi_depth-more-buckets-than-values"),
    ],
)
@given(pair=relation_pairs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_hardened_das_equals_a_nested_loop_join_on_both_carriers(
    ca, client, strategy, buckets, pair
):
    kind, rows_1, rows_2 = pair
    relations = (
        Relation(schema("R1", k=kind, a="string"), rows_1),
        Relation(schema("R2", k=kind, b="string"), rows_2),
    )
    expected = sorted(  # Relation() has set semantics: join its rows
        {
            row_1 + row_2[1:] for row_1 in relations[0] for row_2 in relations[1]
            if row_1[0] == row_2[0]
        }
    )
    config = DASConfig(strategy=strategy, buckets=buckets)
    profiles = []
    with TcpTransport(retry=RETRY) as transport:
        for network in (Network(), transport):
            federation = build(ca, client, relations, network)
            result = run_join_query(
                federation, QUERY, protocol="das", config=config,
                hardening=POLICY,
            )
            assert sorted(result.global_result) == expected
            assert encode_relation(result.global_result) == encode_relation(
                reference_join(build(ca, client, relations, Network()), QUERY)
            )
            artifacts = result.artifacts
            real = len(relations[0]) + len(relations[1])
            assert artifacts["server_result_size"] == (
                real + artifacts["dummy_rows_discarded"]
            )
            assert 0 <= artifacts["false_positives"] <= real
            profiles.append(profile(network))
    assert profiles[0] == profiles[1]
    kinds = [line[2] for line in profiles[0]]
    assert kinds.index("das_server_query") < kinds.index("das_server_result")
    assert set(kinds[kinds.index("das_server_result"):]) == {"das_server_result"}


class TamperingNetwork(Network):
    """The bus, flipping one byte of one etuple body in transit: in the
    first ``das_server_result`` frame holding a row of the victim kind
    (real or dummy, told apart with the client's keys)."""

    def __init__(self, client, victim: str) -> None:
        super().__init__()
        self.client = client
        self.victim = victim
        self.tampered = False

    def send(self, sender, receiver, kind, body):
        if kind == "das_server_result" and not self.tampered:
            body = self.flip(body)
        return super().send(sender, receiver, kind, body)

    def flip(self, frame):
        plaintexts = self.client.decrypt_hybrid_bodies(
            frame.encapsulation, frame.bodies
        )
        for position, plaintext in enumerate(plaintexts):
            if (plaintext[0] == MARKER_DUMMY) == (self.victim == "dummy"):
                bodies = list(frame.bodies)
                body = bytearray(bodies[position])
                body[len(body) // 2] ^= 0x01
                bodies[position] = bytes(body)
                frame = das.EncryptedRows(
                    frame.encapsulation, tuple(bodies), frame.index_values
                )
                self.tampered = True
                break
        return frame


@pytest.mark.parametrize("victim", ["real", "dummy"])
def test_a_flipped_etuple_byte_is_a_typed_failure(
    ca, client, skewed_workload, victim
):
    """A result frame changed in transit ends the query — whether the
    flipped etuple hid a real row or a dummy, the client joins what it
    received and never just drops it."""
    relations = (skewed_workload.relation_1, skewed_workload.relation_2)
    network = TamperingNetwork(client, victim)
    federation = build(ca, client, relations, network)
    with pytest.raises(IntegrityError):
        run_join_query(federation, QUERY, protocol="das", hardening=True)
    assert network.tampered


@pytest.mark.parametrize("empty", [0, 1])
def test_an_empty_side_is_one_empty_frame_and_the_empty_join(
    ca, client, skewed_workload, empty
):
    """A side with no rows still sends one (empty) frame, so the client
    sees a single encapsulation: the join is empty, every real row of
    the other side is unmatched, and its dummies are discarded."""
    relations = [skewed_workload.relation_1, skewed_workload.relation_2]
    relations[empty] = Relation(relations[empty].schema, [])
    federation = build(ca, client, relations, Network())
    result = run_join_query(
        federation, QUERY, protocol="das", hardening=POLICY
    )
    assert len(result.global_result) == 0
    assert encode_relation(result.global_result) == encode_relation(
        reference_join(build(ca, client, relations, Network()), QUERY)
    )
    frames = [m.body for m in result.messages if m.kind == "das_server_result"]
    assert frames[-1 if empty else 0] == []
    real = len(relations[1 - empty])
    artifacts = result.artifacts
    assert artifacts["false_positives"] == real
    assert artifacts["server_result_size"] == sum(map(len, frames)) == (
        real + artifacts["dummy_rows_discarded"]
    )
    assert artifacts["dummy_rows_discarded"] == (
        artifacts["hardening"]["dummy_items_total"]
    ) > 0
