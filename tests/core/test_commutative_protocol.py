"""Tests for the commutative-encryption delivery phase (Listing 3)."""

import pytest

from repro import CommutativeConfig, Federation, run_join_query
from repro.core import commutative
from repro.core.joinkeys import active_key_domain
from repro.crypto.commutative import CommutativeGroup
from repro.crypto.groups import KNOWN_SAFE_PRIMES
from repro.crypto.numtheory import generate_safe_prime
from repro.errors import ProtocolError
from repro.mediation.access_control import allow_all
from repro.mediation.network import ENVELOPE_BYTES, Network
from repro.relational.algebra import natural_join
from repro.relational.datagen import WorkloadSpec, generate
from repro.transport import TcpTransport

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def expected(workload):
    return natural_join(workload.relation_1, workload.relation_2)


class TestCorrectness:
    def test_matches_reference(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.global_result == expected

    def test_string_join(self, make_federation, string_workload):
        result = run_join_query(
            make_federation(string_workload),
            "select * from clinic natural join lab",
            protocol="commutative",
        )
        assert result.global_result == natural_join(
            string_workload.relation_1, string_workload.relation_2
        )

    def test_skewed_multiplicities(self, make_federation, skewed_workload):
        result = run_join_query(
            make_federation(skewed_workload), QUERY, protocol="commutative"
        )
        assert result.global_result == natural_join(
            skewed_workload.relation_1, skewed_workload.relation_2
        )

    def test_empty_intersection(self, make_federation):
        workload = generate(WorkloadSpec(domain_1=4, domain_2=4, overlap=0, seed=3))
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert len(result.global_result) == 0
        assert result.artifacts["intersection_size"] == 0

    def test_multi_attribute_join(self, ca, client):
        from repro import Federation
        from repro.mediation.access_control import allow_all
        from repro.relational.relation import Relation
        from repro.relational.schema import schema

        r1 = Relation(
            schema("A", k="int", t="string", a="string"),
            [(1, "x", "a1"), (1, "y", "a2"), (2, "x", "a3")],
        )
        r2 = Relation(
            schema("B", k="int", t="string", b="string"),
            [(1, "x", "b1"), (2, "y", "b2"), (2, "x", "b3")],
        )
        federation = Federation(ca=ca)
        federation.add_source("SA", [(r1, allow_all())])
        federation.add_source("SB", [(r2, allow_all())])
        federation.attach_client(client)
        result = run_join_query(
            federation, "select * from A natural join B", protocol="commutative"
        )
        assert result.global_result == natural_join(r1, r2)

    def test_larger_group(self, make_federation, workload, expected):
        result = run_join_query(
            make_federation(workload),
            QUERY,
            protocol="commutative",
            config=CommutativeConfig(group_bits=256),
        )
        assert result.global_result == expected


class TestAnnouncedGroup:
    """The mediator is untrusted: a source keys only a safe-prime modulus,
    and no config flag turns the check off."""

    def test_non_safe_prime_modulus_refused(
        self, make_federation, workload, monkeypatch
    ):
        bogus = CommutativeGroup(2163)  # 3 * 7 * 103, and 3 mod 4
        monkeypatch.setattr(
            commutative.groups, "commutative_group", lambda bits: bogus
        )
        with pytest.raises(ProtocolError, match="not a safe prime"):
            run_join_query(
                make_federation(workload), QUERY, protocol="commutative"
            )

    def test_unlisted_safe_prime_accepted(
        self, make_federation, workload, expected, monkeypatch
    ):
        modulus = generate_safe_prime(80)
        assert modulus not in KNOWN_SAFE_PRIMES.values()
        monkeypatch.setattr(
            commutative.groups, "commutative_group",
            lambda bits: CommutativeGroup(modulus),
        )
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.global_result == expected

    def test_listed_modulus_skips_primality_test(
        self, make_federation, workload, expected, monkeypatch
    ):
        def refuse(modulus, *args, **kwargs):
            raise AssertionError("listed modulus was re-tested")

        monkeypatch.setattr(commutative, "is_safe_prime", refuse)
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.global_result == expected


def _no_int(body) -> bool:
    """True if no integer appears anywhere in ``body``."""
    if isinstance(body, int):
        return False
    if isinstance(body, (list, tuple, commutative.MessageSet)):
        return all(map(_no_int, body))
    return True


class TestRound2Body:
    """Steps 5-7: sources return 16-byte digests, and the mediator
    refuses a round-2 set it cannot match soundly."""

    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    @pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
    def test_sources_return_digests_not_group_elements(
        self, ca, client, workload, expected, carrier, hardened
    ):
        result = _run_over(carrier, hardened, ca, client, workload)
        assert result.global_result == expected
        doubles = [m for m in result.messages if m.kind == "commutative_double"]
        assert [m.sender for m in doubles] == ["S1", "S2"]
        for message in doubles:
            assert message.body
            assert all(
                type(tag) is bytes and len(tag) == 16
                for tag in message.body.tags
            )
            assert _no_int(message.body)

    @pytest.mark.parametrize(
        "relation, forge, reason",
        [
            ("R2", lambda doubled: doubled + doubled, "repeats"),
            ("R1", lambda doubled: doubled + doubled, "repeats"),
            (
                "R2",
                lambda doubled: [
                    (int.from_bytes(tag, "big"), payload)
                    for tag, payload in doubled
                ],
                "not a 16-byte",
            ),
            (
                "R1",
                lambda doubled: [(tag[:15], payload) for tag, payload in doubled],
                "not a 16-byte",
            ),
            ("R2", lambda doubled: doubled[1:], "each ID token"),
            (
                "R1",
                lambda doubled: [(doubled[0][0], b"\0" * 8)] + doubled[1:],
                "unknown ID token",
            ),
        ],
        ids=["repeat-in-response-2", "repeat-in-response-1",
             "group-element", "short-digest", "dropped-entry",
             "foreign-token"],
    )
    def test_forged_round_2_body_fails_closed(
        self, make_federation, workload, monkeypatch, relation, forge, reason,
    ):
        """Each forgery, a list of ``(tag, payload)`` pairs, reaches the
        mediator as a ``MessageSet``."""
        genuine = commutative._double_encrypt

        def forged(*args, relation_name, **kwargs):
            doubled = genuine(*args, relation_name=relation_name, **kwargs)
            if relation_name != relation:
                return doubled
            pairs = forge(list(doubled))
            return commutative.MessageSet(
                tuple(tag for tag, _ in pairs),
                tuple(payload for _, payload in pairs),
            )

        monkeypatch.setattr(commutative, "_double_encrypt", forged)
        with pytest.raises(ProtocolError, match=reason):
            run_join_query(
                make_federation(workload), QUERY, protocol="commutative"
            )

    @pytest.mark.parametrize(
        "response",
        [[5], [(b"d" * 16, b"t" * 8, b"x")], 5, None, {b"d" * 16: b"t" * 8}],
        ids=["bare-int-entry", "three-tuple-entry", "int-body", "no-body",
             "dict-body"],
    )
    def test_a_malformed_round_2_body_is_a_protocol_error(self, response):
        with pytest.raises(ProtocolError, match="message set"):
            commutative._check(response, (b"t" * 8,))


class TestArtifacts:
    def test_active_domain_sizes(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        sizes = result.artifacts["active_domain_sizes"]
        assert sizes["S1"] == len(active_key_domain(workload.relation_1, ("k",)))
        assert sizes["S2"] == len(active_key_domain(workload.relation_2, ("k",)))

    def test_intersection_size(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        dom_1 = set(workload.relation_1.active_domain("k"))
        dom_2 = set(workload.relation_2.active_domain("k"))
        assert result.artifacts["intersection_size"] == len(dom_1 & dom_2)

    def test_id_table_covers_both_message_sets(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.artifacts["id_table_entries"] == (
            len(workload.relation_1.active_domain("k"))
            + len(workload.relation_2.active_domain("k"))
        )


def _run_over(carrier, hardened, ca, client, workload):
    """One commutative query over the bus or TCP, plain or hardened."""
    network = TcpTransport() if carrier == "tcp" else Network()
    try:
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return run_join_query(
            federation, QUERY, protocol="commutative",
            hardening=True if hardened else None,
        )
    finally:
        network.close()


class TestProtocolShape:
    def test_flow_kinds(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        kinds = [m.kind for m in result.network.transcript]
        assert kinds == [
            "global_query",
            "partial_query",
            "partial_query",
            "commutative_setup",
            "commutative_setup",
            "commutative_m_set",
            "commutative_m_set",
            "commutative_exchange",
            "commutative_exchange",
            "commutative_double",
            "commutative_double",
            "commutative_result",
        ]

    def test_client_interacts_once(self, make_federation, workload, client):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        assert result.interaction_count(client.name, "mediator") == 1

    def test_sources_interact_twice(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        for source in ("S1", "S2"):
            assert result.interaction_count(source, "mediator") == 2

    def test_exchange_carries_tags_and_tokens_only(
        self, make_federation, workload
    ):
        """Footnote 1's performance reason: step 4 relays the tags plus
        one 8-byte token each, so it costs less than the M_i it relays."""
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        m_sets = {
            m.sender: m for m in result.messages if m.kind == "commutative_m_set"
        }
        exchanges = [m for m in result.messages if m.kind == "commutative_exchange"]
        assert [m.receiver for m in exchanges] == ["S1", "S2"]
        for exchange, relayed in zip(exchanges, (m_sets["S2"], m_sets["S1"])):
            assert exchange.size_bytes == ENVELOPE_BYTES + sum(
                max(1, (tag.bit_length() + 7) // 8) + 8 for tag in exchange.body.tags
            )
            assert exchange.size_bytes < relayed.size_bytes
            assert len(exchange.body) == len(relayed.body)

    @pytest.mark.parametrize("carrier", ["bus", "tcp"])
    @pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
    def test_sources_receive_id_tokens_not_ciphertexts(
        self, ca, client, workload, carrier, hardened
    ):
        """Footnote 1's security reason: a source never sees the other
        source's tuple-set ciphertexts, nor their sizes."""
        result = _run_over(carrier, hardened, ca, client, workload)
        assert result.global_result == natural_join(
            workload.relation_1, workload.relation_2
        )
        for source in ("S1", "S2"):
            received = [
                m for m in result.view(source).received
                if m.kind == "commutative_exchange"
            ]
            assert len(received) == 1
            payloads = received[0].body.payloads
            assert payloads
            # Never a HybridCiphertext: an opaque 8-byte token each.
            assert all(
                type(payload) is bytes and len(payload) == 8
                for payload in payloads
            )

    @pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
    def test_listing_never_inverts_f_e(self, make_federation, workload, hardened):
        """Listing 3 only applies the commutative cipher: keys are drawn
        and values encrypted, and nothing is ever decrypted."""
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative",
            hardening=hardened or None,
        )
        operations = {
            name for name, count in result.primitive_counter.counts.items()
            if name.startswith("commutative.") and count
        }
        assert operations == {"commutative.keygen", "commutative.encrypt"}

    def test_m_set_counts_equal_active_domains(self, make_federation, workload):
        result = run_join_query(
            make_federation(workload), QUERY, protocol="commutative"
        )
        m_sets = [m for m in result.messages if m.kind == "commutative_m_set"]
        sizes = {m.sender: len(m.body) for m in m_sets}
        assert sizes["S1"] == len(workload.relation_1.active_domain("k"))
        assert sizes["S2"] == len(workload.relation_2.active_domain("k"))
