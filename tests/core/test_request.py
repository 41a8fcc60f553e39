"""Tests for the Listing 1 request phase, run through ``run_join_query``.

Listing 1 is ``request.TABLE``, run by the same loop as the delivery
tables: the client's ``start`` step sends ``global_query``, the
mediator's step decomposes q and sends one ``partial_query`` per source,
and each source's step evaluates q_i into its own state.
"""

from collections.abc import Sequence

import pytest

from repro import Federation, RunFailure, reference_join, run_join_query
from repro.core import runner
from repro.crypto.hybrid import Encapsulation, key_fingerprint
from repro.errors import AccessDenied, MediationError, QueryError
from repro.mediation.access_control import allow_all, require
from repro.mediation.client import Client
from repro.relational.relation import Relation
from repro.relational.schema import schema

QUERY = "select * from R1 natural join R2"


@pytest.fixture
def seatings(monkeypatch):
    """The parties of every ``deliver`` call: Listing 1's, then the
    delivery phase's."""
    seen = []
    deliver = runner.deliver

    def spy(table, parties, network, result):
        seen.append(parties)
        return deliver(table, parties, network, result)

    monkeypatch.setattr(runner, "deliver", spy)
    return seen


class TestRequestPhase:
    def test_each_source_holds_its_own_partial_result(
        self, federation, workload, seatings
    ):
        run_join_query(federation, QUERY)
        _, parties = seatings
        assert list(parties) == ["S1", "S2", "mediator", "test-client"]
        s1, s2, mediator, client = (state for _, state in parties.values())
        assert mediator.decomposition.source_names == ("S1", "S2")
        assert mediator.decomposition.join_attributes == ("k",)
        assert s1.relation == workload.relation_1
        assert s2.relation == workload.relation_2
        assert s1.join_attributes == s2.join_attributes == ("k",)
        # The client's schemas come from the decomposition.
        assert client.schemas == (
            workload.relation_1.schema, workload.relation_2.schema
        )

    def test_message_flow(self, federation, client):
        run_join_query(federation, QUERY)
        transcript = federation.network.transcript
        assert [m.kind for m in transcript[:3]] == [
            "global_query",
            "partial_query",
            "partial_query",
        ]
        assert transcript[0].sender == client.name
        assert {m.receiver for m in transcript[1:3]} == {"S1", "S2"}

    def test_credentials_attached_to_query(self, federation, client):
        run_join_query(federation, QUERY)
        query_message = federation.network.transcript[0]
        assert query_message.body["credentials"] == client.credentials

    def test_join_attributes_forwarded(self, federation):
        run_join_query(federation, QUERY)
        partial = [
            message for message in federation.network.transcript
            if message.kind == "partial_query"
        ]
        assert len(partial) == 2
        for message in partial:
            assert message.body["join_attributes"] == ("k",)

    def test_access_control_enforced(self, make_federation, workload):
        # Policy demands a property the client doesn't have.
        denied = make_federation(
            workload, policy_1=require(("role", "superuser"))
        )
        with pytest.raises(AccessDenied):
            run_join_query(denied, QUERY)

    def test_no_client_attached(self, make_federation, workload):
        federation = make_federation(workload, attach_client=False)
        with pytest.raises(MediationError):
            run_join_query(federation, QUERY)

    def test_bad_query_rejected(self, federation):
        with pytest.raises(QueryError):
            run_join_query(federation, "select * from R1")


class TestChangedOrder:
    def test_a_refusal_at_the_first_source_follows_both_partial_queries(
        self, make_federation, workload, client
    ):
        """The mediator emits both ``partial_query`` messages before
        either source runs, so S1's refusal comes after the second."""
        denied = make_federation(
            workload, policy_1=require(("role", "superuser"))
        )
        failure = run_join_query(denied, QUERY, on_failure="return")
        assert isinstance(failure, RunFailure)
        assert (failure.phase, failure.error_type) == (
            "request", "AccessDenied"
        )
        assert [(m.sender, m.receiver, m.kind) for m in failure.messages] == [
            (client.name, "mediator", "global_query"),
            ("mediator", "S1", "partial_query"),
            ("mediator", "S2", "partial_query"),
        ]


def encapsulations(obj):
    """Every :class:`Encapsulation` reachable in a message body."""
    if isinstance(obj, Encapsulation):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from encapsulations(value)
    elif isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        for item in obj:  # a list, a tuple, a commutative MessageSet
            yield from encapsulations(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from encapsulations(getattr(obj, name))


class TestRecipientKeys:
    def test_each_source_encrypts_to_the_keys_of_its_own_credentials(
        self, ca, client, rsa_key, workload
    ):
        """A source wraps its session key for the keys its own CR_i
        presents, not for the union over both sources.  Here S1's policy
        reads ``dept`` and S2's ``role``, and the client holds one key
        per property, so CR_1 and CR_2 present different keys."""
        own_key = next(iter(client.rsa_keys.values()))
        two_keys = Client(name="two-keys")
        for private_key, prop in (
            (own_key, ("dept", "x")), (rsa_key, ("role", "y")),
        ):
            public_key = private_key.public_key()
            two_keys.rsa_keys[key_fingerprint(public_key)] = private_key
            two_keys.credentials.append(ca.issue_credential({prop}, public_key))
        federation = Federation(ca=ca)
        federation.add_source(
            "S1", [(workload.relation_1, require(("dept", "x")))]
        )
        federation.add_source(
            "S2", [(workload.relation_2, require(("role", "y")))]
        )
        federation.attach_client(two_keys)

        result = run_join_query(federation, QUERY, protocol="commutative")

        assert result.global_result == reference_join(federation, QUERY)
        recipients = {"S1": set(), "S2": set()}
        for message in result.messages:
            if message.sender in recipients:
                for wrapped in encapsulations(message.body):
                    recipients[message.sender].update(wrapped)
        assert recipients == {
            "S1": {key_fingerprint(own_key.public_key())},
            "S2": {key_fingerprint(rsa_key.public_key())},
        }


class TestPartialQuerySql:
    def test_a_source_executes_the_sql_it_was_sent(self, ca, client):
        """With push-down, the condition travels inside ``sql``; a
        quote, a backslash and a tab survive the trip."""
        name = "O'Brien\\\t"
        r1 = Relation(
            schema("R1", k="int", n="string"), [(1, name), (2, "other")]
        )
        r2 = Relation(schema("R2", k="int", b="string"), [(1, "b1"), (2, "b2")])
        federation = Federation(ca=ca)
        federation.mediator.push_down = True
        federation.add_source("S1", [(r1, allow_all())])
        federation.add_source("S2", [(r2, allow_all())])
        federation.attach_client(client)
        query = (
            "select * from R1 natural join R2 where n = '"
            + name.replace("'", "''") + "'"
        )

        result = run_join_query(federation, query, protocol="commutative")

        sent = [
            message.body["sql"] for message in result.messages
            if message.kind == "partial_query"
        ]
        assert sent[0] == (
            "select * from R1 where n = '" + name.replace("'", "''") + "'"
        )
        assert sorted(result.global_result.rows) == [(1, name, "b1")]
