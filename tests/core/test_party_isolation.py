"""Each step handler sees only its own party's state, and one loop sends.

* Every table handler is a module-level function: no closure can carry
  a driver's scope into it.
* A spy on the loop sees every handler call receive its receiver's own
  seated state.
* Nothing reachable from a call's ``(state, body)`` is another source's
  relation, commutative key, hybrid session or RSA private key; the
  client's private keys are reachable only from the client's own calls;
  and no source relation is reachable from the mediator or the client.
* No module under ``repro.core`` calls ``.send(`` but the loop.
* At seating no source relation is reachable from the mediator's or the
  client's state, nor from the table, the transport or the result; a
  source's partial result R_i first appears in its own state, during
  its ``partial_query`` step.
* What a source keeps per R_i content (``DataSource.derived``) is
  reachable from neither the mediator, the client, the transport nor
  the result.

The walk does not enter the federation's storage backend.  The sources
share one backend object and each reads only its own namespace through
its ``IndexCache``, but the object itself reaches every source's cache
rows; splitting it per party belongs to party-resident execution, with
the shared crypto engine and hardening context (which hold no party's
state, so the walk passes through them).
"""

from __future__ import annotations

import pathlib
import sys
import types

import pytest

from repro import Federation, run_join_query
from repro.core import (
    commutative, das, private_matching, request, runner, steps,
)
from repro.crypto import hybrid, paillier, rsa
from repro.crypto.commutative import CommutativeKey
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.relational.relation import Relation
from repro.storage import SQLiteBackend
from repro.storage.base import StorageBackend
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"
POLICY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                     io_timeout=30.0)
TABLES = [request.TABLE, commutative.TABLE, private_matching.TABLE, das.TABLE,
          das.HARDENED]
#: Objects that belong to exactly one party.
OWNED = (Relation, CommutativeKey, hybrid.Session, rsa.RSAPrivateKey,
         paillier.PaillierPrivateKey)
#: Not walked into: shared storage (see above) and code/type objects.
OPAQUE = (StorageBackend, type, types.ModuleType, types.FunctionType,
          types.MethodType, types.BuiltinFunctionType, str, bytes, int)


def reachable(*roots) -> dict[int, object]:
    """Every :data:`OWNED` object reachable from ``roots``, by id."""
    return {id(item): item for item in walk(*roots) if isinstance(item, OWNED)}


def walk(*roots):
    """Every object reachable from ``roots``, not entering :data:`OPAQUE`
    ones."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen or item is None or isinstance(item, OPAQUE):
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            for cls in type(item).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(item, slot, None))


def test_every_handler_is_module_level():
    for table in TABLES:
        for step in table.values():
            handler = step.handler
            assert handler.__closure__ is None, handler
            module = sys.modules[handler.__module__]
            assert getattr(module, handler.__name__) is handler, handler


def test_only_the_loop_sends():
    core = pathlib.Path(steps.__file__).parent
    senders = sorted(
        path.name for path in core.glob("*.py") if ".send(" in path.read_text()
    )
    assert senders == ["steps.py"]


@pytest.mark.parametrize("hardened", [False, True])
@pytest.mark.parametrize("protocol", ["commutative", "private-matching", "das"])
def test_each_call_reaches_only_its_own_party(
    ca, client, workload, tmp_path, monkeypatch, protocol, hardened,
):
    seatings: list[steps.Parties] = []
    calls: list[tuple[str, object, dict[int, object]]] = []
    deliver, run_step = steps.deliver, steps._run_step

    def spy_deliver(table, parties, network, result):
        seatings.append(parties)
        return deliver(table, parties, network, result)

    def spy_run_step(step, party, state, sender, body, result):
        calls.append((party, state, reachable(state, body)))
        return run_step(step, party, state, sender, body, result)

    monkeypatch.setattr(runner, "deliver", spy_deliver)
    monkeypatch.setattr(steps, "_run_step", spy_run_step)
    backend = SQLiteBackend(str(tmp_path / "s.db"))
    try:
        federation = Federation(ca=ca, storage=backend)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        run_join_query(
            federation, QUERY, protocol=protocol, hardening=hardened or None,
        )
    finally:
        backend.close()

    seated, parties = seatings
    assert {party for party, _, _ in calls} == set(seated) == set(parties)
    owned: dict[str, dict[int, object]] = {name: {} for name in parties}
    for party, state, found in calls:
        assert state is parties[party][1], party
        owned[party].update(found)

    client_keys = {id(key) for key in client.rsa_keys.values()}
    client_keys.add(id(client.homomorphic_key))
    sources = [name for name, (role, _) in parties.items() if role == "source"]
    for name in parties:
        if name != client.name:
            assert not client_keys & owned[name].keys(), name
    assert not owned[sources[0]].keys() & owned[sources[1]].keys()
    for name in sources:
        relation = parties[name][1].relation
        assert id(relation) in owned[name]
        for other in ("mediator", client.name):
            assert id(relation) not in owned[other], (name, other)
    for other in ("mediator", client.name):
        assert not any(
            isinstance(item, (CommutativeKey, hybrid.Session))
            for item in owned[other].values()
        ), other


@pytest.mark.parametrize("carrier", ["bus", "tcp"])
def test_no_partial_result_is_seated(ca, client, workload, monkeypatch, carrier):
    """Seating hands the driver's arguments to ``deliver`` no source
    relation, and each source's R_i first appears in its own state,
    during its own ``partial_query`` step."""
    seated: list[steps.Parties] = []
    executed: list[str] = []
    deliver, run_step = steps.deliver, steps._run_step
    execute = request.TABLE[(steps.SOURCE, "partial_query")]

    def spy_deliver(table, parties, network, result):
        if table is request.TABLE:
            *sources, mediator, client_state = steps.states(parties)
            found = reachable(mediator, client_state, table, network, result)
            assert not any(isinstance(item, Relation) for item in found.values())
            assert not any(hasattr(source, "relation") for source in sources)
            seated.append(parties)
        return deliver(table, parties, network, result)

    def spy_run_step(step, party, state, sender, body, result):
        if step is not execute:
            return run_step(step, party, state, sender, body, result)
        assert not hasattr(state, "relation"), party
        outbound = run_step(step, party, state, sender, body, result)
        assert isinstance(state.relation, Relation), party
        executed.append(party)
        return outbound

    monkeypatch.setattr(runner, "deliver", spy_deliver)
    monkeypatch.setattr(steps, "_run_step", spy_run_step)
    network = TcpTransport(retry=POLICY) if carrier == "tcp" else Network()
    try:
        federation = Federation(ca=ca, network=network)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        run_join_query(federation, QUERY, protocol="commutative")
    finally:
        network.close()

    assert len(seated) == 1
    assert executed == ["S1", "S2"]


@pytest.mark.parametrize("hardened", [False, True])
def test_the_content_memo_stays_in_its_source(
    ca, client, workload, monkeypatch, hardened
):
    seatings: list[steps.Parties] = []
    deliver = steps.deliver

    def spy_deliver(table, parties, network, result):
        seatings.append(parties)
        return deliver(table, parties, network, result)

    monkeypatch.setattr(runner, "deliver", spy_deliver)
    network = TcpTransport(retry=POLICY)
    backend = SQLiteBackend(":memory:")
    try:
        federation = Federation(ca=ca, network=network, storage=backend)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        results = [
            run_join_query(
                federation, QUERY, protocol="commutative",
                hardening=hardened or None,
            )
            for _ in range(2)
        ]
        memo = {
            id(item): item
            for source in federation.sources.values()
            for _, derived in source._derived.values()
            for item in walk(derived)
        }
        assert any(
            isinstance(item, commutative._Derived) for item in memo.values()
        )
        *_, mediator, client_state = steps.states(seatings[-1])
        found = {
            id(item)
            for item in walk(mediator, client_state, network, results)
        }
    finally:
        network.close()
        backend.close()
    assert not memo.keys() & found
