"""Each step handler sees only its own party's state, and one loop sends.

* Every table handler is a module-level function: no closure can carry
  a driver's scope into it.
* A spy on the loop sees every handler call receive its receiver's own
  seated state.
* Nothing reachable from a call's ``(state, body)`` is another source's
  relation, commutative key, hybrid session or RSA private key; the
  client's private keys are reachable only from the client's own calls;
  and no source relation is reachable from the mediator or the client.
* No module under ``repro.core`` calls ``.send(`` but the loop and the
  request phase.

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

from repro import DASConfig, Federation, run_join_query
from repro.core import commutative, das, private_matching, runner, steps
from repro.crypto import hybrid, paillier, rsa
from repro.crypto.commutative import CommutativeKey
from repro.mediation.access_control import allow_all
from repro.relational.relation import Relation
from repro.storage import SQLiteBackend
from repro.storage.base import StorageBackend

QUERY = "select * from R1 natural join R2"
TABLES = [
    commutative.TABLE, private_matching.TABLE, *das.TABLES.values(), das.HARDENED,
]
#: Objects that belong to exactly one party.
OWNED = (Relation, CommutativeKey, hybrid.Session, rsa.RSAPrivateKey,
         paillier.PaillierPrivateKey)
#: Not walked into: shared storage (see above) and code/type objects.
OPAQUE = (StorageBackend, type, types.ModuleType, types.FunctionType,
          types.MethodType, types.BuiltinFunctionType, str, bytes, int)


def reachable(*roots) -> dict[int, object]:
    """Every :data:`OWNED` object reachable from ``roots``, by id."""
    found: dict[int, object] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen or item is None or isinstance(item, OPAQUE):
            continue
        seen.add(id(item))
        if isinstance(item, OWNED):
            found[id(item)] = item
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
    return found


def test_every_handler_is_module_level():
    for table in TABLES:
        for step in table.values():
            handler = step.handler
            assert handler.__closure__ is None, handler
            module = sys.modules[handler.__module__]
            assert getattr(module, handler.__name__) is handler, handler


def test_only_the_loop_and_the_request_phase_send():
    core = pathlib.Path(steps.__file__).parent
    senders = sorted(
        path.name for path in core.glob("*.py") if ".send(" in path.read_text()
    )
    assert senders == ["request.py", "steps.py"]


CELLS = [
    ("commutative", False, None), ("commutative", True, None),
    ("private-matching", False, None), ("private-matching", True, None),
    ("das", False, "client"), ("das", True, "client"),
    ("das", False, "source"), ("das", True, "source"),
    ("das", False, "mediator"),
]


@pytest.mark.parametrize("protocol, hardened, setting", CELLS)
def test_each_call_reaches_only_its_own_party(
    ca, client, rsa_key, workload, tmp_path, monkeypatch,
    protocol, hardened, setting,
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
        federation.source("S1")._keypair = rsa_key
        run_join_query(
            federation, QUERY, protocol=protocol,
            config=DASConfig(setting=setting) if setting else None,
            hardening=hardened or None,
        )
    finally:
        backend.close()

    (parties,) = seatings
    assert {party for party, _, _ in calls} == set(parties)
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
