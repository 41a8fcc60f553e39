"""A tamper sweep: what one deviating sender can do to one message.

The invariant (ROADMAP north star) is that every run returns exactly
the reference join or a typed failure.  A sender outside the
semi-honest model (``docs/security.md``) can still *omit* what it
should send, and some omissions are invisible to the receiver.  This
sweep makes that set explicit.

For 3 protocols x plain/hardened, on the bus at test keys, it runs one
clean query to find, for every message kind, the sequence fields of the
first body of that kind — the body itself, or a sequence held in a dict
value or a dataclass field; a column table (``MessageSet``,
``EncryptedRows``) is one sequence, and an edit applies to both its
columns together.  Then, one query per cell, it alters that first body
once:

* ``dup``: append a copy of the first entry;
* ``drop``: drop the last entry;
* ``swap``: swap the first two entries;
* ``retype``: replace the first entry's first field (or the entry, when
  it has no fields) with a value of another type.

Every cell must end in a subset of the reference join or a typed
:class:`~repro.errors.ReproError`; an untyped exception fails the cell,
and so does a hang (``faulthandler`` dumps every thread and exits if a
cell outlives its deadline: tier-1 has no timeout plugin).  The cells
that return a *strict* subset — a silent omission — are pinned in
``SILENT``: a new one fails the sweep, and one that becomes a typed
failure must be taken off the list.  ``docs/security.md`` ("What the
semi-honest model buys") lists the same cells as what each deviating
sender can suppress.

Protocol randomness (message order) is drawn from a seeded permutation
here, so which entry is "first" or "last" — and so each cell's outcome
— is the same on every run.  The workload's active domains coincide, so
every message and row carries a join value.
"""

from __future__ import annotations

import copy
import dataclasses
import faulthandler
import random

import pytest

from repro import Federation, reference_join, run_join_query
from repro.core import commutative, das, private_matching, steps
from repro.core.commutative import MessageSet
from repro.core.das import EncryptedRows
from repro.errors import ProtocolError, ReproError
from repro.hardening import cover
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.relational.datagen import WorkloadSpec, generate

QUERY = "select * from R1 natural join R2"
PROTOCOLS = ("commutative", "das", "private-matching")
EDITS = ("dup", "drop", "swap", "retype")
#: Seconds one cell may run before the sweep is dumped and ended.
CELL_DEADLINE = 60

#: (protocol, hardened, kind, field path, edit) of every cell whose
#: query returns a strict subset of the reference join, by sender.
SILENT = {
    (protocol, hardened, *cell)
    for hardened in (False, True)
    for protocol, cells in {
        "commutative": [
            # The mediator narrows S_i's join attributes (Listing 1).
            ("partial_query", ("join_attributes",), "dup"),
            ("partial_query", ("join_attributes",), "drop"),
            # S_i leaves a value out of M_i.
            ("commutative_m_set", (), "drop"),
            # The mediator withholds a matched pair.
            ("commutative_result", (), "drop"),
        ],
        "das": [
            # S_i leaves a row out of R_i^S.
            ("das_encrypted_partial_result", ("relation", "rows"), "drop"),
            # The mediator withholds rows of R_C (plain) or a forwarded
            # row (hardened).
            *(
                [("das_server_result", (), "drop")] if hardened else [
                    ("das_server_result", ("rows_1",), "drop"),
                    ("das_server_result", ("rows_2",), "drop"),
                    # The client drops or garbles a pair of its own q_S.
                    ("das_server_query", ("pairs",), "drop"),
                    ("das_server_query", ("pairs",), "retype"),
                ]
            ),
        ],
        "private-matching": [
            ("partial_query", ("join_attributes",), "dup"),
            ("partial_query", ("join_attributes",), "drop"),
            # S_i sends another polynomial than its values' (no value
            # of the other side is then a root).
            ("pm_encrypted_coefficients", (), "dup"),
            ("pm_encrypted_coefficients", (), "drop"),
            ("pm_encrypted_coefficients", (), "swap"),
            # S_i leaves an evaluation out.
            ("pm_evaluations", (), "drop"),
        ],
    }.items()
    for cell in cells
}


@pytest.fixture(scope="module")
def overlapping():
    """Four join values on each side, all of them common."""
    return generate(
        WorkloadSpec(
            domain_1=4, domain_2=4, overlap=4,
            rows_per_value_1=2, rows_per_value_2=1,
            payload_attributes=1, payload_width=4, seed=23,
        )
    )


@pytest.fixture(autouse=True)
def seeded_order(monkeypatch):
    """Message order from one seeded permutation per length."""

    def shuffled(items):
        items = list(items)
        return random.Random(len(items)).sample(items, len(items))

    for module in (commutative, das, private_matching, cover):
        monkeypatch.setattr(module, "shuffled", shuffled)


def sequence_fields(body, path: tuple = ()):
    """The path of every sequence field of a body: the body itself if it
    is a sequence, else the sequences in its dict values and dataclass
    fields (not those inside another sequence's entries)."""
    if type(body) in (MessageSet, EncryptedRows, list, tuple):
        yield path
    elif type(body) is dict:
        for key, value in body.items():
            yield from sequence_fields(value, path + (key,))
    elif dataclasses.is_dataclass(body) and not isinstance(body, type):
        for field in dataclasses.fields(body):
            yield from sequence_fields(getattr(body, field.name), path + (field.name,))


def other_type(value):
    return 7 if type(value) is str else "tampered"


def edited(sequence, edit: str):
    """``sequence`` with one edit, of its own type; a column table's
    columns are edited together."""
    if type(sequence) is MessageSet:
        columns = (sequence.tags, sequence.payloads)
    elif type(sequence) is EncryptedRows:
        columns = (sequence.bodies, sequence.index_values)
    else:
        columns = (sequence,)
    columns = [list(column) for column in columns]
    for column in columns:
        if edit == "dup":
            column.append(column[0])
        elif edit == "drop":
            column.pop()
        elif edit == "swap":
            column[0], column[1] = column[1], column[0]
    if edit == "retype":
        first = columns[0][0]
        if len(columns) == 1 and type(first) is tuple and first:
            columns[0][0] = (other_type(first[0]),) + first[1:]
        else:
            columns[0][0] = other_type(first)
    if type(sequence) is MessageSet:
        return MessageSet(*map(tuple, columns))
    if type(sequence) is EncryptedRows:
        return EncryptedRows(
            sequence.encapsulation, *map(tuple, columns), sequence.container
        )
    return type(sequence)(columns[0])


def replaced(body, path: tuple, edit: str):
    """``body`` with the sequence at ``path`` edited; dicts and
    dataclasses on the way are copied, not rebuilt, so no constructor
    check stands between the edit and the receiver."""
    if not path:
        return edited(body, edit)
    head, rest = path[0], path[1:]
    if type(body) is dict:
        return {**body, head: replaced(body[head], rest, edit)}
    clone = copy.copy(body)
    object.__setattr__(clone, head, replaced(getattr(body, head), rest, edit))
    return clone


class TamperingNetwork(Network):
    """The bus, altering the first body of one kind on its way."""

    def __init__(self, kind: str = "", path: tuple = (), edit: str = "") -> None:
        super().__init__()
        self.target, self.path, self.edit = kind, path, edit
        self.first_bodies: dict[str, object] = {}

    def send(self, sender, receiver, kind, body):
        if kind not in self.first_bodies:
            self.first_bodies[kind] = body
            if kind == self.target:
                body = replaced(body, self.path, self.edit)
        return super().send(sender, receiver, kind, body)


def run(ca, client, workload, protocol, hardened, network):
    federation = Federation(ca=ca, network=network)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation, run_join_query(
        federation, QUERY, protocol=protocol, hardening=hardened or None
    )


def cells(ca, client, workload, protocol, hardened):
    """Every (kind, path, edit) the first body of each kind offers."""
    network = TamperingNetwork()
    run(ca, client, workload, protocol, hardened, network)
    for kind, body in network.first_bodies.items():
        for path in sequence_fields(body):
            entries = len(field_at(body, path))
            for edit in EDITS:
                if entries >= (2 if edit == "swap" else 1):
                    yield kind, path, edit


def field_at(body, path: tuple):
    for head in path:
        body = body[head] if type(body) is dict else getattr(body, head)
    return body


@pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_tampered_body_never_adds_a_row(
    ca, client, overlapping, protocol, hardened
):
    silent = set()
    swept = list(cells(ca, client, overlapping, protocol, hardened))
    for kind, path, edit in swept:
        cell = (protocol, hardened, kind, path, edit)
        faulthandler.dump_traceback_later(CELL_DEADLINE, exit=True)
        try:
            federation, result = run(
                ca, client, overlapping, protocol, hardened,
                TamperingNetwork(kind, path, edit),
            )
        except ReproError:
            continue
        finally:
            faulthandler.cancel_dump_traceback_later()
        rows = set(result.global_result.rows)
        expected = set(reference_join(federation, QUERY).rows)
        assert rows <= expected, cell
        if rows != expected:
            silent.add(cell)
    assert len(swept) > 10
    assert silent == {cell for cell in SILENT if cell[:2] == (protocol, hardened)}


def _reads_tags(state, sender, body):
    return list(body.tags)


def test_a_body_a_handler_cannot_read_is_a_protocol_error():
    """The step boundary types what a handler raises on a malformed
    body, and keeps the handler's own exception as the cause."""
    with pytest.raises(ProtocolError, match="_reads_tags") as refused:
        steps._run_step(
            steps.Step(_reads_tags), "mediator", None, "S1", [1, 2], None
        )
    assert isinstance(refused.value.__cause__, AttributeError)
    assert steps._run_step(
        steps.Step(_reads_tags), "mediator", None, "S1",
        MessageSet((1, 2), (b"a", b"b")), None,
    ) == [1, 2]
