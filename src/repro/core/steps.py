"""The one loop: Listings 1-4 as per-party step tables.

The request phase (:mod:`repro.core.request`) and each protocol module
declare a table keyed by ``(party role, inbound kind)``.  An entry is a
:class:`Step`: a module-level handler ``(own_state, sender, body) ->
[(receiver, kind, body), ...]`` and, when the entry is one of the
listing's timed steps, its name.  A handler sees only its own party's
state (:func:`seat`) and what it received; it emits messages and never
sends them.  The runner runs the request table, then the protocol's
(:func:`joined` keeps the parties that join).

:func:`deliver` sends every emitted message through the transport and
hands the recorded ``message.body`` to the receiver's handler, first in,
first out.  A ``gather`` entry waits for the kind from every source and
gets ``{source: body}`` in arrival order.  Three things never cross the
wire: ``start``, handed to each party whose role has an entry for it
before any message; ``done``, likewise once the queue has drained (a
step that needs every frame of a channel, because under hardening no
party knows how many frames another sends); and a message a handler
addresses to its own party, which continues that party locally.  A
handler that cannot read a body it was given — a deviating sender's —
fails the run with a :class:`~repro.errors.ProtocolError`
(:func:`_run_step`), never an untyped exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.errors import ProtocolError
from repro.transport.base import Transport

SOURCE = "source"
MEDIATOR = "mediator"
CLIENT = "client"
START = "start"
DONE = "done"

#: What a handler emits: ``(receiver, kind, body)`` triples, in order.
Outbound = list[tuple[str, str, Any]]
#: name -> (role, state), in seating order: the sources, the mediator, the
#: client.
Parties = dict[str, tuple[str, SimpleNamespace]]


@dataclass(frozen=True)
class Step:
    """One table entry: the handler, its step name if it is timed, and
    whether it waits for the kind from every source."""

    handler: Callable[[Any, str, Any], Outbound]
    name: str | None = None
    gather: bool = False


def collect(state: SimpleNamespace, sender: str, body: Any) -> Outbound:
    """Keep a body for the party's ``done`` step."""
    state.inbox.append(body)
    return []


def seat(federation: Any, query: str, config: Any, engine: Any,
         hardening: Any) -> Parties:
    """Each party's own state, from what it owns.  A source gets its
    ``DataSource`` (``party``) and index cache; R_i, the join attributes
    and the client's public keys arrive with its ``partial_query``.  The
    mediator gets its ``Mediator``, no relation and no key; the client
    its ``Client`` and the query.  The crypto engine and the hardening
    context are shared."""
    client = federation.require_client()
    mediator = federation.mediator.name
    parties: Parties = {
        name: (SOURCE, SimpleNamespace(
            name=name, mediator=mediator, party=source,
            cache=source.index_cache(),
            config=config, engine=engine, hardening=hardening,
        ))
        for name, source in federation.sources.items()
    }
    parties[mediator] = (MEDIATOR, SimpleNamespace(
        name=mediator, party=federation.mediator, client=client.name,
        config=config, hardening=hardening,
    ))
    parties[client.name] = (CLIENT, SimpleNamespace(
        client=client, query=query, mediator=mediator,
        config=config, engine=engine, hardening=hardening, inbox=[],
    ))
    return parties


def joined(parties: Parties) -> Parties:
    """The delivery phase's parties, once Listing 1 has run: the two
    sources the mediator named, in its order, the mediator and the
    client.  The client's schemas and join attributes come from the
    decomposition, which is built from q and the global schema."""
    *_, mediator, client = parties
    decomposition = parties[mediator][1].decomposition
    client_state = parties[client][1]
    client_state.schemas = decomposition.schemas
    client_state.join_attributes = decomposition.join_attributes
    return {
        name: parties[name]
        for name in (*decomposition.source_names, mediator, client)
    }


def states(parties: Parties) -> list[SimpleNamespace]:
    """The seated states, in seating order; in the delivery phase S1's,
    S2's, the mediator's, the client's."""
    return [state for _, state in parties.values()]


def deliver(
    table: dict[tuple[str, str], Step],
    parties: Parties,
    network: Transport,
    result: MediationResult,
) -> None:
    """Run ``table`` over ``parties`` until every party has finished."""
    sources = sum(role == SOURCE for role, _ in parties.values())
    gathered: dict[tuple[str, str], dict[str, Any]] = {}
    queue: deque = deque()
    for event in (START, DONE):
        queue.extend(
            (name, name, event, None)
            for name, (role, _) in parties.items()
            if (role, event) in table
        )
        while queue:
            sender, receiver, kind, body = queue.popleft()
            role, state = parties[receiver]
            step = table.get((role, kind))
            if step is None:
                raise ProtocolError(
                    f"{receiver} ({role}) has no step for {kind!r} from {sender}"
                )
            if step.gather:
                bodies = gathered.setdefault((receiver, kind), {})
                bodies[sender] = body
                if len(bodies) < sources:
                    continue
                body = bodies
            outbound = _run_step(step, receiver, state, sender, body, result)
            for target, out_kind, out_body in outbound:
                if target != receiver:
                    out_body = network.send(
                        receiver, target, out_kind, out_body
                    ).body
                queue.append((receiver, target, out_kind, out_body))


#: What a handler raises on a body — received, or kept for its ``done``
#: step — that is not of the shape its listing sends.
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _run_step(
    step: Step, party: str, state: Any, sender: str, body: Any,
    result: MediationResult,
) -> Outbound:
    """Run one handler.  A party refuses what it cannot read: a
    malformed body surfaces as a :class:`ProtocolError` naming the
    step, as the codec refuses bytes it cannot decode."""
    try:
        if step.name is None:
            return step.handler(state, sender, body)
        with timed(result, party, step.name):
            return step.handler(state, sender, body)
    except _MALFORMED as exc:
        raise ProtocolError(
            f"{party} cannot read what {step.handler.__name__} was given: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
