"""The one delivery loop: Listings 2-4 as per-party step tables.

Each protocol module declares a table keyed by ``(party role, inbound
kind)``.  An entry is a :class:`Step`: a module-level handler
``(own_state, sender, body) -> [(receiver, kind, body), ...]`` and, when
the entry is one of the listing's timed steps, its name.  A handler sees
only its own party's state (:func:`seat`) and what it received; it emits
messages and never sends them.

:func:`deliver` sends every emitted message through the transport and
hands the recorded ``message.body`` to the receiver's handler, first in,
first out.  A ``gather`` entry waits for the kind from every source and
gets ``{source: body}`` in arrival order.  Three things never cross the
wire: ``start``, handed to each party whose role has an entry for it
before any message; ``done``, likewise once the queue has drained (a
step that needs every frame of a channel, because under hardening no
party knows how many frames another sends); and a message a handler
addresses to its own party, which continues that party locally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.errors import ProtocolError
from repro.mediation.credentials import public_keys_of
from repro.transport.base import Transport

SOURCE = "source"
MEDIATOR = "mediator"
CLIENT = "client"
START = "start"
DONE = "done"

#: What a handler emits: ``(receiver, kind, body)`` triples, in order.
Outbound = list[tuple[str, str, Any]]
#: name -> (role, state), in seating order: S1, S2, the mediator, the client.
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


def seat(federation: Any, outcome: Any, config: Any, engine: Any,
         hardening: Any) -> Parties:
    """Each party's own state.  A source gets R_i, its index cache and
    the client's public keys; the mediator the source names and the
    config, no relation and no key; the client its ``Client``, the two
    schemas and the join attributes.  The crypto engine and the
    hardening context are shared."""
    client = federation.require_client()
    names = outcome.source_names
    mediator = federation.mediator.name
    client_keys = public_keys_of(
        [c for name in names for c in outcome.forwarded_credentials[name]]
    )
    parties: Parties = {
        name: (SOURCE, SimpleNamespace(
            name=name, mediator=mediator,
            relation=outcome.partial_results[name],
            join_attributes=outcome.join_attributes, client_keys=client_keys,
            cache=federation.source(name).index_cache(),
            config=config, engine=engine, hardening=hardening,
        ))
        for name in names
    }
    parties[mediator] = (MEDIATOR, SimpleNamespace(
        name=mediator, client=client.name, sources=names,
        config=config, hardening=hardening,
    ))
    parties[client.name] = (CLIENT, SimpleNamespace(
        client=client, mediator=mediator,
        schemas=tuple(map(outcome.schema_of, names)),
        join_attributes=outcome.join_attributes,
        config=config, engine=engine, hardening=hardening, inbox=[],
    ))
    return parties


def states(parties: Parties) -> list[SimpleNamespace]:
    """The seated states: S1's, S2's, the mediator's, the client's."""
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


def _run_step(
    step: Step, party: str, state: Any, sender: str, body: Any,
    result: MediationResult,
) -> Outbound:
    if step.name is None:
        return step.handler(state, sender, body)
    with timed(result, party, step.name):
        return step.handler(state, sender, body)
