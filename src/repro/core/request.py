"""The basic MMM request phase — Listing 1, as a step table.

1. The client sends query ``q`` (requiring the JOIN of R1 and R2) with a
   set of credentials CR to the mediator.
2. The mediator localizes the datasources S1 and S2 and decomposes ``q``
   into partial queries; it selects the credential subsets CR1 and CR2.
3. For each source, the mediator sends the triple <q_i, CR_i, A_i>.
4. S_i checks the credentials; if authorization is granted, q_i is
   executed with R_i as the (plaintext, still local) result.

:data:`TABLE` holds these steps, untimed, and
:func:`repro.core.steps.deliver` runs it as it runs a delivery table.
The mediator keeps the decomposition in its state; R_i, A_i and the
client's public keys first appear in the source's own state, where the
delivery phase — protocol-specific — then encrypts and transmits them.
"""

from __future__ import annotations

from repro.core.steps import CLIENT, MEDIATOR, SOURCE, START, Outbound, Step
from repro.mediation.credentials import public_keys_of
from repro.relational.sql import parse_partial


def _ask(client, sender: str, body: None) -> Outbound:
    """Step 1: q and the credential set CR to the mediator."""
    return [(client.mediator, "global_query",
             {"query": client.query, "credentials": client.client.credentials})]


def _decompose(mediator, sender: str, body: dict) -> Outbound:
    """Steps 2-3: localize and decompose q, select CR_i, and send
    <q_i, CR_i, A_i> to each source."""
    decomposition = mediator.party.decompose_join(body["query"])
    mediator.decomposition = decomposition
    mediator.sources = decomposition.source_names
    return [
        (name, "partial_query", {
            "sql": partial_query.sql,
            "credentials": mediator.party.select_credentials(
                name, body["credentials"]
            ),
            "join_attributes": decomposition.join_attributes,
        })
        for partial_query, name in zip(
            decomposition.partial_queries, decomposition.source_names
        )
    ]


def _execute(source, sender: str, body: dict) -> Outbound:
    """Step 4: check CR_i and execute q_i on the source's own relation."""
    source.relation = source.party.execute_partial_query(
        parse_partial(body["sql"]), body["credentials"]
    )
    source.join_attributes = body["join_attributes"]
    source.client_keys = public_keys_of(body["credentials"])
    return []


TABLE = {
    (CLIENT, START): Step(_ask),
    (MEDIATOR, "global_query"): Step(_decompose),
    (SOURCE, "partial_query"): Step(_execute),
}
