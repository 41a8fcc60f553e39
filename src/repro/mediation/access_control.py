"""Credential-based access control at the datasources.

Section 2: *"Datasources base their access control decisions only on the
properties presented in the credentials.  If the presented credentials
suffice to grant data access, the datasources evaluate the partial
queries.  In case the credentials do not allow full data access, the
partial results might be filtered in order to return only those records
for which access permissions exist."*

A datasource policy is an ordered list of :class:`AccessRule` objects.
Each rule names the properties a credential set must assert and — for
row-level filtering — an optional condition restricting which rows the
rule grants.  The permitted partial result is the union of rows granted
by all satisfied rules; if no rule is satisfied the query is denied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AccessDenied
from repro.mediation.credentials import Credential, Property, properties_of
from repro.relational.algebra import select
from repro.relational.conditions import Condition
from repro.relational.relation import Relation


@dataclass(frozen=True)
class AccessRule:
    """Grants rows (all, or those matching ``row_condition``) to holders
    of the required properties."""

    required_properties: frozenset[Property]
    row_condition: Condition | None = None
    description: str = ""

    def satisfied_by(self, presented: frozenset[Property]) -> bool:
        return self.required_properties <= presented

    def granted_rows(self, relation: Relation) -> Relation:
        if self.row_condition is None:
            return relation
        return select(relation, self.row_condition)


@dataclass
class AccessPolicy:
    """The rule set one datasource enforces for one relation."""

    rules: list[AccessRule] = field(default_factory=list)

    def evaluate(
        self, relation: Relation, credentials: list[Credential]
    ) -> Relation:
        """The permitted partial result, or raise :class:`AccessDenied`.

        Returns the union of rows granted by every satisfied rule —
        the paper's "filtered partial result"; with one satisfied rule
        that is the rule's own grant, returned as it is (R_i itself for
        a rule without a row condition).  A satisfied rule that happens
        to grant zero rows still counts as authorization (the client
        legitimately gets an empty partial result).
        """
        presented = properties_of(credentials)
        satisfied = [rule for rule in self.rules if rule.satisfied_by(presented)]
        if not satisfied:
            raise AccessDenied(
                "presented credentials satisfy no access rule "
                f"(presented properties: {sorted(presented)})"
            )
        if len(satisfied) == 1:
            return satisfied[0].granted_rows(relation)
        granted: set = set()
        for rule in satisfied:
            granted |= set(rule.granted_rows(relation).rows)
        return Relation(relation.schema, granted)


def allow_all() -> AccessPolicy:
    """A policy granting everything to any credential holder."""
    return AccessPolicy(rules=[AccessRule(frozenset(), description="allow all")])


def require(
    *properties: Property, condition: Condition | None = None, description: str = ""
) -> AccessPolicy:
    """A single-rule policy requiring the given properties."""
    return AccessPolicy(
        rules=[
            AccessRule(
                required_properties=frozenset(properties),
                row_condition=condition,
                description=description,
            )
        ]
    )
