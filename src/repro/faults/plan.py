"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a seed plus an ordered list of
:class:`FaultRule` — a deterministic description of the failures to
inject into one protocol run.  Plans are plain data (JSON-round-trip
safe) so the same plan can drive an in-process test, the ``repro query
--fault-plan`` CLI flag, and the CI chaos job, and two runs with the
same plan and the same protocol schedule produce **byte-identical**
fault-event logs (events carry no timestamps).

Rules match *observations* — one per delivery attempt seen at the
injection site — on sender, receiver, message kind, or party (either
side of the message).  Triggering is controlled by:

* ``occurrence`` — fire exactly on the N-th matching observation,
* ``probability`` — fire on each match with seeded probability,
* ``max_triggers`` — stop after N firings (default 1; ``0`` = unlimited).

Actions, by injection site (see :mod:`repro.faults.injector`):

=============  ==========================  =============================
action         transport (FaultyTransport)  proxy (ChaosProxy)
=============  ==========================  =============================
``delay``      sleep before delivering      sleep before forwarding
``drop``       message lost (retryable)     frame swallowed (ack timeout)
``corrupt``    message garbled (retryable)  frame bytes flipped in flight
``duplicate``  —                            frame forwarded twice
``truncate``   —                            partial frame, then reset
``reset``      —                            connection torn down
``crash``      party dies (permanent)       proxy dies (port goes dark)
=============  ==========================  =============================

The ``storage`` site (:class:`~repro.storage.faulty.FaultyStorage`)
observes backend operations instead of messages — sender and receiver
are both the namespace, and ``kind`` is ``storage:<operation>`` (e.g.
``storage:cache_get``; a batched read is one such observation, however
many keys it asks for).  Supported actions: ``delay`` (slow I/O),
``drop`` (operation raises StorageError), ``corrupt`` (cache reads
return flipped bytes, which the deserializers reject).  Index-cache
reads and writes degrade to recomputation; a failed ``store_relation``
or ``bump_key_epoch`` is a hard failure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.errors import ProtocolError

#: Every recognised fault action.
ACTIONS = frozenset(
    {"delay", "drop", "corrupt", "duplicate", "truncate", "reset", "crash"}
)

#: Actions each injection site can enact.
SITE_ACTIONS = {
    "transport": frozenset({"delay", "drop", "corrupt", "crash"}),
    "proxy": frozenset(
        {"delay", "drop", "corrupt", "duplicate", "truncate", "reset", "crash"}
    ),
    "storage": frozenset({"delay", "drop", "corrupt"}),
}


@dataclass(frozen=True)
class FaultRule:
    """One failure to inject, with its matchers and trigger policy."""

    action: str
    #: Matchers — ``None`` matches anything; ``party`` matches a message
    #: when it is the sender *or* the receiver.
    sender: str | None = None
    receiver: str | None = None
    kind: str | None = None
    party: str | None = None
    #: Matches only messages carrying this session id; ``None`` matches
    #: any session.
    session: str | None = None
    #: Fire exactly on the N-th matching observation (1-based).
    occurrence: int | None = None
    #: Fire on each matching observation with this probability (seeded).
    probability: float = 1.0
    #: Sleep duration for ``delay`` actions.
    delay_seconds: float = 0.0
    #: Stop firing after this many triggers; ``0`` means unlimited.
    max_triggers: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ProtocolError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {sorted(ACTIONS)}"
            )
        if self.occurrence is not None and self.occurrence < 1:
            raise ProtocolError(
                f"occurrence must be >= 1, got {self.occurrence}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ProtocolError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_seconds < 0:
            raise ProtocolError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.action == "delay" and self.delay_seconds == 0:
            raise ProtocolError("a delay rule needs delay_seconds > 0")
        if self.max_triggers < 0:
            raise ProtocolError(
                f"max_triggers must be >= 0, got {self.max_triggers}"
            )
        if self.action == "crash" and self.crash_target is None:
            raise ProtocolError(
                "a crash rule must name its victim via party/receiver/sender"
            )

    @property
    def crash_target(self) -> str | None:
        """Whom a ``crash`` rule kills: party, else receiver, else sender."""
        return self.party or self.receiver or self.sender

    def matches(
        self,
        sender: str,
        receiver: str,
        kind: str,
        session: str | None = None,
    ) -> bool:
        if self.sender is not None and self.sender != sender:
            return False
        if self.receiver is not None and self.receiver != receiver:
            return False
        if self.kind is not None and self.kind != kind:
            return False
        if self.party is not None and self.party not in (sender, receiver):
            return False
        if self.session is not None and self.session != session:
            return False
        return True

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise ProtocolError(f"fault rule must be an object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ProtocolError(
                f"unknown fault rule keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "action" not in data:
            raise ProtocolError("fault rule is missing its 'action'")
        return cls(**data)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it happened.

    Deliberately timestamp-free: with the same plan and the same
    protocol schedule, the event log is byte-identical across runs —
    that property is what makes chaos failures replayable.
    """

    index: int
    rule: int
    action: str
    site: str
    sender: str
    receiver: str
    kind: str
    occurrence: int
    detail: str = ""
    #: The *rule's* session matcher, not the observed session id —
    #: observed ids are random per run, and recording them would break
    #: the byte-identical log guarantee.  Empty for session-blind rules.
    session: str = ""

    def summary(self) -> str:
        line = (
            f"#{self.index:03d} rule[{self.rule}] {self.action}@{self.site} "
            f"{self.sender}->{self.receiver} kind={self.kind} "
            f"occurrence={self.occurrence}"
        )
        if self.session:
            line = f"{line} session={self.session}"
        return f"{line} {self.detail}" if self.detail else line


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the ordered rules it drives."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ProtocolError(f"fault plan must be an object, got {data!r}")
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise ProtocolError(
                f"unknown fault plan keys {sorted(unknown)}; "
                "expected 'seed' and 'rules'"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(f"fault plan seed must be an int, got {seed!r}")
        rules = data.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ProtocolError("fault plan 'rules' must be a list")
        return cls(
            seed=seed, rules=tuple(FaultRule.from_dict(r) for r in rules)
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [
                {k: v for k, v in asdict(rule).items() if v is not None}
                for rule in self.rules
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
