"""The hardened audit's distances are (near-)zero; unhardened ones are not.

This is the tentpole acceptance test, asserted in *both* directions so
neither side is vacuous:

* hardened differential audits over several seeded adjacent workload
  pairs stay inside the :data:`HARDENED_GATE_RULES` envelope (TV
  distances at most epsilon, every count/bucket/cardinality delta
  exactly zero) for **every** semi-honest adversary of every protocol,
  on the bus and over TCP;
* the same audits run unhardened provably breach that envelope — the
  adjacent workloads this suite uses genuinely move the observables,
  so the zeros above are earned, not trivial.
"""

import pytest

from repro.analysis.audit import (
    HARDENED_EPSILON,
    HARDENED_GATE_RULES,
    AuditConfig,
    differential_audit,
    leakage_json,
)

from tests.hardening.conftest import envelope_breaches, spec_with_seed

#: Seeded adjacent pairs; each seed yields a distinct (base, twin) pair.
SEEDS = [3, 11, 23]


class TestHardenedEnvelope:
    @pytest.fixture(scope="class")
    def audits(self, ca, client):
        """One hardened + one unhardened audit per seed (bus, all
        protocols), computed once for the whole class."""
        from repro import Federation
        from repro.mediation.access_control import allow_all

        def factory(workload, network):
            federation = Federation(ca=ca, network=network)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            return federation

        documents = {}
        for seed in SEEDS:
            spec = spec_with_seed(seed)
            documents[seed] = {
                "hardened": differential_audit(
                    AuditConfig(spec=spec, hardened=True),
                    federation_factory=factory,
                ),
                "plain": differential_audit(
                    AuditConfig(spec=spec), federation_factory=factory
                ),
            }
        return documents

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hardened_distances_within_envelope(self, audits, seed):
        breaches = envelope_breaches(
            audits[seed]["hardened"], HARDENED_GATE_RULES
        )
        assert breaches == [], (
            f"seed {seed}: hardened audit leaked past the envelope: "
            f"{breaches}"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unhardened_audit_breaches_envelope(self, audits, seed):
        """Non-vacuity: the same adjacent pair, run without hardening,
        must violate the hardened envelope somewhere."""
        breaches = envelope_breaches(audits[seed]["plain"], HARDENED_GATE_RULES)
        assert breaches, (
            f"seed {seed}: the unhardened audit already satisfies the "
            f"hardened envelope — the workload does not move the "
            f"observables and the hardened zeros are vacuous"
        )

    def test_hardened_document_claims_hardened_gate(self, audits):
        document = audits[SEEDS[0]]["hardened"]
        assert document["hardened"] is True
        for key, rule in document["gate"].items():
            metric = key.rsplit("/", 1)[1]
            assert rule == HARDENED_GATE_RULES[metric], key
        # Every TV slack is the hardened epsilon, every delta is exact.
        assert HARDENED_GATE_RULES["messages_tv"]["slack"] == HARDENED_EPSILON
        assert HARDENED_GATE_RULES["max_count_delta"]["slack"] == 0.0

    def test_every_adversary_covered(self, audits):
        document = audits[SEEDS[0]]["hardened"]
        for entry in document["protocols"].values():
            assert set(entry["adversaries"]) == {
                "network", "mediator", "datasource:S1", "datasource:S2",
            }

    def test_hardened_audit_is_deterministic(self, audits, audit_factory):
        again = differential_audit(
            AuditConfig(spec=spec_with_seed(SEEDS[0]), hardened=True),
            federation_factory=audit_factory,
        )
        assert leakage_json(audits[SEEDS[0]]["hardened"]) == leakage_json(again)


class TestHardenedEnvelopeOverTcp:
    def test_tcp_distances_within_envelope(self, audit_factory):
        """Hardening is transport-independent: the envelope holds over
        real sockets too (this is what lets the committed baseline be
        labelled transport "any")."""
        document = differential_audit(
            AuditConfig(
                spec=spec_with_seed(SEEDS[1]),
                transport="tcp",
                hardened=True,
            ),
            federation_factory=audit_factory,
        )
        breaches = envelope_breaches(document, HARDENED_GATE_RULES)
        assert breaches == [], breaches
        assert document["transport"] == "tcp"


class TestHardenedEnvelopeWithStorage:
    """The persisted per-epoch hybrid session and the body-only cache
    slots must not open a channel: hardened distances stay zero with a
    store attached, on the cold fill and on the warm repeat."""

    @pytest.mark.parametrize(
        "kind, transport", [("memory", "bus"), ("sqlite", "bus"), ("sqlite", "tcp")]
    )
    def test_cold_and_warm_distances_within_envelope(
        self, ca, client, tmp_path, kind, transport
    ):
        from repro import Federation
        from repro.mediation.access_control import allow_all
        from repro.relational.encoding import encode_relation
        from repro.storage import MemoryBackend, SQLiteBackend

        # One store per workload: base and adjacent must not invalidate
        # each other, and the second audit must find the first one's
        # entries.
        stores: dict[bytes, object] = {}

        def factory(workload, network):
            content = encode_relation(workload.relation_1) + encode_relation(
                workload.relation_2
            )
            if content not in stores:
                stores[content] = (
                    MemoryBackend() if kind == "memory"
                    else SQLiteBackend(str(tmp_path / f"audit-{len(stores)}.db"))
                )
            federation = Federation(
                ca=ca, network=network, storage=stores[content]
            )
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            return federation

        config = AuditConfig(
            spec=spec_with_seed(SEEDS[0]),
            transport=transport,
            hardened=True,
        )
        try:
            for temperature in ("cold", "warm"):
                document = differential_audit(config, federation_factory=factory)
                breaches = envelope_breaches(document, HARDENED_GATE_RULES)
                assert breaches == [], (temperature, breaches)
            assert all(store.cache_size() > 0 for store in stores.values())
        finally:
            for store in stores.values():
                store.close()


class TestHardenedCanary:
    @pytest.fixture(scope="class")
    def canary_document(self, ca, client):
        from repro import Federation
        from repro.mediation.access_control import allow_all

        def factory(workload, network):
            federation = Federation(ca=ca, network=network)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            return federation

        return differential_audit(
            AuditConfig(
                spec=spec_with_seed(SEEDS[0]),
                hardened=True,
                canary=True,
                protocols=("commutative",),
            ),
            federation_factory=factory,
        )

    def test_canary_breaches_the_hardened_envelope(self, canary_document):
        """A hardened deployment whose padding layer silently regressed
        (modelled by ``hardened=True, canary=True`` — the runs execute
        unhardened behind the size-leaking canary transport) must land
        outside the envelope, or --expect-fail in CI is meaningless."""
        document = canary_document
        assert document["hardened"] is True and document["canary"] is True
        breaches = envelope_breaches(document, HARDENED_GATE_RULES)
        assert breaches, "the planted canary leak went undetected"

    def test_canary_leak_is_visible_on_the_wire(self, canary_document):
        """The LeakyTransport really injects pad frames the adversary
        can see (guards against the canary degrading silently)."""
        kinds = canary_document["protocols"]["commutative"]["adversaries"][
            "network"
        ]["base"]["kinds"]
        assert any("leak_pad" in kind for kind in kinds)
