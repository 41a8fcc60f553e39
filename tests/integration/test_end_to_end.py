"""The master invariant: every protocol reproduces the plaintext join.

For a spread of workload shapes (overlap levels, skew, domain types,
duplicate multiplicities) and every protocol/config combination, the
decrypted global result at the client must equal the reference natural
join of the (access-controlled) partial results.
"""

import pytest

from repro import (
    CommutativeConfig,
    DASConfig,
    Federation,
    PMConfig,
    run_join_query,
)
from repro.mediation.access_control import allow_all, require
from repro.relational.algebra import natural_join
from repro.relational.conditions import Comparison
from repro.relational.datagen import WorkloadSpec, generate
from repro.relational.schema import AttributeType

QUERY = "select * from R1 natural join R2"

PROTOCOL_MATRIX = [
    ("das", DASConfig(buckets=3)),
    ("das", DASConfig(strategy="singleton")),
    ("das", DASConfig(buckets=1)),
    ("das", DASConfig(buckets=16)),
    ("commutative", CommutativeConfig()),
    ("commutative", CommutativeConfig(group_bits=256)),
    ("private-matching", PMConfig()),
]

WORKLOAD_MATRIX = [
    WorkloadSpec(domain_1=5, domain_2=5, overlap=0, seed=1),
    WorkloadSpec(domain_1=5, domain_2=5, overlap=5, seed=2),
    WorkloadSpec(domain_1=8, domain_2=3, overlap=2, seed=3),
    WorkloadSpec(
        domain_1=6, domain_2=6, overlap=3,
        rows_per_value_1=4, rows_per_value_2=1, seed=4,
    ),
    WorkloadSpec(
        domain_1=6, domain_2=6, overlap=4, skew=1.2,
        rows_per_value_1=3, seed=5,
    ),
    WorkloadSpec(
        domain_1=5, domain_2=7, overlap=3,
        join_type=AttributeType.STRING, seed=6,
    ),
    WorkloadSpec(
        domain_1=1, domain_2=1, overlap=1, seed=7,
    ),
]


def build_federation(ca, client, workload):
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


@pytest.mark.parametrize("protocol,config", PROTOCOL_MATRIX)
@pytest.mark.parametrize("spec", WORKLOAD_MATRIX, ids=lambda s: f"seed{s.seed}")
def test_protocol_equals_reference_join(ca, client, spec, protocol, config):
    workload = generate(spec)
    expected = natural_join(workload.relation_1, workload.relation_2)
    federation = build_federation(ca, client, workload)
    result = run_join_query(federation, QUERY, protocol=protocol, config=config)
    assert result.global_result == expected


HARDENED_MATRIX = [
    pytest.param("das", DASConfig(buckets=3), id="das-equi_depth"),
    pytest.param("das", DASConfig(strategy="singleton"), id="das-singleton"),
    pytest.param("das", DASConfig(buckets=1), id="das-one-bucket"),
    pytest.param("commutative", None, id="commutative"),
    pytest.param("private-matching", None, id="private-matching"),
]


@pytest.mark.parametrize("protocol,config", HARDENED_MATRIX)
@pytest.mark.parametrize("spec", WORKLOAD_MATRIX, ids=lambda s: f"seed{s.seed}")
def test_hardened_protocol_equals_reference_join(
    ca, client, spec, protocol, config
):
    """Padding and dummies are observable-only on every workload shape,
    the empty intersection and the one-row domain included."""
    workload = generate(spec)
    expected = natural_join(workload.relation_1, workload.relation_2)
    federation = build_federation(ca, client, workload)
    result = run_join_query(
        federation, QUERY, protocol=protocol, config=config, hardening=True
    )
    assert result.global_result == expected
    assert "hardening" in result.artifacts
    if protocol == "das":  # every row the mediator forwards is real or a dummy
        real = len(workload.relation_1) + len(workload.relation_2)
        assert result.artifacts["server_result_size"] == (
            real + result.artifacts["dummy_rows_discarded"]
        )


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_access_control_shapes_the_join(ca, client, protocol):
    """Row filtering at a source must propagate into the global result."""
    workload = generate(
        WorkloadSpec(domain_1=6, domain_2=6, overlap=6, seed=11)
    )
    # Permit only half of R1's rows by join-value parity.
    cutoff = sorted(workload.relation_1.active_domain("k"))[2]
    policy = require(
        ("role", "analyst"), condition=Comparison("k", ">", cutoff)
    )
    federation = Federation(ca=ca)
    federation.add_source("S1", [(workload.relation_1, policy)])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)

    filtered_r1 = workload.relation_1.filter(lambda row: row[0] > cutoff)
    expected = natural_join(filtered_r1, workload.relation_2)
    result = run_join_query(federation, QUERY, protocol=protocol)
    assert result.global_result == expected
    assert 0 < len(result.global_result) < workload.expected_join_size


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_full_query_postprocessing(ca, client, protocol):
    """WHERE and projection above the join are applied at the client:
    the runner's result equals the reference evaluation of the *whole*
    query, not just the bare join."""
    from repro import reference_join

    workload = generate(
        WorkloadSpec(domain_1=6, domain_2=6, overlap=4, seed=17)
    )
    values = sorted(workload.relation_1.active_domain("k"))
    query = (
        f"select k, r2_p0 from R1 natural join R2 where k != {values[0]}"
    )
    expected = reference_join(build_federation(ca, client, workload), query)
    result = run_join_query(
        build_federation(ca, client, workload), query, protocol=protocol
    )
    assert result.global_result == expected
    assert result.global_result.schema.names() == ("k", "r2_p0")
    # The raw join (before client post-processing) is kept for audits.
    assert result.artifacts["join_rows_before_postprocessing"] >= len(expected)


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_projection_applies_after_secure_join(ca, client, protocol):
    """The protocols deliver the join; tree post-operators still apply."""
    workload = generate(WorkloadSpec(domain_1=4, domain_2=4, overlap=2, seed=13))
    federation = build_federation(ca, client, workload)
    result = run_join_query(federation, QUERY, protocol=protocol)
    # Clients can evaluate the remaining algebra locally on the result.
    from repro.relational.algebra import project

    projected = project(result.global_result, ["k"])
    assert projected.schema.names() == ("k",)
    shared = set(workload.relation_1.active_domain("k")) & set(
        workload.relation_2.active_domain("k")
    )
    assert {row[0] for row in projected} == shared


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
def test_negative_join_keys_and_literals(ca, client, protocol):
    """A negative literal in q reaches each source inside its partial
    query (selections pushed down), and negative join keys match."""
    from repro import reference_join
    from repro.relational.relation import Relation
    from repro.relational.schema import schema

    relation_1 = Relation(
        schema("R1", k="int", a="string"),
        [(-3, "a"), (-2, "b"), (-1, "c"), (-1, "d"), (0, "e"), (5, "f")],
    )
    relation_2 = Relation(
        schema("R2", k="int", b="string"),
        [(-3, "p"), (-2, "q"), (-1, "r"), (4, "s"), (5, "t")],
    )
    federation = Federation(ca=ca)
    federation.mediator.push_down = True
    federation.add_source("S1", [(relation_1, allow_all())])
    federation.add_source("S2", [(relation_2, allow_all())])
    federation.attach_client(client)
    query = QUERY + " where k > -3 and k != -2"
    partial_queries = federation.mediator.decompose_join(query).partial_queries
    assert [leaf.sql for leaf in partial_queries] == [
        "select * from R1 where (k > -3 AND k != -2)",
        "select * from R2 where (k > -3 AND k != -2)",
    ]
    result = run_join_query(federation, query, protocol=protocol)
    assert result.global_result == reference_join(federation, query)
    assert sorted(row[0] for row in result.global_result) == [-1, -1, 5]
