"""Tests for the Table-2 primitive audit (E2)."""

import pytest

from repro import run_join_query
from repro.analysis.primitives import (
    baseline_operations,
    primitive_profile,
    table2,
)

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def results(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def factory():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return {
        protocol: run_join_query(factory(), QUERY, protocol=protocol)
        for protocol in ("das", "commutative", "private-matching")
    }


class TestTable2Rows:
    """Each row must match the paper's Table 2 exactly."""

    def test_das_uses_hash_only(self, results):
        profile = primitive_profile(results["das"])
        assert profile.category_names() == ("hashfunction",)

    def test_commutative_uses_hash_and_commutative(self, results):
        profile = primitive_profile(results["commutative"])
        assert profile.category_names() == (
            "commutative encryption",
            "hashfunction",
        )

    def test_pm_uses_homomorphic_and_randoms(self, results):
        profile = primitive_profile(results["private-matching"])
        assert profile.category_names() == (
            "homomorphic encryption",
            "random numbers",
        )


class TestOperationCounts:
    def test_commutative_encryption_count(self, results, workload):
        # Each source encrypts its own domain once and the opposite
        # domain once: 2 * (n + m) applications in total.
        profile = primitive_profile(results["commutative"])
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert profile.operations["commutative.encrypt"] == 2 * (n + m)

    def test_ideal_hash_count(self, results, workload):
        profile = primitive_profile(results["commutative"])
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert profile.operations["hash.ideal"] == n + m

    def test_pm_mask_count(self, results, workload):
        # One fresh random mask per own active value per source.
        profile = primitive_profile(results["private-matching"])
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert profile.operations["random.pm_mask"] == n + m

    def test_pm_coefficient_encryptions(self, results, workload):
        profile = primitive_profile(results["private-matching"])
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        # The n low coefficients of P1 plus the m of P2: the leading
        # (-1)^n is public and never encrypted.
        assert profile.operations["paillier.encrypt"] == n + m

    def test_das_collision_free_hash_per_partition(self, results):
        profile = primitive_profile(results["das"])
        assert profile.operations.get("hash.collision_free", 0) >= 2


@pytest.mark.parametrize("domain", [4, 8, 16])
class TestClosedForms:
    """Primitive counts as formulas of n = m = |domactive|, at three
    sizes: counts do not depend on key size, so the linear (commutative)
    and quadratic (private matching) shapes pinned here at test keys are
    the ones the 2048-bit benchmark pays for."""

    @pytest.fixture
    def run(self, make_federation, domain):
        from repro.relational.datagen import WorkloadSpec, generate

        workload = generate(
            WorkloadSpec(
                domain_1=domain, domain_2=domain, overlap=domain // 2,
                rows_per_value_1=2, rows_per_value_2=2, seed=domain,
            )
        )
        return lambda protocol: run_join_query(
            make_federation(workload), QUERY, protocol=protocol
        ).primitive_counter.counts

    def test_commutative_is_linear(self, run, domain):
        n = m = domain
        assert run("commutative")["commutative.encrypt"] == 2 * (n + m)

    def test_private_matching_is_quadratic(self, run, domain):
        n = m = domain
        counts = run("private-matching")
        # The n low coefficients of each polynomial: the leading one is
        # the public (-1)^n.
        assert counts["paillier.encrypt"] == n + m
        # Per evaluation n - 1 Horner steps and one mask, m evaluations
        # of P1 and n of P2.
        assert counts["paillier.scalar_multiply"] == 2 * n * m
        assert counts["paillier.decrypt"] == n + m


class TestBaselineExclusion:
    def test_hybrid_machinery_not_in_categories(self, results):
        # All protocols use hybrid encryption heavily, yet Table 2 lists
        # it as baseline - the audit must exclude it.
        for result in results.values():
            baseline = baseline_operations(result.primitive_counter)
            assert any(op.startswith("rsa.") for op in baseline) or any(
                op.startswith("symmetric.") for op in baseline
            )

    def test_das_baseline_has_hybrid_encrypts(self, results, workload):
        baseline = baseline_operations(results["das"].primitive_counter)
        # One hybrid ciphertext per tuple plus one per index table...
        expected = len(workload.relation_1) + len(workload.relation_2) + 2
        assert baseline["hybrid.encrypt"] == expected
        # ...all of a source's under one session: one key wrap per source,
        # one unwrap per source at the client.
        assert baseline["rsa.encrypt"] == 2
        assert baseline["rsa.decrypt"] == 2


class TestRendering:
    def test_table2_renders(self, results):
        text = table2([primitive_profile(r) for r in results.values()])
        assert "hashfunction" in text
        assert "commutative encryption" in text
        assert "homomorphic encryption and random numbers" in text
