"""Tests for the statistical indistinguishability checks."""

import dataclasses
import math
import secrets

import pytest

from repro import run_join_query
from repro.analysis.statistics import (
    byte_uniformity,
    chi_square_sf,
    ciphertext_material,
    commutative_tag_spread,
    mediator_ciphertext_uniformity,
)
from repro.telemetry.observables import detect_roles
from repro.errors import ProtocolError
from repro.transport.base import PartyView

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def factory(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def make():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return make


class TestByteUniformity:
    def test_random_bytes_pass(self):
        report = byte_uniformity(secrets.token_bytes(1 << 16))
        assert report.looks_uniform
        assert report.sample_bytes == 1 << 16

    def test_structured_bytes_fail(self):
        report = byte_uniformity(b"AAAA" * 1024)
        assert not report.looks_uniform

    def test_english_text_fails(self):
        text = (b"the quick brown fox jumps over the lazy dog " * 100)
        assert not byte_uniformity(text).looks_uniform

    def test_small_sample_rejected(self):
        with pytest.raises(ProtocolError):
            byte_uniformity(b"tiny")


class TestChiSquareTail:
    """The stdlib tail probability against tabulated critical values of
    the chi-square law with 255 degrees of freedom (the byte histogram's)."""

    @pytest.mark.parametrize(
        "critical, p",
        [(293.2478, 0.05), (310.4574, 0.01), (330.5197, 1e-3), (377.0781, 1e-6)],
    )
    def test_tabulated_critical_values(self, critical, p):
        assert chi_square_sf(critical, 255) == pytest.approx(p, rel=1e-4)

    @pytest.mark.parametrize("x", [0.5, 3.0, 40.0, 700.0])
    def test_two_degrees_is_the_exponential_law(self, x):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_zero_statistic(self):
        assert chi_square_sf(0.0, 255) == 1.0

    def test_the_two_expansions_meet(self):
        """The series serves x < k + 2 (x/2 < k/2 + 1), the continued
        fraction the rest: the tail stays continuous and decreasing."""
        tails = [chi_square_sf(200 + i * 0.5, 255) for i in range(240)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert chi_square_sf(256.9999, 255) == pytest.approx(
            chi_square_sf(257.0001, 255), rel=1e-4
        )


class TestMediatorMaterial:
    @pytest.mark.parametrize(
        "protocol", ["das", "commutative", "private-matching"]
    )
    def test_ciphertext_material_looks_uniform(self, factory, protocol):
        result = run_join_query(factory(), QUERY, protocol=protocol)
        report = mediator_ciphertext_uniformity(result)
        assert report.looks_uniform, (
            protocol, report.p_value, report.sample_bytes,
        )

    def test_material_extraction_nonempty(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        view = result.view(detect_roles(result.messages)["mediator"])
        assert len(ciphertext_material(view)) > 1024

    def test_server_result_positions_are_not_material(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        (message,) = [
            m for m in result.messages if m.kind == "das_server_result"
        ]
        assert len(message.body.positions) >= 16
        without_positions = dataclasses.replace(
            message,
            body=dataclasses.replace(message.body, positions=b""),
        )
        assert ciphertext_material(
            PartyView("client", received=[message])
        ) == ciphertext_material(
            PartyView("client", received=[without_positions])
        )


class TestTagSpread:
    def test_commutative_tags(self, factory, workload):
        result = run_join_query(factory(), QUERY, protocol="commutative")
        report = commutative_tag_spread(result)
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert report.tags == n + m
        assert report.collision_free
        # No tiny element betrays structure.
        assert report.min_bits >= report.modulus_bits - 16

    def test_requires_commutative_run(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        with pytest.raises(ProtocolError):
            commutative_tag_spread(result)
