"""Tests for the statistical indistinguishability checks."""

import dataclasses
import secrets

import pytest

from repro import run_join_query
from repro.analysis.statistics import (
    byte_uniformity,
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
        view = result.network.view(detect_roles(result.messages)["mediator"])
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
        assert report.well_spread

    def test_requires_commutative_run(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        with pytest.raises(ProtocolError):
            commutative_tag_spread(result)
