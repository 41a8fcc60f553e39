"""Tests for JSON key/credential serialization."""

import pytest

from repro.crypto import paillier, serialization
from repro.errors import EncodingError


class TestRSA:
    def test_public_round_trip(self, rsa_key):
        public = rsa_key.public_key()
        restored = serialization.rsa_public_from_dict(
            serialization.rsa_public_to_dict(public)
        )
        assert restored == public

    def test_private_round_trip(self, rsa_key):
        restored = serialization.rsa_private_from_dict(
            serialization.rsa_private_to_dict(rsa_key)
        )
        assert restored == rsa_key

    def test_private_still_works(self, rsa_key):
        from repro.crypto import rsa

        restored = serialization.rsa_private_from_dict(
            serialization.rsa_private_to_dict(rsa_key)
        )
        ct = rsa.oaep_encrypt(restored.public_key(), b"msg")
        assert rsa.oaep_decrypt(restored, ct) == b"msg"

    def test_kind_mismatch_rejected(self, rsa_key):
        payload = serialization.rsa_private_to_dict(rsa_key)
        with pytest.raises(EncodingError):
            serialization.rsa_public_from_dict(payload)

    def test_inconsistent_factors_rejected(self, rsa_key):
        payload = serialization.rsa_private_to_dict(rsa_key)
        payload["p"] = str(int(payload["p"]) + 2)
        with pytest.raises(EncodingError):
            serialization.rsa_private_from_dict(payload)


class TestPaillier:
    def test_round_trip_and_decrypt(self, paillier_key):
        restored = serialization.paillier_private_from_dict(
            serialization.paillier_private_to_dict(paillier_key)
        )
        ct = paillier.encrypt(restored.public_key, 42)
        assert paillier.decrypt(restored, ct) == 42

    def test_round_trip_keeps_factorisation(self, paillier_key):
        payload = serialization.paillier_private_to_dict(paillier_key)
        assert {payload["p"], payload["q"]} == {
            str(paillier_key.p), str(paillier_key.q)
        }
        assert serialization.paillier_private_from_dict(payload) == paillier_key

    def test_snapshot_without_factors_recovers_them(self, paillier_key):
        payload = serialization.paillier_private_to_dict(paillier_key)
        del payload["p"], payload["q"]
        restored = serialization.paillier_private_from_dict(payload)
        assert {restored.p, restored.q} == {paillier_key.p, paillier_key.q}
        ct = paillier.encrypt(restored.public_key, 42)
        assert paillier.decrypt(restored, ct) == 42

    @pytest.mark.parametrize("keep_factors", [True, False])
    @pytest.mark.parametrize("field", ["lam", "mu", "n"])
    def test_inconsistent_material_rejected(self, paillier_key, field, keep_factors):
        payload = serialization.paillier_private_to_dict(paillier_key)
        if not keep_factors:
            del payload["p"], payload["q"]
        payload[field] = str(int(payload[field]) + 2)
        with pytest.raises(EncodingError):
            serialization.paillier_private_from_dict(payload)

    def test_swapped_in_factors_rejected(self, paillier_key):
        payload = serialization.paillier_private_to_dict(paillier_key)
        payload["p"], payload["q"] = "1", payload["n"]
        with pytest.raises(EncodingError):
            serialization.paillier_private_from_dict(payload)

    def test_public_round_trip(self, paillier_key):
        public = paillier_key.public_key
        restored = serialization.paillier_public_from_dict(
            serialization.paillier_public_to_dict(public)
        )
        assert restored == public


class TestCredential:
    def test_round_trip_preserves_signature(self, ca, rsa_key):
        from repro.mediation.ca import verify_credential

        credential = ca.issue_credential(
            {("role", "x"), ("org", "y")}, rsa_key.public_key()
        )
        restored = serialization.credential_from_dict(
            serialization.credential_to_dict(credential)
        )
        assert restored.properties == credential.properties
        assert verify_credential(restored, ca.verification_key)


class TestJSONLayer:
    def test_dumps_loads(self, rsa_key):
        text = serialization.dumps(serialization.rsa_public_to_dict(
            rsa_key.public_key()
        ))
        payload = serialization.loads(text)
        assert payload["kind"] == "rsa-public"

    def test_invalid_json(self):
        with pytest.raises(EncodingError):
            serialization.loads("{nope")

    def test_missing_kind(self):
        with pytest.raises(EncodingError):
            serialization.loads('{"n": "3"}')

    def test_non_dict(self):
        with pytest.raises(EncodingError):
            serialization.loads("[1, 2]")
