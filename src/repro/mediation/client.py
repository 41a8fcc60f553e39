"""The client party: key material, credentials, decryption helpers.

The client owns

* one or more RSA key pairs — public halves are embedded in credentials,
  private halves unwrap hybrid ciphertexts,
* (for private matching) one additively homomorphic key pair — the paper
  decided "that the client ... should be the only one to generate a
  public-private homomorphic key pair" (Section 5.1),
* the credential set issued by the certification authority, plus the
  identity certificates kept off the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.crypto import rsa
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.homomorphic import AdditiveHomomorphicScheme, PaillierScheme
from repro.crypto.hybrid import HybridCiphertext, SessionKeyMemo, key_fingerprint
from repro.errors import CredentialError, DecryptionError
from repro.mediation.ca import CertificationAuthority
from repro.mediation.credentials import Credential, IdentityCertificate, Property
from repro.telemetry import tracing


@dataclass
class Client:
    """A mediation client with its complete key material."""

    name: str
    credentials: list[Credential] = field(default_factory=list)
    identity_certificates: list[IdentityCertificate] = field(default_factory=list)
    rsa_keys: dict[bytes, rsa.RSAPrivateKey] = field(default_factory=dict)
    homomorphic_scheme: AdditiveHomomorphicScheme | None = None
    homomorphic_key: Any = None
    _session_keys: SessionKeyMemo = field(
        default_factory=SessionKeyMemo, repr=False, compare=False
    )

    # -- hybrid decryption -------------------------------------------------

    def decrypt_hybrid(
        self, ciphertext: HybridCiphertext, associated_data: bytes = b""
    ) -> bytes:
        """Unwrap with whichever private key matches the ciphertext —
        the one-item case of :meth:`decrypt_hybrid_many`."""
        return self.decrypt_hybrid_many([ciphertext], associated_data)[0]

    def decrypt_hybrid_many(
        self,
        ciphertexts: Sequence[HybridCiphertext],
        associated_data: bytes = b"",
        engine: CryptoEngine | None = None,
    ) -> list[bytes]:
        """Batch :meth:`decrypt_hybrid` through the crypto engine.

        Ciphertexts are grouped by the private key that unwraps them so
        each group decrypts in one engine batch; the result list keeps
        the input order.  Session keys unwrapped along the way are
        remembered (:class:`SessionKeyMemo`), so ciphertexts of a session
        seen before cost no private-key operation.
        """
        with tracing.span(
            "decrypt_hybrid_many", self.name,
            kind="mediation", items=len(ciphertexts),
        ):
            return self._decrypt_hybrid_many(
                ciphertexts, associated_data, engine
            )

    def _decrypt_hybrid_many(
        self,
        ciphertexts: Sequence[HybridCiphertext],
        associated_data: bytes,
        engine: CryptoEngine | None,
    ) -> list[bytes]:
        engine = engine or get_engine()
        by_key: dict[bytes, tuple[rsa.RSAPrivateKey, list[int]]] = {}
        for position, ciphertext in enumerate(ciphertexts):
            for fingerprint, private_key in self.rsa_keys.items():
                if fingerprint in ciphertext.wrapped_keys:
                    by_key.setdefault(fingerprint, (private_key, []))[1].append(
                        position
                    )
                    break
            else:
                raise DecryptionError(
                    f"client {self.name} holds no key for this hybrid ciphertext"
                )
        plaintexts: list[bytes | None] = [None] * len(ciphertexts)
        for private_key, positions in by_key.values():
            decrypted = engine.batch_hybrid_decrypt(
                private_key,
                [ciphertexts[i] for i in positions],
                associated_data,
                session_keys=self._session_keys,
            )
            for position, plaintext in zip(positions, decrypted):
                plaintexts[position] = plaintext
        return plaintexts  # type: ignore[return-value]

    # -- homomorphic key -----------------------------------------------------

    @property
    def homomorphic_public_key(self) -> Any:
        """Public half distributed with the credentials (Section 5.1)."""
        if self.homomorphic_scheme is None or self.homomorphic_key is None:
            raise CredentialError(
                f"client {self.name} has no homomorphic key pair"
            )
        return self.homomorphic_scheme.public_key(self.homomorphic_key)

    def decrypt_homomorphic(self, ciphertext: Any) -> int:
        if self.homomorphic_scheme is None:
            raise CredentialError(
                f"client {self.name} has no homomorphic key pair"
            )
        return self.homomorphic_scheme.decrypt(self.homomorphic_key, ciphertext)

    def decrypt_homomorphic_many(
        self, ciphertexts: Sequence[Any], engine: CryptoEngine | None = None
    ) -> list[int]:
        """Batch :meth:`decrypt_homomorphic` through the crypto engine."""
        if self.homomorphic_scheme is None:
            raise CredentialError(
                f"client {self.name} has no homomorphic key pair"
            )
        engine = engine or get_engine()
        with tracing.span(
            "decrypt_homomorphic_many", self.name,
            kind="mediation", items=len(ciphertexts),
        ):
            return engine.batch_scheme_decrypt(
                self.homomorphic_scheme, self.homomorphic_key, ciphertexts
            )

    # -- credential selection --------------------------------------------------

    def credential_public_keys(self) -> list[rsa.RSAPublicKey]:
        seen: set[bytes] = set()
        keys = []
        for credential in self.credentials:
            fp = credential.fingerprint()
            if fp not in seen:
                seen.add(fp)
                keys.append(credential.public_key)
        return keys


def setup_client(
    ca: CertificationAuthority,
    identity: str,
    properties: set[Property],
    key_count: int = 1,
    rsa_bits: int = 1024,
    homomorphic_scheme: AdditiveHomomorphicScheme | None = None,
) -> Client:
    """The preparatory phase: generate keys, acquire credentials.

    Produces ``key_count`` RSA key pairs and one credential per key, each
    asserting the full property set (richer splits — one property per
    credential — can be assembled manually from the CA API).  When a
    homomorphic scheme is given, a homomorphic key pair is generated so
    the private-matching protocol can run.
    """
    client = Client(name=identity)
    for _ in range(key_count):
        private_key = rsa.generate_keypair(rsa_bits)
        public_key = private_key.public_key()
        client.rsa_keys[key_fingerprint(public_key)] = private_key
        client.credentials.append(ca.issue_credential(properties, public_key))
        client.identity_certificates.append(
            ca.issue_identity_certificate(identity, public_key)
        )
    if homomorphic_scheme is not None:
        client.homomorphic_scheme = homomorphic_scheme
        client.homomorphic_key = homomorphic_scheme.generate_keypair()
    return client


def default_homomorphic_scheme(key_bits: int = 512) -> PaillierScheme:
    """The paper's default: Paillier."""
    return PaillierScheme(key_bits)
