"""Hybrid encryption — the paper's ``encrypt(...)`` / ``decrypt(...)``.

Section 2: *"This information is best encrypted with a hybrid encryption
scheme; that is, the information is encrypted with a newly generated
symmetric session key and the session key is encrypted with the public
keys of the client."*

"This information" is a transferred partial result, so the newly
generated key is one per *transfer*, not one per tuple.  The construction
is KEM/DEM with the two halves kept apart:

* a :class:`Session` is one fresh session key together with its
  :class:`Encapsulation` — the key wrapped under each client public key
  with RSA-OAEP, keyed by key fingerprint, so the client can unwrap with
  whichever private key matches (a credential may present several);
* every :class:`HybridCiphertext` the session emits is a DEM body
  (:mod:`repro.crypto.symmetric`) with its own random nonce that
  *references* the session's encapsulation.

A source therefore pays one public-key operation per delivery (or per
key epoch, when its storage persists the session) and the client one
private-key operation per distinct encapsulation, however many tuples
travel.  :func:`encrypt` is the one-ciphertext session.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.crypto import instrumentation, rsa, symmetric
from repro.crypto.hashes import fingerprint
from repro.crypto.numtheory import int_to_bytes
from repro.errors import DecryptionError, ParameterError


def key_fingerprint(public_key: rsa.RSAPublicKey) -> bytes:
    """Stable 16-byte identifier of an RSA public key."""
    material = int_to_bytes(public_key.n) + b"/" + int_to_bytes(public_key.e)
    return fingerprint(material)


class Encapsulation(Mapping[bytes, bytes]):
    """One session key wrapped per recipient: key fingerprint -> OAEP blob.

    Immutable.  All ciphertexts of a session hold the *same* object,
    which is what lets the wire codec intern it (sent in full once per
    envelope, as a 5-byte reference thereafter) and the size estimator
    count it once per message body.
    """

    __slots__ = ("_wrapped", "_digest")

    def __init__(self, wrapped: Mapping[bytes, bytes]) -> None:
        self._wrapped = dict(wrapped)
        if not all(
            isinstance(part, bytes)
            for item in self._wrapped.items()
            for part in item
        ):
            raise ParameterError("an encapsulation maps bytes to bytes")
        material = hashlib.sha256()
        for fp in sorted(self._wrapped):
            for part in (fp, self._wrapped[fp]):
                material.update(len(part).to_bytes(4, "big") + part)
        self._digest = material.digest()[:16]

    def __getitem__(self, fp: bytes) -> bytes:
        return self._wrapped[fp]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._wrapped)

    def __len__(self) -> int:
        return len(self._wrapped)

    def __repr__(self) -> str:
        return f"Encapsulation({self._digest.hex()}, recipients={len(self)})"

    def digest(self) -> bytes:
        """16-byte identifier of this encapsulation.

        Cache slots holding DEM bodies embed it, so a body is only ever
        served next to the encapsulation it was encrypted under.
        """
        return self._digest

    def size_bytes(self) -> int:
        return sum(len(fp) + len(blob) for fp, blob in self._wrapped.items())


#: Header of one serialized ciphertext, as the wire codec lays it out:
#: the ``hybrid-ct`` type tag (11 bytes), the field and body length
#: prefixes (5 + 5) and the 5-byte reference to its encapsulation.  A
#: ciphertext without a wrapped key of its own is small enough for the
#: header to matter, so size accounting includes it.
CIPHERTEXT_HEADER_BYTES = 26


@dataclass(frozen=True)
class HybridCiphertext:
    """A DEM body plus (a reference to) its session's encapsulation."""

    wrapped_keys: Encapsulation
    body: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.wrapped_keys, Encapsulation):
            raise ParameterError("a hybrid ciphertext holds an Encapsulation")

    def size_bytes(self) -> int:
        """Serialized size of this ciphertext travelling alone.

        :func:`repro.mediation.sizing.estimate_size` counts an
        encapsulation shared by many ciphertexts once per message body.
        """
        return (
            self.wrapped_keys.size_bytes()
            + CIPHERTEXT_HEADER_BYTES
            + len(self.body)
        )


@dataclass(frozen=True)
class Session:
    """Sender half of one key encapsulation: the key and its wraps."""

    key: symmetric.SessionKey
    encapsulation: Encapsulation

    def encrypt(
        self, plaintext: bytes, associated_data: bytes = b""
    ) -> HybridCiphertext:
        """One more ciphertext of this session (fresh nonce, shared wrap)."""
        instrumentation.record("hybrid.encrypt")
        body = symmetric.encrypt(self.key, plaintext, associated_data)
        return HybridCiphertext(self.encapsulation, body)


def new_session(public_keys: Iterable[rsa.RSAPublicKey]) -> Session:
    """Generate a session key and wrap it for the holder of any listed key."""
    keys = list(public_keys)
    if not keys:
        raise DecryptionError("hybrid encryption requires at least one key")
    master = symmetric.generate_key()
    wrapped = {key_fingerprint(key): rsa.oaep_encrypt(key, master) for key in keys}
    return Session(symmetric.SessionKey(master), Encapsulation(wrapped))


class SessionKeyMemo:
    """Receiver-side memo: wrapped blob -> unwrapped session key.

    A source's index table, its rows and — with storage — every later
    query of the epoch reference one encapsulation; remembering the last
    few unwrapped keys makes that one private-key operation in total.
    Small, LRU-bounded (a long-lived client must not accumulate key
    material) and thread-safe (concurrent sessions share one client).
    """

    def __init__(self, capacity: int = 8) -> None:
        self._capacity = capacity
        self._keys: OrderedDict[bytes, symmetric.SessionKey] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, wrapped: bytes) -> symmetric.SessionKey | None:
        with self._lock:
            key = self._keys.get(wrapped)
            if key is not None:
                self._keys.move_to_end(wrapped)
            return key

    def __setitem__(self, wrapped: bytes, key: symmetric.SessionKey) -> None:
        with self._lock:
            self._keys[wrapped] = key
            self._keys.move_to_end(wrapped)
            while len(self._keys) > self._capacity:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)


def unwrap(
    private_key: rsa.RSAPrivateKey, encapsulation: Encapsulation
) -> symmetric.SessionKey:
    """Recover the session key with ``private_key`` — the one private-key
    operation all ciphertexts of a session share."""
    wrapped = encapsulation.get(key_fingerprint(private_key.public_key()))
    if wrapped is None:
        raise DecryptionError("no session key wrapped for this private key")
    master = rsa.oaep_decrypt(private_key, wrapped)
    try:
        return symmetric.SessionKey(master)
    except ParameterError as exc:
        raise DecryptionError("encapsulation does not hold a session key") from exc


def encrypt(
    public_keys: Iterable[rsa.RSAPublicKey],
    plaintext: bytes,
    associated_data: bytes = b"",
) -> HybridCiphertext:
    """Hybrid-encrypt ``plaintext`` alone: a session of one ciphertext."""
    return new_session(public_keys).encrypt(plaintext, associated_data)


def decrypt(
    private_key: rsa.RSAPrivateKey,
    ciphertext: HybridCiphertext,
    associated_data: bytes = b"",
) -> bytes:
    """Unwrap the session key with ``private_key`` and decrypt the body."""
    instrumentation.record("hybrid.decrypt")
    session_key = unwrap(private_key, ciphertext.wrapped_keys)
    return symmetric.decrypt(session_key, ciphertext.body, associated_data)


def session_encrypt(session_key: bytes, plaintext: bytes) -> bytes:
    """DEM-only encryption under an explicit session key.

    Used by the footnote-2 variant of the private-matching protocol: the
    session key itself travels inside the homomorphic payload while the
    (possibly large) tuple set is encrypted symmetrically and shipped in
    a side table.
    """
    instrumentation.record("hybrid.session_encrypt")
    return symmetric.encrypt(session_key, plaintext)


def session_decrypt(session_key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`session_encrypt`."""
    instrumentation.record("hybrid.session_decrypt")
    return symmetric.decrypt(session_key, ciphertext)
