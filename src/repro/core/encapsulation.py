"""The one hybrid session a source uses per recipient key set and epoch.

Both ciphertext-carrying delivery phases (DAS, Listing 2; commutative,
Listing 3) send a partial result "encrypted with a newly generated
symmetric session key" (Section 2).  :func:`source_session` is where a
source gets that key: freshly generated for this delivery when it has
no storage, and otherwise persisted in its index cache under the current
key epoch — exactly like the SRA exponent — so the cached ciphertext
bodies of a query series stay decryptable and the client keeps paying
one private-key operation per source, not per query.
``DataSource.rotate_keys`` retires it with everything else of the epoch.
The slot names the DEM, so a store written under another DEM never
serves its session, nor the bodies filed under that session's
encapsulation digest.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.crypto import hybrid, rsa, symmetric
from repro.errors import StorageError
from repro.storage.base import KIND_HYBRID_SESSION, IndexCache
from repro.storage.serialize import deserialize_session, serialize_session


def recipient_digest(client_keys: Sequence[rsa.RSAPublicKey]) -> bytes:
    """Digest of the recipient key set.  It keys the session slot (and
    the hardened commutative tuple-set slots, which have no session), so
    neither is ever served to a different credential set."""
    fingerprints = sorted(hybrid.key_fingerprint(key) for key in client_keys)
    return hashlib.sha256(b"".join(fingerprints)).digest()[:16]


def session_slot(client_keys: Sequence[rsa.RSAPublicKey]) -> bytes:
    """Cache slot of the session for this recipient key set and DEM."""
    return b"session:" + symmetric.DEM_ID + b":" + recipient_digest(client_keys)


def source_session(
    cache: IndexCache | None,
    relation_name: str,
    client_keys: Sequence[rsa.RSAPublicKey],
) -> hybrid.Session:
    """The session every ciphertext of this source, recipient set and
    epoch is encrypted under.

    A missing, corrupt or unwritable slot yields a fresh session whose
    encapsulation digest no cached body is filed under, so the delivery
    degrades to a cold fill — never to a body paired with the wrong key.
    """
    if cache is None:
        return hybrid.new_session(client_keys)
    slot = session_slot(client_keys)
    blob = cache.get(relation_name, KIND_HYBRID_SESSION, slot)
    if blob is not None:
        try:
            return deserialize_session(blob)
        except StorageError:
            cache.decode_failure(KIND_HYBRID_SESSION)
    session = hybrid.new_session(client_keys)
    cache.put(
        relation_name, KIND_HYBRID_SESSION, slot, serialize_session(session)
    )
    return session
