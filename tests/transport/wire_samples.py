"""The values behind ``fixtures/wire_v2.json``, built without any crypto.

Every object here is plain data, so the encodings are deterministic.
The golden-bytes test compares :func:`golden_document` with the
committed file; after an *intended* layout change (which bumps
``codec.VERSION``) regenerate it with::

    PYTHONPATH=src:. python -m tests.transport.wire_samples \\
        > tests/transport/fixtures/wire_v2.json
"""

import json
import struct
from itertools import chain, product

from repro.core.das import EncryptedTuple, ServerResult
from repro.crypto.hybrid import Encapsulation, HybridCiphertext
from repro.transport import codec

TRACE = ("0123456789abcdef0123456789abcdef", "fedcba9876543210")
REQUEST_ID = "a1b2c3d4:7"
SESSION_ID = "feedc0de00000001"

#: One envelope per combination of the three optional header fields,
#: keyed by the flags byte the combination produces.
ENVELOPES = {
    f"0x{trace << 0 | request << 1 | session << 2:02x}": dict(
        sequence=7,
        sender="S1",
        receiver="mediator",
        kind="das_server_query",
        body={"pairs": [(1, 2), (3, 4)], "note": "golden ❤"},
        trace=TRACE if trace else None,
        request_id=REQUEST_ID if request else None,
        session_id=SESSION_ID if session else None,
    )
    for session, request, trace in product((0, 1), repeat=3)
}


def server_result() -> ServerResult:
    """Two rows by three rows, five pairs: every row repeats."""
    kem = Encapsulation({b"\x11" * 16: b"\x22" * 24})
    rows_1 = [
        EncryptedTuple(HybridCiphertext(kem, b"left-%d" % i), 100 + i)
        for i in range(2)
    ]
    rows_2 = [
        EncryptedTuple(HybridCiphertext(kem, b"right-%d" % j), 200 + j, ("p",))
        for j in range(3)
    ]
    positions = [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2)]
    return ServerResult(
        rows_1, rows_2, struct.pack(">10I", *chain.from_iterable(positions))
    )


def golden_document() -> dict:
    return {
        "comment": (
            "Golden wire bytes (hex): one envelope per optional-field "
            "combination, keyed by its flags byte, and the value encoding "
            "of one small ServerResult; see tests/transport/wire_samples.py"
        ),
        "version": codec.VERSION,
        "envelopes": {
            flags: codec.encode_envelope(**fields).hex()
            for flags, fields in ENVELOPES.items()
        },
        "server_result": codec.encode_value(server_result()).hex(),
    }


if __name__ == "__main__":
    print(json.dumps(golden_document(), indent=1))
