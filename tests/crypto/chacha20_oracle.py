"""Reference ChaCha20: the block-at-a-time implementation the lane-packed
kernel of :mod:`repro.crypto.symmetric` replaced.

One block per call, one Python ``int`` per state word, a list for the
state — RFC 7539 section 2.3 transcribed, slow and easy to check by eye.
It is kept only as the oracle of ``test_symmetric.py``'s differential
tests; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One ChaCha20 block (RFC 7539 section 2.3): 64 keystream bytes."""
    assert len(key) == 32 and len(nonce) == 12 and 0 <= counter <= _MASK32
    constants = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
    state = list(constants)
    state.extend(struct.unpack("<8L", key))
    state.append(counter)
    state.extend(struct.unpack("<3L", nonce))

    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    output = [(w + s) & _MASK32 for w, s in zip(working, state)]
    return struct.pack("<16L", *output)


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream, a block and a byte at a time."""
    out = bytearray(len(data))
    for block_index in range(0, len(data), 64):
        keystream = chacha20_block(key, counter + block_index // 64, nonce)
        chunk = data[block_index:block_index + 64]
        out[block_index:block_index + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, keystream)
        )
    return bytes(out)
