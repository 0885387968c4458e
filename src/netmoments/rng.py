"""Deterministic random streams.

All randomness in this package flows through Philox counter-based
generators keyed by a BLAKE2 hash of ``(seed, *labels)``.  Distinct
labels give statistically independent streams, so replicates can be
generated in any order (or in parallel) and still reproduce bit for bit.

Determinism contract: the same seed gives the same bytes, whatever the
thread count or the block size of a batched computation.  Every sampled
network, bootstrap replicate and Monte-Carlo truth draw owns a stream
keyed by its own labels (never by its position in a block or a thread),
and :class:`KeyedStreams` re-keys one reusable generator to exactly the
state :func:`stream` would build, so batched and one-at-a-time code
draw identical numbers.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["stream", "substream_seed", "KeyedStreams"]


def _digest(seed: int, labels: tuple) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for lab in labels:
        if isinstance(lab, (int, np.integer)):
            h.update(b"i" + int(lab).to_bytes(16, "little", signed=True))
        elif isinstance(lab, str):
            h.update(b"s" + lab.encode("utf-8") + b"\x00")
        else:
            raise TypeError(f"stream labels must be str or int, got {type(lab).__name__}")
    return h.digest()


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator keyed by ``hash(seed, *labels)``."""
    key = int.from_bytes(_digest(seed, labels), "little")
    return np.random.Generator(np.random.Philox(key=key))


def substream_seed(seed: int, *labels) -> int:
    """Derive a 63-bit integer seed for handing to seeded operations."""
    return int.from_bytes(_digest(seed, labels)[:8], "little") >> 1


class KeyedStreams:
    """One reusable generator, re-keyed per draw to match :func:`stream`.

    ``streams(seed, *labels)`` returns a generator in exactly the state
    of a fresh ``stream(seed, *labels)``, without constructing a new bit
    generator (whose construction seeds a throwaway ``SeedSequence``).
    The returned generator is re-keyed by the next call, so finish with
    it first.  An instance is not thread-safe: give each thread (or each
    batched call) its own.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._generator = np.random.Generator(self._bitgen)
        # Philox(key=k) holds k as two little-endian 64-bit words with a
        # zero counter and an empty output buffer.
        self._keyed = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._keyed,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def __call__(self, seed: int, *labels) -> np.random.Generator:
        self._keyed["key"] = struct.unpack("<2Q", _digest(seed, labels))
        self._bitgen.state = self._state
        return self._generator
