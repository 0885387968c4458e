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

import functools
import hashlib
import struct
import threading

import numpy as np

__all__ = ["stream", "substream_seed", "KeyedStreams", "thread_streams"]


@functools.lru_cache(maxsize=256)
def _str_label(label: str) -> bytes:
    """A string label's bytes in the key; the protocols reuse a few labels."""
    return b"s" + label.encode("utf-8") + b"\x00"


def _seed_bytes(seed: int) -> bytes:
    """The seed's part of a stream key: 16-byte two's complement little-endian."""
    try:
        return int(seed).to_bytes(16, "little", signed=True)
    except OverflowError:
        raise ValueError(f"seed must lie in the signed 128-bit range [-2**127, 2**127), "
                         f"got {seed}") from None


def _digest(seed: int, labels: tuple) -> bytes:
    """BLAKE2b-128 of the seed and each label, as 16-byte two's complement
    little-endian ints (labels prefixed ``i``) and NUL-terminated UTF-8
    strings (prefixed ``s``), joined and hashed in one call."""
    parts = [_seed_bytes(seed)]
    for lab in labels:
        if isinstance(lab, str):
            parts.append(_str_label(lab))
        elif isinstance(lab, (int, np.integer)):
            parts.append(b"i" + int(lab).to_bytes(16, "little", signed=True))
        else:
            raise TypeError(f"stream labels must be str or int, got {type(lab).__name__}")
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


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
    it first.  An instance is not thread-safe: the samplers and the
    bootstraps share one per thread, from :func:`thread_streams`, so a
    caller that samples from several threads (the library starts none)
    gets one generator in each.
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

    def words(self, seed: int, label: str, b0: int, b1: int, k: int) -> np.ndarray:
        """The first ``k`` raw 64-bit words of the streams ``(seed, label, b)``
        for ``b = b0 .. b1-1``, as a uint64 array ``(b1 - b0, k)``: row b is
        ``stream(seed, label, b).bit_generator.random_raw(k)``.

        The ``(seed, label)`` part of the key is hashed once and each row's
        hash continues a copy of it, which halves the keying cost of a row.
        """
        prefix = hashlib.blake2b(_seed_bytes(seed) + _str_label(label), digest_size=16)
        bitgen, keyed, state = self._bitgen, self._keyed, self._state
        out = np.empty((b1 - b0, k), dtype=np.uint64)
        for row, b in enumerate(range(b0, b1)):
            h = prefix.copy()
            h.update(b"i" + b.to_bytes(16, "little", signed=True))
            keyed["key"] = struct.unpack("<2Q", h.digest())
            bitgen.state = state
            out[row] = bitgen.random_raw(k)
        return out


_local = threading.local()


def thread_streams() -> KeyedStreams:
    """The calling thread's :class:`KeyedStreams`, built on its first call.

    Building one seeds a throwaway ``SeedSequence`` (~90 µs), which a
    fresh instance per sampled block or bootstrap call would pay every
    time.  Finish with each generator it returns before the next call in
    the same thread.
    """
    try:
        return _local.streams
    except AttributeError:
        _local.streams = KeyedStreams()
        return _local.streams
