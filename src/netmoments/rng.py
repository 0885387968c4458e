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

Batched code hashes each key once, and shares what keys have in common:
the keys ``(seed, label, b)`` of a run of ``b`` (a bootstrap's replicate
streams, a Monte-Carlo truth's network seeds) continue copies of one
hash of their ``(seed, label)`` prefix (:func:`_prefixed_digests`), and
:meth:`KeyedStreams.uniforms` keys the stream ``(seed, label)`` of each
of a block's seeds with one BLAKE2b call.  BLAKE2b reads its input as
one byte string however it is fed, so these are :func:`_digest`'s keys.
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


def _prefixed_digests(seed: int, label: str, b0: int, b1: int):
    """The key digests ``_digest(seed, (label, b))`` for ``b = b0 .. b1-1``, in order.

    The ``(seed, label)`` prefix is hashed once, and each digest continues
    a copy of that hash with its ``b``: one BLAKE2b copy, update and
    digest per row in place of hashing the whole key.
    """
    prefix = hashlib.blake2b(_seed_bytes(seed) + _str_label(label), digest_size=16)
    for b in range(b0, b1):
        h = prefix.copy()
        h.update(b"i" + b.to_bytes(16, "little", signed=True))
        yield h.digest()


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator keyed by ``hash(seed, *labels)``."""
    key = int.from_bytes(_digest(seed, labels), "little")
    return np.random.Generator(np.random.Philox(key=key))


def substream_seed(seed: int, *labels) -> int:
    """Derive a 63-bit integer seed for handing to seeded operations."""
    return int.from_bytes(_digest(seed, labels)[:8], "little") >> 1


def _substream_seeds(seed: int, label: str, b0: int, b1: int) -> list[int]:
    """``[substream_seed(seed, label, b) for b in range(b0, b1)]``, keyed by
    :func:`_prefixed_digests`."""
    return [int.from_bytes(digest[:8], "little") >> 1
            for digest in _prefixed_digests(seed, label, b0, b1)]


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

        The rows are keyed by :func:`_prefixed_digests`, which halves the
        keying cost of a row.
        """
        bitgen, keyed, state = self._bitgen, self._keyed, self._state
        out = np.empty((b1 - b0, k), dtype=np.uint64)
        for row, digest in enumerate(_prefixed_digests(seed, label, b0, b1)):
            keyed["key"] = struct.unpack("<2Q", digest)
            bitgen.state = state
            out[row] = bitgen.random_raw(k)
        return out

    def uniforms(self, seeds, label: str, m: int) -> np.ndarray:
        """``m`` uniforms from each stream ``(seed, label)`` for ``seed`` in
        ``seeds``, as a float64 array ``(len(seeds), m)``: row k is
        ``stream(seeds[k], label).random(m)``.

        The label's bytes are looked up once, and each row is keyed by one
        BLAKE2b call on its seed's bytes and them.
        """
        tail = _str_label(label)
        bitgen, keyed, state, generator = self._bitgen, self._keyed, self._state, self._generator
        out = np.empty((len(seeds), m))
        for row, seed in enumerate(seeds):
            keyed["key"] = struct.unpack(
                "<2Q", hashlib.blake2b(_seed_bytes(seed) + tail, digest_size=16).digest())
            bitgen.state = state
            generator.random(out=out[row])
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
