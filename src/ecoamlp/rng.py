"""Seeded shuffling with a pinned, cross-language-reproducible PRNG.

Dataset splits must come out identical for every implementation of this
pipeline, in any language, given the same seed. Python's ``random`` and
numpy's generators are implementation details of their libraries, so the
shuffle path is pinned to an explicit algorithm instead:

* state seeding: four consecutive outputs of splitmix64 run on the 64-bit
  seed (the initialization recommended by the xoshiro authors),
* stream: xoshiro256**,
* shuffle: Fisher-Yates from the top index down, drawing
  ``j = next_uint64() % (i + 1)``.

The modulo draw has negligible bias for the dataset sizes involved here and
is trivial to replicate exactly. Golden outputs for all three layers are
verified in the test suite against vectors generated by the reference C
implementation of the generators.
"""

from __future__ import annotations

from typing import Iterable, List, TypeVar

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def _splitmix64_stream(seed: int):
    """Yield the splitmix64 sequence for ``seed`` (64-bit wrapping)."""
    x = seed & _MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a single seed."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        sm = _splitmix64_stream(seed)
        self._s = [next(sm) for _ in range(4)]

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randbelow(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) via the pinned modulo rule."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_uint64() % bound


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def fisher_yates(items: Iterable[T], seed: int) -> List[T]:
    """Return a seeded shuffle of ``items`` (input left untouched).

    Swaps run from the last index down to 1, partner drawn with
    ``randbelow(i + 1)`` from a fresh xoshiro256** stream.
    """
    out = list(items)
    rng = Xoshiro256StarStar(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def subseed(root: int, *tags: int) -> int:
    """Derive an independent 64-bit sub-seed from a root seed and role tags.

    Each tag is folded into a splitmix64 re-keying pass, so streams for
    different (role, generation, member, ...) tuples never collide in
    practice and the derivation is order-sensitive and documented.
    """
    x = root & _MASK64
    for tag in tags:
        if tag < 0:
            raise ValueError("tags must be non-negative")
        stream = _splitmix64_stream(x ^ ((tag * 0x9E3779B97F4A7C15 + 1) & _MASK64))
        x = next(stream)
    return x
