"""numpy's seeded permutation in pure Python, bit for bit.

`PCG64(entropy)` draws what numpy's `PCG64(SeedSequence(entropy))` draws,
for a tuple of non-negative ints: the same `random_raw(k)` words, and the
`permutation(n)` of `default_rng(SeedSequence(entropy))`. It ports three
published algorithms: `SeedSequence`'s entropy mixing (after O'Neill's
`seed_seq_fe`), the PCG64 XSL-RR generator (O'Neill, HMC-CS-2014-0905,
https://www.pcg-random.org/paper.html) and `Generator.shuffle`'s
Fisher-Yates, which draws each index by masked rejection.
"""
from __future__ import annotations

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
POOL = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant steps on every call."""
    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & M32
        value = value * const & M32
        return value ^ value >> 16
    return hashed


def _mix(x: int, y: int) -> int:
    result = (MIX_L * x - MIX_R * y) & M32
    return result ^ result >> 16


def _seed_words(entropy: tuple[int, ...]) -> list[int]:
    """`SeedSequence(entropy).generate_state(4, uint64)` as ints."""
    words = []   # each int's little-endian 32-bit words, [0] for 0
    for n in entropy:
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words += [n >> s & M32 for s in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(w) for w in (words + [0] * POOL)[:POOL]]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL:]:
        for dst in range(POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = _hasher(INIT_B, MULT_B)
    out = [state(pool[i % POOL]) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class PCG64:
    """numpy's PCG64 bit generator under `SeedSequence(entropy)`, with the
    `permutation` of the Generator it would drive."""

    def __init__(self, entropy: tuple[int, ...]):
        s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
        # pcg64_set_seed: step from state 0, add the seed, step again
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & M128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * PCG_MULT
                       + self._inc) & M128
        self._half = None   # the high half of the last 64-bit output, unread

    def _next64(self) -> int:
        """Step the LCG; output its halves' xor rotated by its top 6 bits."""
        self._state = (self._state * PCG_MULT + self._inc) & M128
        x, rot = (self._state >> 64 ^ self._state) & M64, self._state >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def _next32(self) -> int:
        """The low half of a 64-bit output, then its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & M32

    def random_raw(self, size: int) -> list[int]:
        """The next `size` 64-bit outputs."""
        return [self._next64() for _ in range(size)]

    def permutation(self, n: int) -> list[int]:
        """A shuffled `list(range(n))`, for n up to 2**32 (numpy draws 64-bit
        indices above that)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out
