"""numpy's ``Generator(PCG64(seed))`` stream, for the draws qcover makes.

Pure Python and bit for bit: numpy's SeedSequence hash of an int seed,
the PCG XSL-RR 128/64 generator (O'Neill, "PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014) with numpy's buffered 32-bit halves, and Lemire's
bounded draw ("Fast random integer generation in an interval", 2019).
Only ``integers(lo, hi)`` and ``choice(pop, size, replace=False)`` are
reproduced; the tests check both against numpy.
"""

from .errors import echo

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHOICE_MAX = 10000  # numpy's choice takes another branch above this


def _seed_state(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)`` as (state, stream)."""
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, out = 0x8B51F9DD, 0
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out |= (value ^ value >> 16) << 32 * i
    # eight uint32s read as four little-endian uint64s, each 128-bit pair high first
    w = [out >> 64 * i & _M64 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class PCG64:
    """The draws of ``numpy.random.Generator(numpy.random.PCG64(seed))``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        state, stream = _seed_state(seed)
        self._inc = (stream << 1 | 1) & _M128
        # pcg64_set_seed: step from 0, add the state, step again
        self._state = ((self._inc + state) * _MULT + self._inc) & _M128
        self._half = None  # the high half of the last 64-bit draw, kept for next32

    def next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def next32(self) -> int:
        if self._half is not None:
            x, self._half = self._half, None
            return x
        x = self.next64()
        self._half = x >> 32
        return x & _M32

    def _bounded(self, rng: int) -> int:
        """Lemire's draw from 0..rng (rng < 2**32); rng == 0 draws nothing."""
        if not rng:
            return 0
        n = rng + 1
        m = self.next32() * n
        if m & _M32 < n:
            least = (1 << 32) % n
            while m & _M32 < least:
                m = self.next32() * n
        return m >> 32

    def integers(self, lo: int, hi: int) -> int:
        """One of lo..hi-1, as numpy's ``integers(lo, hi)``."""
        if not lo < hi <= lo + (1 << 32):
            raise ValueError(
                f"integers needs lo < hi <= lo + 2**32, got {echo(lo)}, {echo(hi)}"
            )
        return lo + self._bounded(hi - 1 - lo)

    def choice(self, pop: int, size: int) -> list[int]:
        """numpy's ``choice(pop, size, replace=False)``: Floyd's sample, shuffled."""
        if pop > _CHOICE_MAX:
            raise ValueError(
                f"choice follows numpy only for pop <= {_CHOICE_MAX}, got {echo(pop)}"
            )
        if not 0 <= size <= pop:
            raise ValueError(
                f"choice needs 0 <= size <= pop, got {echo(size)} of {echo(pop)}"
            )
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(pop - size, pop):
            v = self._bounded(j)
            v = j if v in seen else v
            seen.add(v)
            picked.append(v)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked
