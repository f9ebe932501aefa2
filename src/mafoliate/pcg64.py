"""numpy's seeded stream without ``numpy.random``: ``default_rng(seed).normal()`` and
``.uniform(lo, hi)`` return the values of ``numpy.random.default_rng(seed)``'s methods of
the same names, bit for bit, one scalar at a time, and ``.normals(n)`` returns
``numpy.random.default_rng(seed).normal(size=n)`` as a float64 array.

The port follows numpy's C code:

* ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four words and
  ``generate_state(4, uint64)`` draws the PCG64 seed from the pool (O'Neill's hash-mix
  construction, as numpy's ``bit_generator.pyx`` implements it);
* PCG64 is the 128-bit linear congruential generator seeded by ``srandom_r(initstate,
  initseq)``, whose output is the XSL-RR permutation of the stepped state (O'Neill, "PCG:
  A family of simple fast space-efficient statistically good algorithms for random
  number generation", HMC-CS-2014-0905);
* a double is ``(u64 >> 11) * 2**-53``; ``uniform`` is ``lo + (hi - lo) * double``;
* ``normal`` is ``0.0 + 1.0 * x`` with ``x`` from numpy's 256-entry ziggurat (Marsaglia
  and Tsang, J. Stat. Softw. 5, 2000): the ``rabs < ki[idx]`` fast path, the tail loop
  with ``log1p`` and the wedge test with ``exp``.

The ziggurat tables ship as ``data/ziggurat.bin``: ``ki_double`` (uint64), ``wi_double``
and ``fi_double`` (float64), 256 little-endian entries each, in that order (6,144
bytes).  They are the local ``.rodata`` symbols of ``distributions.c.o`` in numpy's
``numpy/random/lib/libnpyrandom.a``, copied with binutils::

    ar x libnpyrandom.a                       # the member *distributions.c.o
    readelf -S -W *distributions.c.o          # the file offset of .rodata
    nm -S *distributions.c.o | grep i_double  # each table's offset in .rodata, size 0x800

Each table is the 2,048 bytes at the .rodata file offset plus the symbol's value.

``normals`` draws in blocks of at most ``_BLOCK`` outputs.  A block's first
``_SEED_STATES`` PCG64 states are stepped in Python; the rest come from jump-ahead doubling
on (hi, lo) uint64 arrays (Brown, "Random Number Generation with Arbitrary Strides", 1994):
with ``s[k + L] = A_L s[k] + C_L``, the first L states give the next L, and
``A_2L = A_L^2``, ``C_2L = A_L C_L + C_L``.  The XSL-RR output and the
ziggurat's fast path are array operations; the attempts that fail it (under 1 %) finish
in Python, reading the outputs after them from the block and, past its end, from the
scalar generator.  A block holds no more outputs than normals are still missing, and
every normal reads at least one output, so a draw ends on the block's last output or
after it: the generator's state is where numpy's would be.

Callers import this module where they first draw, so ``import mafoliate.cli`` does not
load it.  Only the array draw imports numpy, so the scalar draws (``transport``'s) load
none.
"""

from __future__ import annotations

import math
import struct
from importlib import resources

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and its output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_R = 3.6541528853610088  # ziggurat_nor_r, where the tail starts
_INV_R = 0.27366123732975828  # ziggurat_nor_inv_r
_BLOCK = 8192  # outputs per array block of ``normals``: its temporaries stay under 1 MB
_SEED_STATES = 32  # a block's states stepped in Python; doubling from fewer costs more numpy calls

_raw = resources.files("mafoliate.data").joinpath("ziggurat.bin").read_bytes()
_KI = struct.unpack_from("<256Q", _raw, 0)
_WI = struct.unpack_from("<256d", _raw, 2048)
_FI = struct.unpack_from("<256d", _raw, 4096)
del _raw


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL):  # 32-bit words, read pairwise as little-endian uint64
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Generator:
    """PCG64 with numpy's ``normal`` and ``uniform`` for scalar draws, and its
    ``normal(size=n)`` as ``normals(n)``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._next64()

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next_double(self) -> float:
        return _double(self._next64())

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._next_double()

    def normal(self) -> float:
        return 0.0 + 1.0 * self._standard_normal()

    def _standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r & 1:
                x = -x
            if rabs < _KI[idx]:
                return x
            value = _finish(idx, rabs, x, self._next64)
            if value is not None:
                return value

    def normals(self, n: int):
        """``n`` normals as a float64 array: numpy's ``normal(size=n)``, bit for bit, after
        which the generator stands where numpy's would."""
        from ._numpy import np

        ki, wi = np.array(_KI, dtype=np.uint64), np.array(_WI)
        out = np.empty(n)
        done = 0
        while done < n:
            raw = self._block(min(_BLOCK, n - done))
            size = len(raw)
            idx = (raw & 0xFF).astype(np.intp)
            rabs = (raw >> 9) & 0x000FFFFFFFFFFFFF
            x = rabs.astype(np.float64) * wi[idx]
            np.negative(x, out=x, where=(raw & 0x100).astype(bool))
            pos = 0  # outputs read from the block; past its end they come from _next64

            def next64() -> int:
                nonlocal pos
                pos += 1
                return int(raw[pos - 1]) if pos <= size else self._next64()

            drop = []  # outputs that give no normal: read as doubles, or rejected by the wedge
            slow = np.flatnonzero(rabs >= ki[idx])  # attempts the fast path fails
            for q, i, r, v in zip(slow.tolist(), idx[slow].tolist(), rabs[slow].tolist(),
                                  x[slow].tolist()):
                if q < pos:  # an output an earlier attempt read as a double
                    continue
                pos = q + 1
                value = _finish(i, r, v, next64)
                if value is None:
                    drop.append(q)
                else:
                    x[q] = value
                drop.extend(range(q + 1, min(pos, size)))
            keep = np.ones(size, dtype=bool)
            keep[drop] = False
            got = x[keep]
            out[done:done + len(got)] = got
            done += len(got)
        out += 0.0  # normal()'s 0.0 + 1.0 * x: the product is x, the sum turns -0.0 into 0.0
        return out

    def _block(self, count: int):
        """The next ``count`` outputs as a uint64 array; the state moves past them."""
        from ._numpy import np

        state, mult, add, states = self._state, 1, 0, []  # s[k + len(states)] = mult * s[k] + add
        for _ in range(min(count, _SEED_STATES)):
            state = (state * _PCG_MULT + self._inc) & _M128
            mult, add = mult * _PCG_MULT & _M128, (add * _PCG_MULT + self._inc) & _M128
            states.append(state)
        hi = np.empty(count, dtype=np.uint64)
        lo = np.empty(count, dtype=np.uint64)
        have = len(states)
        hi[:have] = [s >> 64 for s in states]
        lo[:have] = [s & _M64 for s in states]
        while have < count:
            step = min(have, count - have)
            hi[have:have + step], lo[have:have + step] = _affine(hi[:step], lo[:step], mult, add)
            mult, add = mult * mult & _M128, (mult * add + add) & _M128
            have += step
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        rot = hi >> 58
        x = hi ^ lo
        return (x >> rot) | (x << ((64 - rot) & 63))


def _mulhi(x, a: int):
    """The high 64 bits of each 64 x 64-bit product x * a, from 32-bit halves."""
    x0, x1, a0, a1 = x & _M32, x >> 32, a & _M32, a >> 32
    lo_hi, mid0, mid1 = x0 * a0 >> 32, x0 * a1, x1 * a0
    carry = (lo_hi + (mid0 & _M32) + (mid1 & _M32)) >> 32
    return x1 * a1 + (mid0 >> 32) + (mid1 >> 32) + carry


def _affine(hi, lo, mult: int, add: int):
    """``(mult * s + add) mod 2**128`` for the states s = hi * 2**64 + lo, as (hi, lo)."""
    m_hi, m_lo, a_hi, a_lo = mult >> 64, mult & _M64, add >> 64, add & _M64
    new_lo = lo * m_lo + a_lo
    new_hi = _mulhi(lo, m_lo) + lo * m_hi + hi * m_lo + a_hi + (new_lo < a_lo)
    return new_hi, new_lo


def _finish(idx: int, rabs: int, x: float, next64) -> float | None:
    """An attempt that failed the ziggurat's fast path, continued with the outputs of
    ``next64``: the normal it gives, or None where the wedge rejects it."""
    if idx == 0:
        while True:  # the tail beyond _R
            xx = -_INV_R * math.log1p(-_double(next64()))
            yy = -math.log1p(-_double(next64()))
            if yy + yy > xx * xx:
                return -(_R + xx) if (rabs >> 8) & 1 else _R + xx
    if (_FI[idx - 1] - _FI[idx]) * _double(next64()) + _FI[idx] < math.exp(-0.5 * x * x):
        return x  # the wedge
    return None


def _double(u64: int) -> float:
    return (u64 >> 11) * (1.0 / 9007199254740992.0)


def default_rng(seed: int) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` is, for scalar normal and uniform
    draws and arrays of normals."""
    return Generator(seed)
