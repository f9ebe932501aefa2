"""numpy's seeded stream in pure Python: ``default_rng(seed).normal()`` and
``.uniform(lo, hi)`` return the values of ``numpy.random.default_rng(seed)``'s methods of
the same names, bit for bit, one scalar at a time.

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

Callers import this module where they first draw, so ``import mafoliate.cli`` does not
load it.
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
    """PCG64 with numpy's ``normal`` and ``uniform`` for scalar draws."""

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
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

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
            if idx == 0:
                while True:  # the tail beyond _R
                    xx = -_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_R + xx) if (rabs >> 8) & 1 else _R + xx
            elif ((_FI[idx - 1] - _FI[idx]) * self._next_double() + _FI[idx]
                  < math.exp(-0.5 * x * x)):  # the wedge
                return x


def default_rng(seed: int) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` is, for scalar normal and uniform
    draws."""
    return Generator(seed)
