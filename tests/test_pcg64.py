"""The pure-Python generator and its array draw against numpy's, and the norm that
random_vector scales by against its definition in exact rationals."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from mafoliate import pcg64
from mafoliate.foliation import _norm, random_vector
from mafoliate.pcg64 import Generator, default_rng

SEEDS = [0, 1, 7, 301, 718281828, 2**64, 2**128 - 1, 12345678901234567890, 2**200 + 7]
BOUNDS = [(0.5, 1.5), (-1.0, 1.0), (-math.pi, math.pi), (0.0, 1e-300), (-2.5e6, 7.0)]
TAIL = 3.6541528853610088  # the ziggurat's tail starts here


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_equal_numpys(seed):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    got, want = [], []
    for i in range(20_000):
        lo, hi = BOUNDS[i % len(BOUNDS)]
        got += [ours.normal(), ours.uniform(lo, hi)]
        want += [theirs.normal(), theirs.uniform(lo, hi)]
    assert got == want  # equal values; no draw is a nan
    assert any(abs(x) > TAIL for x in got[::2])  # the tail loop ran


class _SlowPaths:
    """Counts the attempts ``normals`` finishes in Python, tail and wedge apart, and the
    outputs it reads past the end of a block from the scalar stream."""

    def __init__(self, monkeypatch):
        self.tail = self.wedge = self.past_block = 0
        self._scalar = False
        finish, next64 = pcg64._finish, Generator._next64

        def counting_finish(idx, rabs, x, read):
            if idx == 0:
                self.tail += 1
            else:
                self.wedge += 1
            return finish(idx, rabs, x, read)

        def counting_next64(rng):
            self.past_block += not self._scalar
            return next64(rng)

        monkeypatch.setattr(pcg64, "_finish", counting_finish)
        monkeypatch.setattr(Generator, "_next64", counting_next64)

    def scalar(self, draw):
        """draw(), whose outputs are not counted as read past a block."""
        self._scalar = True
        try:
            return draw()
        finally:
            self._scalar = False


ARRAY_SEEDS = [*range(30), 718281828, 2**200 + 7]  # the last seed is seven 32-bit words
SIZES = [0, 1, 7, 8000, 39968]


def _assert_successive_draws_equal_numpys(seed, sizes, slow):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for n in sizes:
        got, want = ours.normals(n), theirs.normal(size=n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, n)
        # attempts that fail after the n-th value belong to the next draw
        assert slow.scalar(ours.normal) == theirs.normal(), (seed, n)
        assert slow.scalar(lambda: ours.uniform(-1.0, 1.0)) == theirs.uniform(-1.0, 1.0)


def test_array_normals_equal_numpys_on_successive_calls(monkeypatch):
    slow = _SlowPaths(monkeypatch)
    for seed in ARRAY_SEEDS:
        tail, wedge = slow.tail, slow.wedge
        _assert_successive_draws_equal_numpys(seed, SIZES, slow)
        assert slow.tail > tail and slow.wedge > wedge, seed  # both slow paths ran
    assert slow.past_block > 0  # some slow path ran past the end of an 8,192-output block


@pytest.mark.parametrize("block", [1, 3, 64])
def test_slow_paths_that_cross_a_block_end_read_on(monkeypatch, block):
    # with short blocks, tails and wedges often start on a block's last output
    monkeypatch.setattr(pcg64, "_BLOCK", block)
    slow = _SlowPaths(monkeypatch)
    for seed in (0, 718281828):
        _assert_successive_draws_equal_numpys(seed, [1, 7, 2500, 0, 300], slow)
    assert slow.past_block > 0 and slow.tail > 0 and slow.wedge > 0


def test_a_negative_seed_is_refused_as_numpys_is():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        default_rng(-1)


def _fma_by_definition(a: float, c: float) -> float:
    """a * a + c rounded once, from exact rationals; inf where that overflows."""
    if not (math.isfinite(a) and math.isfinite(c)):
        return a * a + c
    try:
        return float(Fraction(a) ** 2 + Fraction(c))
    except OverflowError:
        return math.inf


def _norm_by_definition(z1: complex, z2: complex) -> float:
    return math.sqrt(_fma_by_definition(z2.real, z1.real * z1.real)
                     + _fma_by_definition(z2.imag, z1.imag * z1.imag))


BIG = math.sqrt(sys.float_info.max)  # a * a is just finite; the split's hi * hi is not
EDGES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-160, 3e-155, 1.5e-154,
         1.0, -3.7, 1e154, 1.3e154, BIG, -BIG, 1e200, -1e200, sys.float_info.max,
         math.inf, -math.inf, math.nan]


def test_the_norm_is_the_fused_dot_products_rounded_once():
    rnd = random.Random(20140905)
    vectors = []
    for _ in range(10_000):
        scale = 2.0 ** rnd.randint(-560, 560) if rnd.random() < 0.3 else 1.0
        vectors.append([rnd.gauss(0.0, 1.0) * scale for _ in range(4)])
    vectors += [[rnd.choice(EDGES) for _ in range(4)] for _ in range(2_000)]
    vectors += [[0.0, 0.0, 0.0, 0.0], [1e154, 1e154, 1e154, 1e154],  # overflows only when added
                [BIG, 0.0, BIG, 0.0], [0.0, 1e200, 0.0, 1.0], [5e-324, 5e-324, 5e-324, 5e-324]]
    for r0, r1, r2, r3 in vectors:
        z1, z2 = complex(r0, r1), complex(r2, r3)
        assert repr(_norm(z1, z2)) == repr(_norm_by_definition(z1, z2)), (r0, r1, r2, r3)
    assert _norm(complex(1e154, 1e154), complex(1e154, 1e154)) == math.inf
    assert _norm(complex(BIG, 0.0), complex(BIG, 0.0)) == math.inf
    assert _norm(complex(1.0, 1e200), 0j) == math.inf


@pytest.mark.parametrize("seed", [0, 301])
def test_random_vector_scales_four_normals_by_the_norm(seed):
    ours, by_hand = default_rng(seed), default_rng(seed)
    for i in range(500):
        r0, r1, r2, r3 = (by_hand.normal() for _ in range(4))
        n = _norm_by_definition(complex(r0, r1), complex(r2, r3))
        if i % 2:
            v = random_vector(ours, 0.5, 1.5)
            s = by_hand.uniform(0.5, 1.5) / n
        else:
            v = random_vector(ours)
            s = 1.0 / n
        assert v == (complex(r0 * s, r1 * s), complex(r2 * s, r3 * s))
        assert all(type(z) is complex for z in v)
    # any generator with normal() and uniform() will do; numpy's has the same stream
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    assert ([random_vector(ours, 0.5, 1.5) for _ in range(3)]
            == [random_vector(theirs, 0.5, 1.5) for _ in range(3)])
