"""Seeded inputs: a low-discrepancy operation schedule and random specs.

The seed decides every coefficient, seed value and size jitter.  The mix
of operation kinds, degrees and size quantiles follows a Kronecker
sequence, so any prefix of a time-bounded run covers that mix evenly and
runs with different seeds do comparable work.
"""

import random
from fractions import Fraction

_PLASTIC = 1.2207440846057596  # real root of x^3 = x + 1
_STEPS = (1 / _PLASTIC, 1 / _PLASTIC**2, 1 / _PLASTIC**3)


class Schedule:
    """Point i of the R3 sequence in [0, 1)^3, shifted by a seeded offset."""

    def __init__(self, rng: random.Random):
        self.offset = [rng.random() for _ in _STEPS]

    def __call__(self, i: int):
        return tuple((o + (i + 1) * a) % 1.0 for o, a in zip(self.offset, _STEPS))


def pick(u: float, weighted):
    """Item of `weighted` ((item, weight) pairs) at cumulative share u."""
    total = sum(w for _, w in weighted)
    acc = 0.0
    for item, w in weighted:
        acc += w / total
        if u < acc:
            return item
    return weighted[-1][0]


def small_rational(rng: random.Random, pmax: int, dens, nonzero=False) -> Fraction:
    p = rng.choice([v for v in range(-pmax, pmax + 1) if v or not nonzero])
    return Fraction(p, rng.choice(dens))


def int_spec(rng: random.Random, n: int, lo: int, hi: int, nonzero=False):
    """Integer coefficients a0..a_{n-1} in [lo, hi] with a0 != 0 (all nonzero
    if asked), seeds in 0..3."""
    values = [v for v in range(lo, hi + 1) if v or not nonzero]
    coeffs = [rng.choice(values) for _ in range(n)]
    while coeffs[0] == 0:
        coeffs[0] = rng.choice(values)
    seeds = [rng.randint(0, 3) for _ in range(n)]
    if not any(seeds):
        seeds[-1] = 1
    return [Fraction(c) for c in coeffs], [Fraction(s) for s in seeds]


def rational_spec(rng: random.Random, n: int, pmax: int, dens, nonzero=False):
    """Small-rational coefficients with a0 != 0 and at least one non-integer, and seeds."""
    while True:
        coeffs = [small_rational(rng, pmax, dens, nonzero) for _ in range(n)]
        if coeffs[0] != 0 and any(c.denominator > 1 for c in coeffs):
            break
    seeds = [small_rational(rng, 3, (1, 2, 3)) for _ in range(n)]
    if not any(seeds):
        seeds[-1] = Fraction(1)
    return coeffs, seeds


def as_text(values):
    return [str(v) for v in values]
