"""exact-far: the exact layers (recurrence, genfunc, trapezoid) at far indices.

Why: these three layers do almost all the work here and the floating
layers none; rational coefficients are the input dimension that hurts
most, so half the specs have them.  ROADMAP item 4 (integer Bostan-Mori
core) must show its gain on this workload.

Specs have degrees 2-8, half integer and half small-rational.  Sizes:
k log-uniform over 10^3..3*10^5 for term_at/symbolic_term, prefixes of
1000-4000 terms for generate and for build_genfunc + series_coefficients,
40-80 rows for build_expansion, 20-30 rows at degrees 2-3 for
build_closed_form.  A spec whose terms grow fast gets its k range and
prefix length scaled down, so that no single operation outgrows about a
second: the caps below are bits of the largest result, per degree.

The spec pool is the same for every run (drawn once from POOL_SEED); the
run's seed draws the query schedule (kinds, classes, sizes) and where
the rotation through each class starts.  The growth of a spec sets its
k range and prefix sizes, so with seed-drawn pools the choice of specs
alone moved ops/s and p50/p90 between seeds.
"""

import random

from goldenseq import (
    build_closed_form,
    build_expansion,
    build_genfunc,
    generate,
    make_seeds,
    make_spec,
    series_coefficients,
    symbolic_term,
    term_at,
)

import oracles
from harness import FAIL, OK, Op
from inputs import Schedule, as_text, int_spec, pick, rational_spec

# The trapezoid builds are the slowest kinds (up to half a second, against
# about 0.1 s for the others).  At 25% of the mix they sat right at p90,
# where the latency distribution thins out, and p90 moved by up to 28%
# between runs; at 10% they form the tail beyond p90 instead.
KINDS = (
    ("term_at", 0.33),
    ("symbolic_term", 0.17),
    ("generate", 0.20),
    ("series", 0.20),
    ("expansion", 0.06),
    ("closed_form", 0.04),
)
DEGREES = range(2, 9)
SPECS_PER_CLASS = 16  # used in turn, so every spec carries the same share
K_LO, K_HI = 1e3, 3e5
COUNT_LO, COUNT_HI = 1000, 4000
SHARED_PREFIX = 256  # leading terms compared exactly between generate and series
POOL_SEED = 1607


def _cap(n: int, rational: bool, int_bits: float, rat_bits: float) -> float:
    return (rat_bits if rational else int_bits) * (2 / n) ** 1.6


class Workload:
    name = "exact-far"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.schedule = Schedule(rng)
        self.start = rng.randrange(SPECS_PER_CLASS)
        pool_rng = random.Random(POOL_SEED)
        self.raw = {}
        for n in DEGREES:
            for rational in (False, True):
                self.raw[(n, rational)] = [
                    rational_spec(pool_rng, n, 3, (1, 2, 3), nonzero=True) if rational
                    else int_spec(pool_rng, n, -2, 3, nonzero=True)
                    for _ in range(SPECS_PER_CLASS)
                ]

    def setup_payload(self):
        specs = [[as_text(c), as_text(s)] for group in self.raw.values() for c, s in group]
        return {"specs": specs}

    def prepare(self):
        self.pool = {
            key: [
                (make_spec(c), make_seeds(s), c, s, oracles.growth_bits(c, s))
                for c, s in group
            ]
            for key, group in self.raw.items()
        }
        self.shared = {}
        self.turn = dict.fromkeys(self.pool, self.start)

    def ops(self):
        i = 0
        while True:
            u_kind, u_class, u_size = self.schedule(i)
            i += 1
            kind = pick(u_kind, KINDS)
            if kind == "closed_form":
                idx = int(u_class * 4)
            else:
                idx = int(u_class * 2 * len(DEGREES))
            n, rational = DEGREES[0] + idx // 2, bool(idx % 2)
            key = (n, rational)
            entry = self.pool[key][self.turn[key] % SPECS_PER_CLASS]
            self.turn[key] += 1
            yield getattr(self, "_" + kind)(entry, n, rational, u_size)

    def _k(self, entry, n, rational, u):
        growth = entry[4]
        scale = min(1.0, _cap(n, rational, 3e5, 1e5) / (growth * K_HI))
        return max(n, int(K_LO * (K_HI / K_LO) ** u * scale))

    def _term_at(self, entry, n, rational, u):
        spec, seeds, c, s, _ = entry
        k = self._k(entry, n, rational, u)

        def check(value):
            if oracles.mod(value) != oracles.term(c, s, k):
                return FAIL, "term_at k=%d differs from x^k mod p(x)" % k, {}
            return OK, "", {"recurrence.term_at.out_bits": oracles.bits(value)}

        return Op("term_at", lambda tr: tr.call("recurrence.term_at", term_at, spec, seeds, k), check)

    def _symbolic_term(self, entry, n, rational, u):
        spec, _, c, _, _ = entry
        k = self._k(entry, n, rational, u)

        def check(form):
            got = [oracles.mod(v) for v in form.seed_coeffs]
            if form.k != k or got != oracles.linear_form(c, k):
                return FAIL, "symbolic_term k=%d differs from x^k mod p(x)" % k, {}
            return OK, "", {}

        return Op("symbolic_term", lambda tr: tr.call("recurrence.symbolic_term", symbolic_term, spec, k), check)

    def _count(self, entry, n, rational, u):
        scale = min(1.0, _cap(n, rational, 4e4, 1.2e4) / (entry[4] * COUNT_HI))
        return max(100, int((COUNT_LO + (COUNT_HI - COUNT_LO) * u) * scale))

    def _prefix_check(self, key, c, s, count, counter):
        def check(values):
            problem = oracles.check_prefix(values, c, s, count)
            head = values[:SHARED_PREFIX]
            other = self.shared.get(key)
            if problem is None and other is not None:
                m = min(len(head), len(other))
                if head[:m] != other[:m]:
                    problem = "generate and series disagree within the first %d terms" % m
            self.shared[key] = head
            if problem:
                return FAIL, problem, {}
            return OK, "", {counter: count}

        return check

    def _generate(self, entry, n, rational, u):
        spec, seeds, c, s, _ = entry
        count = self._count(entry, n, rational, u)
        check = self._prefix_check(id(spec), c, s, count, "recurrence.generate.terms")
        return Op("generate", lambda tr: tr.call("recurrence.generate", generate, spec, seeds, count), check)

    def _series(self, entry, n, rational, u):
        spec, seeds, c, s, _ = entry
        count = self._count(entry, n, rational, u)

        def run(tr):
            gf = tr.call("genfunc.build_genfunc", build_genfunc, spec, seeds)
            return tr.call("genfunc.series_coefficients", series_coefficients, gf, count)

        return Op("series", run, self._prefix_check(id(spec), c, s, count, "genfunc.series_coefficients.terms"))

    def _trapezoid(self, kind, name, build, entry, rows):
        spec, seeds, c, s, _ = entry

        def check(trap):
            problem = oracles.check_trapezoid(trap.rows, c, s, rows)
            if problem:
                return FAIL, "%s: %s" % (name, problem), {}
            return OK, "", {name + ".entries": sum(len(r) for r in trap.rows)}

        return Op(kind, lambda tr: tr.call(name, build, spec, seeds, rows), check)

    def _expansion(self, entry, n, rational, u):
        rows = 40 + int(41 * u)
        return self._trapezoid("expansion", "trapezoid.build_expansion", build_expansion, entry, rows)

    def _closed_form(self, entry, n, rational, u):
        rows = 20 + int(11 * u)
        return self._trapezoid("closed_form", "trapezoid.build_closed_form", build_closed_form, entry, rows)
