"""spectrum: the floating layers (roots, binet, analysis) in both precisions.

Why: root solving, weight solving and ratio convergence dominate here;
exact work is only the n+1 seed terms.  The extended Aberth solver is
the tail.  ROADMAP items 2 (certified rounding) and 3 (one numeric
backend) act on this workload.

Specs have degrees 2-16 and distinct roots (checked against the
reference roots).  Three query kinds: roots (solve_roots), Binet term
(solve_roots -> solve_weights -> binet_eval -> nearest_integer, integral
specs only, k swept over 0..199 so it passes the k = 78 where Fibonacci
rounding first goes wrong), and convergence (ratio_convergence with
k_max = 60).  Every query runs in standard and then in extended
precision as one operation, so its latency covers both.

The operations come in cycles of CYCLE = 300: per degree, roots and
convergence on each of its 6 specs and a Binet term on each of its 4
integral specs twice, once with k in 0..99 and once in 100..199.  The
run's seed shuffles each cycle and draws the Binet k.  A run does about
one cycle, so every run does nearly the same work; the extended Aberth
cost differs a lot between specs, and drawing (spec, kind) pairs at
random moved p50 by 0.1-0.2 (IQR/median) between seeds.  A wrong rounded
term is the known defect of ROADMAP item 2 only where the benchmark's
own error bound for it (oracles.binet_error_bound) reaches the rounding
headroom; a wrong rounding below that, such as a wrong Fibonacci x_10,
is an unexpected failure.
"""

import random

import mpmath

from goldenseq import (
    binet_eval,
    make_seeds,
    make_spec,
    nearest_integer,
    ratio_convergence,
    solve_roots,
    solve_weights,
)

import oracles
from harness import DEFECT, FAIL, OK, Op, both_precisions, combine
from inputs import as_text, int_spec, rational_spec

DEGREES = range(2, 17)
K_SWEEP = 200
CONV_K = 60
ROOT_TOL = {"standard": 1e-7, "extended": 1e-25}
MIN_SEPARATION = 1e-3  # relative to 1 + max |root|
INTEGRAL = (True,) * 4 + (False,) * 2  # per degree; Binet queries use the integral specs
CYCLE = len(DEGREES) * (2 * len(INTEGRAL) + 2 * INTEGRAL.count(True))
# The spec pool is the same for every run.  A high-degree spec's extended
# Aberth cost depends on the spec, and with seed-drawn pools ops/s and
# p50/p90 moved by about 0.2 (IQR/median) between seeds against 0.02-0.05
# between runs of one seed.
POOL_SEED = 2016


def rounding_outcome(coeffs, seeds, k, exact, precision, rounded):
    """A wrong rounded x_k is the known defect of ROADMAP item 2 (no
    refusal when the headroom is exhausted) only where the benchmark's
    own error bound reaches the headroom; anywhere else it is a failure."""
    counts = {"binet.rounded": 1}
    if rounded == exact:
        return OK, "", counts
    counts["binet.rounded_wrong"] = 1
    bound = oracles.binet_error_bound(coeffs, seeds, k, exact, precision)
    note = "rounded x_%d is off by %s, error bound %.3g" % (k, rounded - exact, bound)
    return (DEFECT if bound >= oracles.HEADROOM else FAIL), note, counts


class Workload:
    name = "spectrum"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        pool_rng = random.Random(POOL_SEED)
        self.raw = {}
        for n in DEGREES:
            self.raw[n] = [self._distinct(pool_rng, n, integral) for integral in INTEGRAL]

    @staticmethod
    def _distinct(rng, n, integral):
        """Draw until the reference roots are pairwise distinct."""
        while True:
            if integral:
                c, s = int_spec(rng, n, -3, 3)
            else:
                c, s = rational_spec(rng, n, 4, (2, 3))
            try:
                roots = oracles.reference_roots(c)
            except mpmath.libmp.NoConvergence:
                continue  # the reference cannot certify distinct roots; draw again
            scale = 1 + max(abs(z) for z in roots)
            if oracles.min_separation(roots) > MIN_SEPARATION * scale:
                return c, s, roots

    def setup_payload(self):
        specs = [[as_text(c), as_text(s)] for group in self.raw.values() for c, s, _ in group]
        return {"specs": specs}

    def prepare(self):
        self.pool = {
            n: [(make_spec(c), make_seeds(s), c, s, roots) for c, s, roots in group]
            for n, group in self.raw.items()
        }
        for group in self.raw.values():  # the Binet error bound's inputs, ahead of the timed run
            for c, s, _ in group[:INTEGRAL.count(True)]:
                oracles.binet_reference(tuple(c), tuple(s))

    def ops(self):
        while True:
            cycle = []
            for group in self.pool.values():
                for entry, integral in zip(group, INTEGRAL):
                    cycle += [(self._roots, entry, None), (self._converge, entry, None)]
                    if integral:
                        cycle += [(self._binet, entry, 0), (self._binet, entry, K_SWEEP // 2)]
            self.rng.shuffle(cycle)
            for make, entry, k_lo in cycle:
                yield make(entry, k_lo)

    def _roots(self, entry, _):
        spec, _, _, _, ref = entry

        def judge(precision, rootset):
            problem = oracles.match_roots(rootset.roots, ref, ROOT_TOL[precision])
            if problem is None and abs(rootset.roots[rootset.dominant_index]) < max(map(abs, ref)) * (1 - 1e-9):
                problem = "dominant_index does not point at a largest root"
            return (FAIL, "solve_roots: " + problem, {}) if problem else (OK, "", {})

        def run(tr):
            return both_precisions(tr, lambda p: tr.call("roots.solve_roots." + p, solve_roots, spec, p))

        return Op("roots", run, lambda results: combine(results, judge))

    def _binet(self, entry, k_lo):
        spec, seeds, c, s, _ = entry
        k = k_lo + self.rng.randrange(K_SWEEP // 2)
        exact = oracles.exact_terms(c, s, k + 1)[k]

        def chain(tr, precision):
            rootset = tr.call("roots.solve_roots." + precision, solve_roots, spec, precision)
            weights = tr.call("binet.solve_weights", solve_weights, spec, seeds, rootset)
            value = tr.call("binet.binet_eval", binet_eval, weights, rootset, k)
            return tr.call("binet.nearest_integer", nearest_integer, value)

        def judge(precision, rounded):
            return rounding_outcome(c, s, k, exact, precision, rounded)

        return Op("binet", lambda tr: both_precisions(tr, lambda p: chain(tr, p)),
                  lambda results: combine(results, judge))

    def _converge(self, entry, _):
        spec, seeds, c, s, ref = entry
        terms = oracles.exact_terms(c, s, CONV_K + 2)
        used = max(k for k in range(CONV_K + 1) if terms[k] != 0)
        top = max(abs(z) for z in ref)
        dominant = [z for z in ref if abs(z) >= top * (1 - 1e-6)]

        def judge(precision, report):
            if report.k_used != used or report.final_estimate != float(terms[used + 1] / terms[used]):
                return FAIL, "ratio_convergence estimate differs from the exact ratio", {}
            target = complex(report.target)
            if not any(abs(target - z) <= 1e-7 * (1 + abs(z)) for z in dominant):
                return FAIL, "ratio_convergence target is not a dominant root", {}
            return OK, "", {}

        def run(tr):
            return both_precisions(
                tr, lambda p: tr.call("analysis.ratio_convergence", ratio_convergence, spec, seeds, CONV_K, p))

        return Op("converge", run, lambda results: combine(results, judge))
