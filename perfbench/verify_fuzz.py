"""verify-fuzz: verify_all with its default k_max and rows on random specs.

Why: it touches every library layer with many small calls (term_at at
k <= 40, 8-row trapezoids, roots of degree <= 6), so a change that speeds
up far-index term_at on exact-far by adding per-call cost loses here.

Specs have degrees 1-6 and small rational coefficients and seeds; each
spec is verified in standard and then in extended precision as one
operation.  The specs that give false ratio_convergence fails
(ROADMAP item 2) stay in.  A fail of binet_cubic_closed_matches is the
documented quirk and not a failure.  Two kinds of fail are known
defects; they count in error_rate but not as unexpected:
  - ratio_convergence, when the reference roots have a single dominant
    value and the exact ratio x_{k+1}/x_k at the check's k (the last
    nonzero term up to 60) is itself still off that root by more than
    0.9 of the check's tolerance: convergence is slower than the check
    assumes (near-tied moduli, a repeated dominant root), or the
    sequence never reaches the dominant root (no weight on it, or zero
    from some index on), and the check should have said skipped
    (ROADMAP item 2); cubic_ratio_root_recovery likewise, when the pair
    recovered from that exact ratio is itself off the reference pair by
    more than 0.9 of its tolerance;
  - a tolerance-based floating check that fails in standard precision
    and does not fail (passes, or is skipped) in extended precision on
    the same spec: the standard budget is merely too small, for example
    a repeated root split by 1e-8 hides a tie of moduli, and ROADMAP
    aim 3 says that must not give fail.
Any other fail is unexpected.
"""

import random

import mpmath

from goldenseq import make_seeds, make_spec, verify_all

import oracles
from harness import DEFECT, FAIL, OK, REFUSED, SEVERITY, Op, both_precisions
from inputs import Schedule, as_text, small_rational

POOL = 400
QUIRK = "binet_cubic_closed_matches"
# Checks that compare floating results against a tolerance; the others are exact.
FLOAT_CHECKS = frozenset({
    "symmetric_relations", "golden_identity_defining", "golden_identity_inverse",
    "binet_constant_weight", "recurrence_binet_roundtrip", "binet_quadratic_closed_matches",
    "ratio_convergence", "cubic_ratio_root_recovery",
})
CONV_K, CONV_TOL = 60, 1e-8  # verify_all's ratio_convergence: k_max = max(40, 60), analysis.TOL_CONV
RECOVERY_TOL = 1e-6  # verify.TOL_RECOVERY


def _ratio_and_roots(coeffs, seeds):
    """The exact ratio x_{k+1}/x_k at the check's k (the last nonzero term
    up to 60), as the float the check uses, and the reference roots; None
    when either is missing or the reference has no single dominant value."""
    terms = oracles.exact_terms(coeffs, seeds, CONV_K + 2)
    used = [k for k in range(CONV_K + 1) if terms[k] != 0]
    try:
        roots = oracles.reference_roots(coeffs)
    except mpmath.libmp.NoConvergence:
        return None
    if not used or not oracles.unique_dominant(roots):
        return None
    return float(terms[used[-1] + 1] / terms[used[-1]]), roots


def slow_convergence(coeffs, seeds) -> bool:
    """The exact ratio at the check's k is still off the single dominant
    reference root by more than 0.9 of the check's tolerance (the last
    tenth is left to the library's own root error)."""
    found = _ratio_and_roots(coeffs, seeds)
    if found is None:
        return False
    estimate, roots = found
    return abs(estimate - max(roots, key=abs)) > 0.9 * CONV_TOL


def slow_recovery(coeffs, seeds) -> bool:
    """For a cubic: the two other roots, recovered from that exact ratio the
    way the check does (sum alpha - L, product gamma / L), are themselves
    off the reference pair by more than 0.9 of the check's tolerance.  A
    ratio that passes ratio_convergence is still up to 1e-8 off, and a
    repeated or close pair turns that into about its square root."""
    found = _ratio_and_roots(coeffs, seeds)
    if found is None or len(coeffs) != 3:
        return False
    estimate, roots = found
    top = max(roots, key=abs)
    others = sorted(roots, key=lambda z: abs(z - top))[1:]
    ctx = mpmath.MPContext()  # private, so the global precision is not touched
    ctx.dps = 50
    lim = ctx.mpf(estimate)
    alpha, gamma = (ctx.mpf(c.numerator) / c.denominator for c in (coeffs[2], coeffs[0]))
    d = alpha - lim
    root = ctx.sqrt(ctx.mpc(d * d - 4 * gamma / lim))
    pair = [complex((d + root) / 2), complex((d - root) / 2)]
    err = min(max(abs(pair[0] - a), abs(pair[1] - b)) for a, b in (others, others[::-1]))
    return err > 0.9 * RECOVERY_TOL


class Workload:
    name = "verify-fuzz"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        schedule = Schedule(self.rng)
        self.raw = []
        for i in range(POOL):
            n = 1 + int(schedule(i)[1] * 6)
            coeffs = [small_rational(self.rng, 4, (1, 2, 3)) for _ in range(n)]
            seeds = [small_rational(self.rng, 3, (1, 2, 3)) for _ in range(n)]
            if not any(seeds):
                seeds[-1] = seeds[-1] + 1
            self.raw.append((coeffs, seeds))

    def setup_payload(self):
        return {"specs": [[as_text(c), as_text(s)] for c, s in self.raw]}

    def prepare(self):
        self.pool = [(make_spec(c), make_seeds(s), c, s) for c, s in self.raw]

    def ops(self):
        i = 0
        while True:
            yield self._verify(self.pool[i % POOL])
            i += 1

    def _verify(self, entry):
        spec, seeds, c, s = entry

        def check(results):
            answered = {p: {row.check: row.status for row in rows} for p, rows, refusal in results if not refusal}
            outcome, notes, counts = OK, [], {}

            def note(kind, text, counter=None):
                nonlocal outcome
                outcome = max(outcome, kind, key=SEVERITY.get)
                notes.append(text)
                if counter:
                    counts[counter] = counts.get(counter, 0) + 1

            for precision, rows, refusal in results:
                if refusal:
                    note(REFUSED, "%s: %s" % (precision, refusal[1]), "refused@" + str(refusal[0]))
                    continue
                for row in rows:
                    key = "verify.verdicts." + row.status
                    counts[key] = counts.get(key, 0) + 1
                    if row.status != "fail" or row.check == QUIRK:
                        continue
                    text = "%s %s: %s" % (precision, row.check, row.detail)
                    if ((row.check == "ratio_convergence" and slow_convergence(c, s))
                            or (row.check == "cubic_ratio_root_recovery" and slow_recovery(c, s))):
                        note(DEFECT, "false fail, " + text, "verify.false_fail")
                    elif (precision == "standard" and row.check in FLOAT_CHECKS
                          and answered.get("extended", {}).get(row.check) in ("pass", "skipped")):
                        note(DEFECT, "false fail (no fail in extended), " + text, "verify.false_fail")
                    else:
                        note(FAIL, text)
            return outcome, "; ".join(notes), counts

        def run(tr):
            return both_precisions(
                tr, lambda p: tr.call("verify.verify_all." + p, verify_all, spec, seeds, precision=p))

        return Op("verify", run, check)
