"""Convergence of term ratios to the dominant root, and root identities.

The classical fact being generalized: consecutive-term ratios of a
Fibonacci-like sequence converge to the golden number, i.e. to the
characteristic root of largest modulus, provided that root is uniquely
dominant and the seeds actually excite it.  `ratio_convergence` runs
the experiment with exact rational arithmetic and reports why it
failed when it fails, instead of just returning False.
"""

import math

from .binet import solve_weights
from .errors import DegenerateSpectrumError, PremiseError
from .numerics import STANDARD, arithmetic, to_complex
from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _to_fraction, generate
from .reports import FormulaCheck, Record, compare
from .roots import RootSet, dominant_root, solve_roots, tol_root

TOL_CONV = 1e-8


class ConvergenceReport(Record):
    ratios: tuple
    final_estimate: float | None
    target: object  # dominant root (complex in standard precision)
    abs_error: float | None
    converged: bool
    k_used: int | None
    reason: str | None
    # False when the premise of the limit theorem is absent (tied
    # dominance, seeds orthogonal to the dominant root, no usable
    # ratios); in that case non-convergence is expected, not a defect.
    hypothesis_met: bool = True


def ratio_convergence(
    spec: RecurrenceSpec,
    seeds: SeedVector,
    k_max: int = 60,
    precision: str = STANDARD,
) -> ConvergenceReport:
    """Track x_{k+1}/x_k for k <= k_max against the dominant root.

    Ratios are formed exactly and only converted to float at the end.
    Zero terms are skipped (their ratios are undefined); k_used is the
    largest k whose ratio was usable.  PremiseError when the seeds are all
    zero, or when the weight test needs seeds past the float range.
    """
    _check_seeds(spec, seeds)
    arithmetic(precision)  # rejects an unknown precision up front
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_nonzero(seeds)
    terms = generate(spec, seeds, k_max + 2)
    rootset = solve_roots(spec, precision)
    return _ratio_report(terms, k_max, rootset, lambda: solve_weights(spec, seeds, rootset))


def _check_nonzero(seeds) -> None:
    if all(v == 0 for v in seeds):
        raise PremiseError("all seeds are zero: the sequence is identically zero")


def _ratio_report(terms, k_max: int, rootset: RootSet, weights) -> ConvergenceReport:
    """The body of ratio_convergence, on exact terms x_0 .. x_{k_max+1}
    and a root set the caller already has.  weights() returns the seeds'
    BinetWeights in the root set's precision, None when they are
    unknown, or raises their refusal; it is called only once the other
    premises hold."""
    ctx = arithmetic(rootset.precision).ctx
    # x_{k+1}/x_k = (n1 d0) / (d1 n0), one int true division: correctly
    # rounded, so the float of the Fraction quotient, without its gcd
    pairs = [x.as_integer_ratio() for x in terms[: k_max + 2]]
    ratios = []
    k_used = None
    for k, ((n0, d0), (n1, d1)) in enumerate(zip(pairs, pairs[1:])):
        if n0:
            if n0 < 0:  # a positive divisor, so a zero x_{k+1} gives 0.0, not -0.0
                n0, n1 = -n0, -n1
            ratios.append(n1 * d0 / (d1 * n0))
            k_used = k
    estimate = ratios[-1] if ratios else None

    target, unique = dominant_root(rootset)
    abs_error = None
    if estimate is not None:
        abs_error = float(abs(to_complex(ctx, estimate) - target))

    hypothesis_met = True
    reason = None
    if not unique:
        hypothesis_met = False
        reason = (
            "two characteristic roots tie for largest modulus; the "
            "ratios cannot settle on a single limit"
        )
    elif estimate is None:
        hypothesis_met = False
        reason = "no nonzero term produced a usable ratio"
    elif _dominant_weight_vanishes(weights, rootset):
        hypothesis_met = False
        reason = (
            "the seeds give (numerically) zero weight to the dominant "
            "root, so the ratios chase a smaller root instead"
        )
    elif abs_error > TOL_CONV:
        reason = "ratio still off by %.3e at k = %s; more terms may be needed" % (
            abs_error,
            k_used,
        )
    converged = bool(hypothesis_met and abs_error is not None and abs_error <= TOL_CONV)
    return ConvergenceReport(
        tuple(ratios), estimate, target, abs_error, converged, k_used, reason,
        hypothesis_met,
    )


def _dominant_weight_vanishes(weights, rootset) -> bool:
    """Whether weights() gives the dominant root (numerically) zero weight;
    False when they are None or absent (repeated roots: DegenerateSpectrumError).
    Any other refusal, such as the float range, propagates."""
    try:
        w = weights()
    except DegenerateSpectrumError:
        w = None
    if w is None:
        return False
    scale = max(1.0, max(float(abs(v)) for v in w.weights))
    return float(abs(w.weights[rootset.dominant_index])) <= 1e-9 * scale


def _identity_check(spec: RecurrenceSpec, rootset: RootSet, side, note: str) -> FormulaCheck:
    """Compare the two sides of an identity, side(z, coeffs) -> (lhs, rhs),
    at every root, within the root set's residual gate tol_root."""
    n = spec.degree
    if rootset.degree != n:
        raise ValueError(
            "root set degree %d does not match recurrence degree %d"
            % (rootset.degree, n)
        )
    ctx = arithmetic(rootset.precision).ctx
    coeffs = [to_complex(ctx, c) for c in spec.coeffs]
    sides = [side(z, coeffs) for z in rootset.roots]
    check = compare(
        enumerate(lhs for lhs, _ in sides),
        (rhs for _, rhs in sides),
        lambda lhs, rhs: float(abs(lhs - rhs)),
        tol_root(rootset),
    )
    return check.replace(note=note)


def golden_identity_check(spec: RecurrenceSpec, rootset: RootSet) -> FormulaCheck:
    """Check the defining identity r^n = sum a_j r^j at every root;
    first_mismatch is the index of the first failing root."""
    n = spec.degree
    return _identity_check(
        spec, rootset, lambda z, a: (z**n, sum(c * z**j for j, c in enumerate(a))),
        "r^n = sum of a_j r^j at every root",
    )


def golden_inverse_check(spec: RecurrenceSpec, rootset: RootSet) -> FormulaCheck:
    """Check the degree-2 reciprocal identity 1/r = (r - a_1)/a_0 (the
    generalization of 1/phi = phi - 1) at both roots.

    Raises ValueError for a degree other than 2, and PremiseError when
    a_0 = 0, where the identity divides by zero.  With a_0 != 0, 0 is not
    a root, so a computed root that is exactly 0 is wrong: the check fails
    at it, with an unbounded max_error.
    """
    if spec.degree != 2:
        raise ValueError("the reciprocal identity is stated for degree 2 only")
    if spec.coeffs[0] == 0:
        raise PremiseError("constant coefficient is 0, so 1/r = (r - a_1)/a_0 divides by zero")
    zero = next((i for i, z in enumerate(rootset.roots) if z == 0), None)
    if zero is not None:
        note = "root %d is exactly 0, which has no reciprocal; a_0 != 0, so 0 is not a root" % zero
        return FormulaCheck(False, zero, math.inf, tol_root(rootset), note)
    return _identity_check(
        spec, rootset, lambda z, a: (1 / z, (z - a[1]) / a[0]),
        "1/r = (r - a_1)/a_0 at both roots",
    )


def recover_cubic_conjugates(alpha, gamma, ratio_limit, precision: str = STANDARD):
    """Recover the two non-dominant cubic roots from the ratio limit L.

    For x^3 = alpha x^2 + beta x + gamma with dominant root L, the other
    two roots are ((alpha - L) +/- sqrt((alpha - L)^2 - 4 gamma / L)) / 2:
    their sum is alpha - L and their product is gamma / L (the three
    roots multiply to gamma).  beta is not needed.
    """
    ctx = arithmetic(precision).ctx
    if ratio_limit == 0:
        raise ValueError("ratio limit must be nonzero (it divides gamma)")
    a = to_complex(ctx, _to_fraction(alpha, ValueError))
    g = to_complex(ctx, _to_fraction(gamma, ValueError))
    lim = to_complex(ctx, ratio_limit)
    d = a - lim
    s = ctx.sqrt(d * d - 4 * g / lim)
    return ((d + s) / 2, (d - s) / 2)
