"""Closed-form (Binet-style) evaluation of recurrence terms.

The generic path writes x_k = w_1 r_1^k + ... + w_n r_n^k over the
distinct roots of p(x) = x^n - a_{n-1} x^{n-1} - ... - a_0.  The
generating function T(z)/(1 - R(z)) gives each weight as a residue,
    w_i = N(r_i) / p'(r_i),  N(x) = sum of T_s x^(n-1-s),
with T genfunc's numerator (recurrence._numerator) taken of x_0 ..
x_{n-1}; a root at 0 or at 1 is not a special case.  N and p' are
evaluated through numerics.horner; in extended precision T is the exact
T of the seeds, and N(r_i) and p'(r_i) are exact at the rounded root
until one final rounding.  Computed from rounded roots, the residues
alone lose a few digits on high degrees, so one step of iterative
refinement adds the residues of the residual x_k - sum of w_i r_i^k,
k < n (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).
That residual is a number of the precision, so its T is computed in the
precision's arithmetic.  The equation the weights were not fitted
to, k = n, is the consistency probe w_{n+1} = x_n - sum of w_i r_i^n:
it must come out (numerically) zero, and solve_weights refuses the
weights when it does not.  In both precisions each residual and the
probe is exact until one rounding per part (`_exact_misfits`): floats
and extended numbers are dyadic, so the sums of w_i r_i^k run on
Gaussian-integer running products (`_power_sums`), the one kernel that
every Binet-form check (`_roundtrip`) uses as well.

Degree-2 and degree-3 also get direct closed forms written entirely in
terms of the roots and seeds.  `_closed_form` builds either from (spec,
seeds) once: one seed check, one degree dispatch, the premises, the
radical roots and the factors that do not depend on k, in the
precision's context.  It returns the form as a list of (weight, root)
terms, one per product of the published formula (a root may appear in
two), so a closed form is a weighted power sum like the generic one.
The terms are not collected per root: one weight per root would round
away what the formula keeps apart (the quadratic's x0 - lead loses x0
when |lead| >> |x0|, and its sum at k = 0 is then no longer x0).  The
cubic's premises are three separated roots (a float test), no root at 1
(the exact test sum(a_j) == 1) and no computed root within 8 eps of 1,
which the precision cannot tell from 1; standard precision refuses a
weight past the float range.

The quadratic closed form is reliable.  The cubic one reproduces a
published formula verbatim; `check_cubic_closed_form` compares it
against the exact recurrence and reports a formula mismatch instead of
silently trusting it (on most inputs it disagrees from k = 0, so the
generic weights path stays authoritative).

Every check of a power sum against the exact terms, over k = 0 .. K, is
`_roundtrip`: verify's round trip on the solved weights, verify's
closed-form rows and check_cubic_closed_form on the closed forms' terms.
It is exact in both precisions: `_power_sums` runs on the weights and
roots split by numerics.gaussian (numerics.split is the one reader of
number formats, numerics.rounder the one writer), and only each k's
relative error is rounded (Higham, ch. 4), so it compares every k,
however far past the float range the terms go.  The single-k calls
(binet_eval, binet_*_closed) evaluate the same sum in the precision
(`_evaluate`), with z**k, and refuse a standard power past the float
range.
"""

import cmath
import math
from itertools import islice

from .errors import DegenerateSpectrumError, PremiseError, SeedMismatchError, UnitRootError
from .numerics import (
    EXTENDED, FLOAT_RANGE, STANDARD, arithmetic, coefficient, gaussian, horner, rounder, to_complex,
)
from .recurrence import (
    RecurrenceSpec,
    SeedVector,
    _check_seeds,
    _numerator,
    generate,
    make_seeds,
    make_spec,
)
from .reports import FormulaCheck, Record, compare
from .roots import RootSet, _monic_poly, cubic_roots, quadratic_roots

# Tolerances are relative to the scale of the data they gate.
TOL_W = 1e-9  # the probe must stay below TOL_W * max(1, max |x_k| for k <= n)
TOL_IM = 1e-9  # imaginary part allowed when rounding to an integer
TOL_BINET = 1e-6  # relative agreement demanded from closed forms
TOL_SEP = 1e-8  # pairwise root separation, scaled by (1 + max |root|)


class BinetWeights(Record):
    """Solved weights w_1 .. w_n, one per root of the root set, then the
    probe weights[-1] = x_n - sum of w_i r_i^n, which is not a term."""

    weights: tuple
    degree: int
    precision: str

    def __iter__(self):
        return iter(self.weights)


def _separation_scale(rootset: RootSet):
    return 1 + max(abs(z) for z in rootset.roots)


def check_separation(rootset: RootSet) -> None:
    """Raise DegenerateSpectrumError when two roots (nearly) coincide."""
    scale = TOL_SEP * _separation_scale(rootset)
    roots = rootset.roots
    # A pair whose float distance is finite and over twice the float scale
    # is at least scale apart: converting, subtracting and hypot move that
    # distance by a few float roundoffs of max |root|, under 1e-7 * scale
    # since TOL_SEP = 1e-8.  A part past the float range makes it inf or
    # nan.  Only the other pairs take the test in the precision's own
    # arithmetic; in standard the float copies are the roots.
    near, clear = [complex(z) for z in roots], 2 * float(scale)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            gap = near[i] - near[j]
            if clear < math.hypot(gap.real, gap.imag) < math.inf:
                continue
            if abs(roots[i] - roots[j]) < scale:
                raise DegenerateSpectrumError(
                    "characteristic roots %d and %d coincide within %.1e; "
                    "the weight system is singular (repeated roots need "
                    "polynomial-in-k terms, which this closed form does not "
                    "carry)" % (i, j, scale)
                )


def solve_weights(
    spec: RecurrenceSpec,
    seeds: SeedVector,
    rootset: RootSet,
) -> BinetWeights:
    """The weights w_i = N(r_i)/p'(r_i) of x_k = sum of w_i r_i^k, with
    one refinement step, and the probe x_n - sum of w_i r_i^n.

    The weights are in the precision of the root set, and the residuals
    and the probe are exact sums rounded once (`_exact_misfits`).  Raises
    DegenerateSpectrumError for (near-)repeated roots, where p'(r) is
    (nearly) zero, and when the probe exceeds TOL_W times the largest
    |x_k|, k <= n: then the roots do not reproduce the seeds' next term.
    """
    _check_seeds(spec, seeds)
    ctx = arithmetic(rootset.precision).ctx
    if rootset.degree != spec.degree:
        raise SeedMismatchError(
            "root set has degree %d but the recurrence has degree %d"
            % (rootset.degree, spec.degree)
        )
    check_separation(rootset)

    n = spec.degree
    roots = rootset.roots
    poly = _monic_poly(spec.coeffs, ctx)  # -a_0, ..., -a_{n-1}, 1
    slope = horner(ctx, [j * c for j, c in enumerate(poly)][1:])
    slopes = [slope(z) for z in roots]  # p'(r_i), once per root

    def residues(q, v):  # N(r_i)/p'(r_i), T genfunc's numerator taken of v over q
        n_at = horner(ctx, _numerator(q, v)[::-1])
        return [n_at(z) / s for z, s in zip(roots, slopes)]

    terms = generate(spec, seeds, n + 1)
    misfits = _exact_misfits(ctx, roots, terms)
    # T of the seeds: exact in extended precision, refused past the float range in standard
    w = residues(poly[::-1], [coefficient(ctx, t) for t in terms])
    # one step of iterative refinement on the n fitted equations; the
    # residuals are numbers of ctx, so q is rounded to ctx for them
    fix = residues([to_complex(ctx, c) for c in poly[::-1]], misfits(w, range(n)))
    w = [u + c for u, c in zip(w, fix)]
    (probe,) = misfits(w, range(n, n + 1))

    scale = max(1.0, max(float(abs(to_complex(ctx, t))) for t in terms))
    if float(abs(probe)) > TOL_W * scale:
        raise DegenerateSpectrumError(
            "probe |x_n - sum of w_i r_i^n| = %.3e exceeds %.1e * %.3g; the "
            "seed data is inconsistent with a pure power-sum closed form"
            % (float(abs(probe)), TOL_W, scale)
        )
    return BinetWeights((*w, probe), n, rootset.precision)


def _power_sums(weights, roots):
    """Yield (re, im, s) with sum of w_i r_i^k = (re + i im) / 2^s exactly,
    for k = 0, 1, ...: the weights and roots are split into Gaussian
    integers over one power of two each, and w_i r_i^k advances by one
    integer product per root per step."""
    points, g = gaussian(roots)
    products, s = gaussian(weights)
    while True:
        yield sum(x for x, _ in products), sum(y for _, y in products), s
        products = [(x * a - y * b, x * b + y * a) for (x, y), (a, b) in zip(products, points)]
        s += g


def _exact_misfits(ctx, roots, terms):
    """The function (w, ks) -> [x_k - sum of w_i r_i^k for k in the range
    ks], for weights w of ctx: each sum is exact (`_power_sums`), and each
    part of each difference is rounded once into ctx."""
    den = math.lcm(*(t.denominator for t in terms))
    nums = [t.numerator * (den // t.denominator) for t in terms]
    rounded = rounder(ctx, den)

    def misfits(w, ks):
        # (x_k - (re + i im) / 2^s) = ((num_k 2^s - den re) - i den im) / (den 2^s)
        sums = islice(_power_sums(w, roots), ks.start, ks.stop)
        return [rounded((nums[k] << s) - den * re, -den * im, -s) for k, (re, im, s) in zip(ks, sums)]

    return misfits


def _roundtrip(weights, roots, terms) -> FormulaCheck:
    """sum of w_i r_i^k checked against terms[k], every k, in either
    precision: the sums are exact (`_power_sums`, the kernel of
    solve_weights' refinement too), and the relative error of each is
    rounded once, so it is the true error of the rounded weights and
    roots, however large the terms.  verify's round trip passes the
    solved weights without the probe, and every check of a closed form
    passes the (weight, root) terms of `_closed_form`.
    """
    sums = islice(_power_sums(weights, roots), len(terms))
    return compare(enumerate(sums), terms, _exact_error, TOL_BINET)


def _exact_error(value, exact) -> float:
    """|v - x| / max(1, |x|) for the exact v = (re + i im) / 2^s and the
    rational x, each part rounded once by an int true division; inf past
    the float range."""
    re, im, s = value
    n, d = exact.numerator, exact.denominator
    # (v - x) / max(1, |x|) = (re d - n 2^s + i im d) / (2^s max(d, |n|))
    den = max(d, abs(n)) << s
    try:
        return math.hypot((re * d - (n << s)) / den, im * d / den)
    except OverflowError:
        return math.inf


def _evaluate(form, k: int):
    """sum of w r^k over the (w, r) terms of form at one k, in the numbers'
    own precision; a standard power past the float range is refused with
    PremiseError."""
    try:
        return sum(w * z**k for w, z in form)
    except OverflowError:  # from complex ** int; an extended power has no range to leave
        raise PremiseError(FLOAT_RANGE) from None


def binet_eval(weights: BinetWeights, rootset: RootSet, k: int):
    """Evaluate sum of w_j root_j^k at integer k >= 0 (the probe is not
    a term).

    The weights and roots are numbers of their precision's context, so
    the sum runs in that precision; a standard root power r^k past the
    float range is refused with PremiseError."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if rootset.degree != weights.degree:
        raise SeedMismatchError(
            "weights were solved for degree %d, root set has degree %d"
            % (weights.degree, rootset.degree)
        )
    return _evaluate(zip(weights.weights, rootset.roots), k)  # zip leaves the probe out


def nearest_integer(value) -> int:
    """Round a (near-real) complex value to the nearest integer.

    Raises ValueError when the imaginary part is larger than TOL_IM
    relative to the magnitude of the value: rounding such a value would
    hide a real inconsistency.  A float rounds exactly with round(),
    ties to even; an extended value rounds in the extended context,
    which keeps every digit.  inf and nan raise ValueError.
    """
    scale = max(1.0, float(abs(value)))
    if abs(float(value.imag)) > TOL_IM * scale:
        raise ValueError(
            "imaginary part %.3e too large to round to an integer"
            % float(value.imag)
        )
    real = value.real
    if not isinstance(real, float):
        return int(arithmetic(EXTENDED).ctx.nint(real))
    if not math.isfinite(real):
        raise ValueError("cannot convert inf or nan to int")
    return round(real)


def _closed_form(spec: RecurrenceSpec, seeds: SeedVector, precision: str):
    """Build the degree-2 or degree-3 closed form once, as the list of its
    (weight, root) terms: the form's value at k is the sum of weight *
    root**k, one term per product of the published formula, so a root may
    appear twice.  Standard precision refuses a weight that is not finite
    with PremiseError."""
    _check_seeds(spec, seeds)
    ctx, eps = arithmetic(precision)
    if spec.degree == 2:
        b, a = spec.coeffs
        disc = a * a + 4 * b
        if disc == 0:
            raise DegenerateSpectrumError(
                "discriminant a^2 + 4b is zero: repeated root, closed form undefined"
            )
        phi, varphi = quadratic_roots(a, b, precision).roots
        sigma = ctx.sqrt(to_complex(ctx, disc))
        x0, x1, ac = (to_complex(ctx, v) for v in (*seeds, a))
        lead = ((phi - ac) * x0 + x1) / sigma
        form = [(lead, phi), (-lead, varphi), (x0, varphi)]
    else:  # degree 3, the only other degree callers pass
        g, b, a = spec.coeffs
        rootset = cubic_roots(a, b, g, precision)
        check_separation(rootset)
        if sum(spec.coeffs) == 1:  # p(1) = 1 - sum of a_j, exactly
            raise UnitRootError(
                "1 is a characteristic root; the closed form divides by "
                "(root - 1) and is undefined here"
            )
        # a computed root this close to 1 leaves (root - 1) to rounding alone
        near = 8 * eps * _separation_scale(rootset)
        if any(abs(z - 1) < near for z in rootset.roots):
            raise UnitRootError(
                "a characteristic root lies within %.1e of 1, which %s precision "
                "cannot tell from 1; the closed form divides by (root - 1)" % (near, precision)
            )
        phi, varphi, psi = rootset.roots
        x0, x1, x2, ac, bc, gc = (to_complex(ctx, v) for v in (*seeds, a, b, g))

        pref = (
            (ac - varphi - psi - 1) * x2
            + (bc + varphi * psi + varphi + psi) * x1
            + (gc - varphi * psi) * x0
        ) / ((phi - varphi) * (varphi - psi) * (phi - psi))
        comb_phi = (psi - varphi) / (phi - 1)
        comb_varphi = (psi - phi) / (varphi - 1)
        comb_psi = (varphi - phi) / (psi - 1)
        tail_psi = (x2 - (varphi + 1) * x1 + varphi * x0) / ((psi - 1) * (psi - varphi))
        tail_varphi = (x2 - (psi + 1) * x1 + psi * x0) / ((varphi - 1) * (psi - varphi))
        # pref * (comb_phi phi^k - comb_varphi varphi^k + comb_psi psi^k)
        # + tail_psi psi^k - tail_varphi varphi^k
        form = [
            (pref * comb_phi, phi),
            (-pref * comb_varphi, varphi),
            (pref * comb_psi, psi),
            (tail_psi, psi),
            (-tail_varphi, varphi),
        ]
    if precision == STANDARD and not all(cmath.isfinite(w) for w, _ in form):
        raise PremiseError(FLOAT_RANGE)
    return form


def _at_k(coeffs, seeds, k: int, precision: str):
    """One closed-form value: checks k, builds once, evaluates z**k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _evaluate(_closed_form(make_spec(coeffs), make_seeds(seeds), precision), k)


def binet_quadratic_closed(alpha, beta, seeds, k: int, precision: str = STANDARD):
    """Degree-2 closed form: ((phi - a) x0 + x1)/sigma * (phi^k - varphi^k) + varphi^k x0.

    sigma = sqrt(a^2 + 4 b) is the root gap; a repeated root (sigma = 0)
    raises DegenerateSpectrumError.
    """
    return _at_k((beta, alpha), seeds, k, precision)


def binet_cubic_closed(alpha, beta, gamma, seeds, k: int, precision: str = STANDARD):
    """Degree-3 closed form, transcribed verbatim from its source.

    Requires three distinct roots, none equal to 1 or within 8 eps of it
    (the formula divides by root - 1).  See check_cubic_closed_form: on
    most inputs this expression does NOT reproduce the recurrence, so use
    it only through the checking wrapper.
    """
    return _at_k((gamma, beta, alpha), seeds, k, precision)


def _cubic_note(check: FormulaCheck, k_max: int) -> FormulaCheck:
    if check.matches:
        note = "closed form matches the recurrence for k <= %d" % k_max
    else:
        note = (
            "formula mismatch: first divergence at k = %d (relative error "
            "%.3e); falling back to the generic weights path"
            % (check.first_mismatch, check.max_error)
        )
    return check.replace(note=note)


def check_cubic_closed_form(
    alpha,
    beta,
    gamma,
    seeds,
    k_max: int = 10,
    precision: str = STANDARD,
) -> FormulaCheck:
    """Compare the verbatim cubic closed form against the exact recurrence.

    Returns a FormulaCheck; matches=False carries the first divergent k
    and the largest relative error seen.  Callers should treat the
    generic weights path as authoritative whenever matches is False.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    spec = make_spec([gamma, beta, alpha])
    seed_vec = make_seeds(seeds)
    weights, roots = zip(*_closed_form(spec, seed_vec, precision))
    terms = generate(spec, seed_vec, k_max + 1)
    return _cubic_note(_roundtrip(weights, roots, terms), k_max)
