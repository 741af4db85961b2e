"""Golden numbers: the roots of the polynomial attached to a recurrence.

Degrees 2 and 3 get the radical closed forms, including the slash and
backslash pseudo-sign combinations that label the cubic roots; every
degree gets a simultaneous-iteration solver. The solver takes the zero
roots out first: m leading zero coefficients give m roots that are
exactly 0, and only the rest of the polynomial is iterated. The
iteration starts from a circle at the Cauchy radius in standard
precision; extended precision starts from the standard-precision roots
and only refines them. That seed is the memoised standard iteration of
the same polynomial (`_standard_iterate`), so a spec solved in standard
and then in extended precision runs the standard sweeps once. The sweeps
stop after the first one that leaves every root settled: |p| at its
noise floor or the inclusion radius n|p|/|p'| at the precision's eps.
The |p| of that test is the residual the RootSet reports. Both paths
land in a RootSet carrying residuals and dominance metadata, which
downstream Binet and convergence code relies on, through `_rootset`,
which refuses a residual past tol_root; imaginary parts below the
precision's noise floor are dropped on every path.

p, p' and the noise floor are evaluated through numerics.horner on the
spec's own coefficients. Standard precision runs Horner's rule in
floats. Extended precision evaluates the exact rational coefficients
exactly at the 136-bit point and rounds once, so an extended residual is
the true |p(r)| at the printed root r (conjugate roots get equal ones),
not the roundoff of computing it.

A standard Aberth sweep is float arithmetic throughout. In an extended
sweep p(z) and p'(z) are exact until their one rounding; the repulsion
sum over j != i of 1/(z_i - z_j) takes exact differences of the split
points and sums their reciprocals in fixed point at the context's
precision, rounded once (`_repulsion`); the Newton quotient, the
correction and the step are 40-digit arithmetic. The points are read
with numerics.split and the sum written with numerics.rounder.
"""

import cmath
import math
from functools import lru_cache

from .errors import PremiseError, RootConvergenceError
from .numerics import STANDARD, arithmetic, coefficient, gaussian, horner, rounder, split, to_complex
from .recurrence import RecurrenceSpec, _to_fraction, make_spec
from .reports import FormulaCheck, Record, compare

TOL_ROOT_BASE = 1e-10
TOL_DOMINANCE = 1e-9  # relative modulus gap below which dominance is a tie
TOL_SYMMETRIC = 1e-8
MAX_ITER = 200
RADIUS_TOL = 8  # a settled root's inclusion radius, in units of eps * (1 + |root|)

SLASH_FIRST = "slash-first"
BACKSLASH_FIRST = "backslash-first"


class RootSet(Record):
    """All n roots plus the bookkeeping every consumer needs.

    roots are complex numbers of the precision's context
    (numerics.arithmetic): builtin complex in standard precision,
    40-digit mpc of the private extended context in extended mode (not
    mpmath.mpc instances, so arithmetic on them keeps 40 digits whatever
    the global mpmath precision); residuals are |p(root)| as plain
    floats, evaluated in floats in standard precision and exactly at the
    root in extended precision.
    """

    roots: tuple
    residuals: tuple[float, ...]
    dominant_index: int
    dominance_unique: bool
    precision: str = STANDARD

    @property
    def degree(self) -> int:
        return len(self.roots)


def pseudo_sign_combine(x, s1, s2, orientation: str, precision: str = STANDARD):
    """Combine three values with the slash/backslash pseudo-signs.

    A slash scales the operand after it by omega = (-1+i*sqrt(3))/2, a
    backslash by the conjugate. The orientation names which sign sits
    between the first pair, so

        slash-first(x, s1, s2)     = x + omega*s1 + conj(omega)*s2
        backslash-first(x, s1, s2) = x + conj(omega)*s1 + omega*s2

    Combining any value with itself twice gives 0 (1 + omega + conj = 0).
    """
    ctx = arithmetic(precision).ctx
    w = ctx.mpc(-0.5, ctx.sqrt(3) / 2)  # omega = (-1 + i*sqrt(3))/2
    wbar = w.conjugate()
    x, s1, s2 = (to_complex(ctx, v) for v in (x, s1, s2))
    if orientation == SLASH_FIRST:
        return x + w * s1 + wbar * s2
    if orientation == BACKSLASH_FIRST:
        return x + wbar * s1 + w * s2
    raise ValueError(f"orientation must be {SLASH_FIRST!r} or {BACKSLASH_FIRST!r}")


def _monic_poly(coeffs, ctx):
    """Dense coefficients of p(x) = x^n - a_{n-1}x^{n-1} - ... - a0, as
    numerics.coefficient gives them: exact in extended precision."""
    poly = [-coefficient(ctx, a) for a in coeffs]
    poly.append(coefficient(ctx, 1))
    return poly


def _residuals(spec: RecurrenceSpec, roots, ctx):
    p = horner(ctx, _monic_poly(spec.coeffs, ctx))
    return tuple(float(abs(p(z))) for z in roots)


def _dominance(roots):
    moduli = [abs(z) for z in roots]
    top = max(moduli)
    if top == 0:
        near = len(roots)
    else:
        near = sum(1 for m in moduli if (top - m) <= TOL_DOMINANCE * top)
    idx = max(
        range(len(roots)),
        key=lambda j: (float(moduli[j]), float(roots[j].real), float(roots[j].imag)),
    )
    return idx, near == 1


def _drop_dust(roots, ctx, eps):
    # the polynomial is real, so imaginary parts below the precision's
    # own noise floor are dust, not structure; drop them
    return [
        ctx.mpc(z.real, 0) if z.imag != 0 and abs(z.imag) <= 8 * eps * (1 + abs(z)) else z
        for z in roots
    ]


def _rootset(roots, residuals, precision: str, sweeps: int = 0) -> RootSet:
    """The RootSet of every solver, refused with RootConvergenceError when
    a residual exceeds tol_root or is not finite (that fails even an
    infinite gate); the message says when a root itself is not finite."""
    idx, unique = _dominance(roots)
    result = RootSet(
        roots=tuple(roots),
        residuals=residuals,
        dominant_index=idx,
        dominance_unique=unique,
        precision=precision,
    )
    gate = tol_root(result)
    if not all(math.isfinite(r) and r <= gate for r in residuals):
        message = f"root residuals exceed tolerance {gate:.3e}"
        # _settled accepts a NaN iterate: every comparison with NaN is False
        if not all(abs(z) < math.inf for z in result.roots):
            message += "; an iterate is not finite (the iteration overflowed)"
        raise RootConvergenceError(
            message, best_roots=result.roots, residuals=residuals, iterations=sweeps
        )
    return result


def _finish(spec: RecurrenceSpec, roots, precision: str) -> RootSet:
    ctx, eps = arithmetic(precision)
    roots = _drop_dust(roots, ctx, eps)
    return _rootset(roots, _residuals(spec, roots, ctx), precision)


def tol_root(rootset: RootSet) -> float:
    """Residual gate 1e-10 * max(1, max|root|)^n for this root set; inf
    when that is past the float range."""
    scale = max(1.0, max(float(abs(z)) for z in rootset.roots))
    try:
        return TOL_ROOT_BASE * scale ** rootset.degree
    except OverflowError:
        return math.inf


def quadratic_roots(alpha, beta, precision: str = STANDARD) -> RootSet:
    """Roots of x^2 = alpha*x + beta: (alpha + sigma)/2 first, then
    (alpha - sigma)/2, where sigma = sqrt(alpha^2 + 4*beta) (imaginary
    when the discriminant is negative).  Like every solver, raises
    RootConvergenceError when a residual exceeds tol_root."""
    ctx = arithmetic(precision).ctx
    alpha = _to_fraction(alpha, ValueError)
    beta = _to_fraction(beta, ValueError)
    disc = alpha * alpha + 4 * beta  # exact
    a = to_complex(ctx, alpha)
    sigma = ctx.sqrt(to_complex(ctx, disc))
    phi = (a + sigma) / 2
    varphi = (a - sigma) / 2
    return _finish(make_spec([beta, alpha]), [phi, varphi], precision)


def cubic_roots(alpha, beta, gamma, precision: str = STANDARD) -> RootSet:
    """Roots of x^3 = alpha*x^2 + beta*x + gamma, labeled the Cardano way.

    With A = 2*alpha^3 + 9*alpha*beta + 27*gamma and B = alpha^2 + 3*beta,
    sigma1 is the principal cube root of (A + sqrt(A^2 - 4B^3))/2 and
    sigma2 is pinned by sigma1*sigma2 = B. The three roots are

        phi    = (alpha + sigma1 + sigma2) / 3
        varphi = backslash-first(alpha, sigma1, sigma2) / 3
        psi    = slash-first(alpha, sigma1, sigma2) / 3

    in that order. Repeated-root inputs (A^2 = 4B^3) are fine; no branch
    divides by zero.
    """
    ctx = arithmetic(precision).ctx
    alpha = _to_fraction(alpha, ValueError)
    beta = _to_fraction(beta, ValueError)
    gamma = _to_fraction(gamma, ValueError)
    big_a = 2 * alpha**3 + 9 * alpha * beta + 27 * gamma  # exact
    big_b = alpha**2 + 3 * beta  # exact
    disc = big_a * big_a - 4 * big_b**3  # exact
    a_num = to_complex(ctx, big_a)
    b_num = to_complex(ctx, big_b)
    r = ctx.sqrt(to_complex(ctx, disc))
    if disc >= 0 and big_a < 0:
        # (A + r) cancels; rationalize through (A+r)(A-r) = 4B^3.  The
        # quotient is real; keeping only its real part stops a float
        # -0.0 imaginary part from sending cbrt to the conjugate branch
        s1_cubed = ctx.mpc((2 * to_complex(ctx, big_b**3) / (a_num - r)).real)
    else:
        s1_cubed = (a_num + r) / 2
    sigma1 = ctx.cbrt(s1_cubed)
    if abs(sigma1) == 0:
        # forces B = 0; sigma2 falls back to its own closed form,
        # which is 0 only in the genuine triple-root case A = B = 0
        sigma2 = ctx.cbrt((a_num - r) / 2)
    elif big_b == 0:
        sigma2 = ctx.mpc(0)
    else:
        sigma2 = b_num / sigma1
    a_c = to_complex(ctx, alpha)
    phi = (a_c + sigma1 + sigma2) / 3
    varphi = pseudo_sign_combine(a_c, sigma1, sigma2, BACKSLASH_FIRST, precision) / 3
    psi = pseudo_sign_combine(a_c, sigma1, sigma2, SLASH_FIRST, precision) / 3
    return _finish(make_spec([gamma, beta, alpha]), [phi, varphi, psi], precision)


def general_roots(spec: RecurrenceSpec, precision: str = STANDARD) -> RootSet:
    """All roots by simultaneous (Aberth-style) iteration.

    The m leading zero coefficients of the spec make p = x^m * q: the m
    zero roots come back exactly 0, with residual 0, and only q is
    iterated. Standard precision starts from a perturbed circle at the
    Cauchy radius. Extended precision starts from the standard-precision
    roots of q (the best iterate when that solve gives up), each turned
    by 1e-15 rad, and falls back to the circle, with its radius computed
    in the context, when one of them is not finite or when standard
    precision refuses a coefficient past the float range. Both precisions
    read the standard iteration of q from a one-entry memo
    (`_standard_iterate`), so a standard solve of the spec just before an
    extended one leaves the seed ready, bit for bit the same. After every
    sweep each root is tested: it has settled when its inclusion radius
    n|q|/|q'| (Bini & Fiorentino, Numer. Algorithms 23, 2000) is within
    RADIUS_TOL * eps * (1 + |root|), or |q(root)| is at the evaluation
    noise floor (where clustered and multiple roots stall). The first
    sweep that leaves every root settled ends the iteration.
    Raises RootConvergenceError, carrying the best iterate, its residuals
    and the sweeps run, if no sweep settles within MAX_ITER, or if a
    residual of the result exceeds tol_root or is not finite (`_rootset`).
    """
    ctx, eps = arithmetic(precision)
    coeffs = spec.coeffs
    m = next((j for j, a in enumerate(coeffs) if a != 0), len(coeffs))
    zeros = (ctx.mpc(0),) * m
    if precision == STANDARD:
        roots, residuals, sweeps = _standard_iterate(coeffs[m:])
    else:
        roots, residuals, sweeps = _iterate(coeffs[m:], precision)
    if residuals is None:
        raise RootConvergenceError(
            f"root iteration did not converge within {MAX_ITER} sweeps",
            best_roots=roots + zeros,
            residuals=_residuals(spec, roots + zeros, ctx),
            iterations=MAX_ITER,
        )

    def lifted(z, r):  # |p(z)| = |z|^m |q(z)| at an iterated root, inf past the float range
        try:
            return float(abs(z) ** m * r) if r else 0.0
        except OverflowError:  # a float power; an extended product converts to inf
            return math.inf

    # p(0) = 0 exactly at the zero roots
    found = [(z, lifted(z, r)) for z, r in zip(roots, residuals)]
    found += [(z, 0.0) for z in zeros]
    found.sort(key=lambda pair: (-float(abs(pair[0])), -float(pair[0].real), -float(pair[0].imag)))
    return _rootset([z for z, _ in found], tuple(r for _, r in found), precision, sweeps)


@lru_cache(maxsize=1)
def _standard_iterate(coeffs: tuple):
    """_iterate(coeffs, STANDARD) for the exact coefficient tuple, kept for
    the last q asked: general_roots in standard precision and the extended
    seed both read it.  A refusal raises through and is not kept."""
    return _iterate(coeffs, STANDARD)


def _iterate(coeffs, precision: str):
    """Roots of q(x) = x^d - sum coeffs[j] x^j, q(0) != 0, by Aberth sweeps.

    Each sweep moves every root in turn by N / (1 - N S), N = q/q' and S
    its repulsion from the others (`_repulsion`), on the roots as moved
    so far.  Returns (roots, |q(root)| as ctx reals, sweeps), tuples, with
    the residuals None when no sweep settled within MAX_ITER (the roots
    are then the last iterate).
    """
    ctx, eps = arithmetic(precision)
    d = len(coeffs)
    if d <= 1:
        return tuple(to_complex(ctx, a) for a in coeffs), (ctx.mpf(0),) * d, 0

    coeffs_q = _monic_poly(coeffs, ctx)
    poly = horner(ctx, coeffs_q)
    deriv = horner(ctx, [coeffs_q[j] * j for j in range(1, d + 1)])
    moduli = horner(ctx, [abs(c) for c in coeffs_q])
    z = None
    if precision != STANDARD:
        try:
            seed = _standard_iterate(coeffs)[0]
            if all(cmath.isfinite(w) for w in seed):
                # the turn moves real roots off the real axis and breaks
                # conjugate pairs, as the circle's offset does below; at
                # 1e-15 rad it is about the standard roots' own error, so
                # a well-conditioned root still settles in one sweep
                turn = ctx.expj(1e-15)
                z = [to_complex(ctx, w) * turn for w in seed]
        except PremiseError:  # a coefficient past the float range: start from the circle
            pass
    if z is None:
        radius = 1 + max(abs(to_complex(ctx, a)) for a in coeffs)
        # angular offset keeps starting points off the real axis and off
        # any symmetry axis of the root constellation
        z = [radius * ctx.expj(2 * ctx.pi * (j + 0.5) / d + 0.4) for j in range(d)]

    repel = _repulsion(z, precision)
    for sweeps in range(1, MAX_ITER + 1):
        for i in range(d):
            pv = poly(z[i])
            if pv == 0:
                continue
            dv = deriv(z[i])
            if dv == 0:
                z[i] = z[i] + 1e-6 * (1 + abs(z[i]))
                continue
            newton = pv / dv
            denom = 1 - newton * repel(i)
            step = newton if denom == 0 else newton / denom
            z[i] = z[i] - step
        settled = _drop_dust(z, ctx, eps)
        residuals = _settled(poly, deriv, moduli, settled, eps)
        if residuals is not None:
            return tuple(settled), residuals, sweeps
    return tuple(z), None, MAX_ITER


def _repulsion(z, precision: str):
    """The function i -> sum over j != i of 1/(z[i] - z[j]), taken of the
    list z as it stands at each call; a z[j] exactly equal to z[i] counts
    as 1e-12 * (1 + |z[i]|) away.

    Standard precision sums the reciprocals in floats.  Extended precision
    keeps every point split into a Gaussian integer over one shared power
    of two, 2^-g, splitting a point again only after it has moved, so each
    difference a + ib is exact.  Each part of its reciprocal
    (a - ib) 2^g / (a^2 + b^2) is an int floor division at `shift` = prec
    + L/2 bits, L the bit length of the largest a^2 + b^2: even the
    smallest term then keeps the context's prec bits, so the d - 1
    truncations add less than 2^-prec times the sum of the terms' moduli,
    and each part of the sum is rounded once into the context.
    """
    if precision == STANDARD:

        def floats(i):
            total = 0
            for j in range(len(z)):
                if j == i:
                    continue
                diff = z[i] - z[j]
                if diff == 0:
                    diff = 1e-12 * (1 + abs(z[i]))
                total += 1 / diff
            return total

        return floats

    ctx = arithmetic(precision).ctx
    prec, rounded = ctx.prec, rounder(ctx)
    split_of = list(z)
    points, g = gaussian(split_of)

    def fixed(i):
        nonlocal g
        for j, w in enumerate(z):
            if w is not split_of[j]:  # moved since it was split
                a, b, f = split(w)
                if f > g:  # a finer power of two for every point
                    points[:] = [(u << f - g, v << f - g) for u, v in points]
                    g = f
                points[j] = a << g - f, b << g - f
                split_of[j] = w
        x, y = points[i]
        diffs = [(x - a, y - b) for a, b in points[:i] + points[i + 1 :]]
        norms = [a * a + b * b for a, b in diffs]
        shift = prec + (max(norms).bit_length() + 1) // 2
        re = im = 0
        for (a, b), n in zip(diffs, norms):
            if n:
                re += (a << shift) // n
                im -= (b << shift) // n
        total = rounded(re, im, g - shift)
        equal = norms.count(0)
        if equal:
            total += equal / (1e-12 * (1 + abs(z[i])))
        return total

    return fixed


def _settled(poly, deriv, moduli, z, eps):
    """The |p(w)| of every w in z when each one has settled, else None.

    poly, deriv and moduli evaluate p, p' and sum |c_j| x^j.  A root has
    settled when |p(w)| is at its noise floor 8 eps * sum |c_j| |w|^j,
    or when its inclusion radius n|p(w)|/|p'(w)| is within RADIUS_TOL *
    eps * (1 + |w|).  In standard precision the floor is the roundoff of
    evaluating p at w in floats.  In extended precision p(w) is exact
    before its one rounding, so the floor no longer models evaluation
    roundoff: a root accurate to its last bits meets it, and it decides
    only at clustered and multiple roots, whose radius stalls above
    RADIUS_TOL * eps.
    """
    n = len(z)
    values = []
    for w in z:
        pv = abs(poly(w))
        r = abs(w)
        if pv > 8 * eps * moduli(r).real and (
            n * pv > RADIUS_TOL * eps * (1 + r) * abs(deriv(w))
        ):
            return None
        values.append(pv)
    return tuple(values)


def solve_roots(spec: RecurrenceSpec, precision: str = STANDARD) -> RootSet:
    """Radical closed forms for degrees 2 and 3, iteration for every other
    degree (degree 1 too); every path is gated by tol_root (`_rootset`)."""
    c = spec.coeffs
    if spec.degree == 2:
        return quadratic_roots(c[1], c[0], precision)
    if spec.degree == 3:
        return cubic_roots(c[2], c[1], c[0], precision)
    return general_roots(spec, precision)


def dominant_root(rootset: RootSet):
    """The max-modulus root and whether that maximum is attained once."""
    return rootset.roots[rootset.dominant_index], rootset.dominance_unique


def verify_symmetric_relations(rootset: RootSet, spec: RecurrenceSpec) -> FormulaCheck:
    """Check the elementary symmetric polynomials of the roots against
    the spec coefficients: e_1 = a_{n-1}, e_2 = -a_{n-2}, ...,
    e_n = (-1)^(n-1) * a_0.  first_mismatch is the first failing k."""
    if rootset.degree != spec.degree:
        raise ValueError("rootset and spec have different degrees")
    n = spec.degree
    ctx = arithmetic(rootset.precision).ctx
    elementary = [ctx.mpc(1)]
    for root in rootset.roots:
        elementary.append(elementary[-1] * 0)
        for k in range(len(elementary) - 1, 0, -1):
            elementary[k] = elementary[k] + root * elementary[k - 1]
    check = compare(
        enumerate(elementary[1:], 1),
        (spec.coeffs[n - k] * (-1) ** (k - 1) for k in range(1, n + 1)),
        lambda e, a: float(abs(e - to_complex(ctx, a))),
        TOL_SYMMETRIC,
    )
    return check.replace(note="elementary symmetric polynomials vs. coefficients")
