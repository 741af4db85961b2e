"""Floating-point plumbing for the approximate layers.

The exact modules (recurrence, genfunc, trapezoid) never import this,
nor does this import them; neither do the package's `__init__` nor the
CLI module: the precision names live in reports, so an exact process
never loads it.
Root finding, Binet weights (residues N(r)/p'(r) at the roots with one
refinement step, see binet), and convergence diagnostics work in one of
two precisions, each a context with the same small interface (mpf, mpc,
sqrt, cbrt, expj, pi) and a unit roundoff eps:

* "standard": Python float/complex (53-bit significand), through a
  small context that computes what mpmath.fp computes (both follow
  mpmath.math2) without importing mpmath;
* "extended": a private mpmath.MPContext at 40 significant digits
  (136 bits).  Its values carry their context, so arithmetic on them
  stays at 40 digits whatever the global mpmath.mp precision is, and
  the global precision is never touched.  They are not mpmath.mpf /
  mpmath.mpc instances; in mixed arithmetic the left operand's context
  sets the precision.

`arithmetic` is the one place a precision name turns into arithmetic.
Only the extended context imports mpmath, on the first `arithmetic`
call for it, once per process: the exact layers, the CLI's exact
subcommands and every standard-precision computation never load it.

Polynomials (the characteristic p, its derivative, Binet's N) are
evaluated through `horner`, with coefficients as `coefficient` gives
them, and there the two precisions differ:

* standard: Horner's rule on the coefficients rounded to complex, about
  1.2 us at degree 16.  Exact evaluation would cost more than that and
  would change every standard root and residual in the last bits.
* extended: exactly.  Every extended number is dyadic and every spec
  coefficient rational, so with the coefficients scaled once to
  Gaussian integers over 2^E * D (D odd: one lcm of the rational
  denominators and of the powers of two `split` puts 40-digit parts
  over) and the point split into (a + ib) * 2^f from its mantissas,
  Horner's rule runs on Python ints, and each part of the value is
  rounded once to the context's 136 bits.
  That is about three times faster than Horner's rule on 40-digit mpc
  values at degree 16, and the residual |p(r)| it gives is the true
  one at the rounded root, not the roundoff of evaluating it.

Only this module reads or writes number formats.  `split`, the one
reader, gives a float or extended number as a Gaussian integer over a
power of two (`gaussian` splits a list over a shared one); `rounder`,
the one writer, rounds an exact (x + iy) 2^e / den into either context.
"""

import cmath
import math
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

from .errors import PremiseError
from .reports import EXTENDED, PRECISIONS, STANDARD

EXTENDED_DPS = 40
FLOAT_RANGE = "value outside the float range of standard precision"


class Arithmetic(NamedTuple):
    """What a precision name stands for."""

    ctx: object  # the standard context or the private extended one
    eps: float  # unit roundoff, used for residual noise floors


class _Float:
    """The standard context: Python float and complex, computing what
    mpmath.fp (that is, mpmath.math2) computes for the same calls."""

    mpf = float
    mpc = complex
    pi = math.pi

    @staticmethod
    def sqrt(x):
        return cmath.sqrt(x) if type(x) is complex or x < 0 else math.sqrt(x)

    @staticmethod
    def cbrt(x):
        return x ** (1.0 / 3)

    @staticmethod
    def expj(x):
        return cmath.exp(1j * x)


_FLOAT = Arithmetic(_Float, 2.220446049250313e-16)


@cache
def _extended() -> Arithmetic:
    import mpmath

    extended = mpmath.MPContext()
    extended.dps = EXTENDED_DPS
    return Arithmetic(extended, 10.0 ** (-EXTENDED_DPS + 1))


def arithmetic(precision: str) -> Arithmetic:
    if precision == STANDARD:
        return _FLOAT
    if precision == EXTENDED:
        return _extended()
    raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")


def coefficient(ctx, value):
    """A polynomial coefficient as `horner` of ctx takes it.

    Standard precision rounds it with to_complex, so arithmetic on such
    coefficients (negation, j * c, abs) is float arithmetic.  Extended
    precision keeps an int or Fraction exact.
    """
    return to_complex(ctx, value) if ctx is _Float else value


def horner(ctx, coeffs):
    """The function z -> sum of coeffs[j] * z**j at numbers z of ctx.

    Standard precision runs Horner's rule on the coefficients as given.
    In extended precision the coefficients are ints, Fractions or
    numbers of the context, the value is exact until each part is
    rounded once to the context's precision, and a coefficient or point
    that is not finite raises ValueError.
    """
    if ctx is _Float:
        return partial(_poly_eval, list(coeffs))
    return _exact_horner(ctx, coeffs)


def split(z):
    """(a, b, g), ints with g >= 0 and z = (a + ib) / 2^g exactly, for a
    finite float, complex or extended number z (ValueError otherwise)."""
    if isinstance(z, (float, complex)):
        if not cmath.isfinite(z):
            raise ValueError("cannot compute exactly with a value that is not finite")
        (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        den = max(da, db)  # both are powers of two
        return a * (den // da), b * (den // db), den.bit_length() - 1
    (sa, a, fa, ca), (sb, b, fb, cb) = getattr(z, "_mpc_", None) or (z._mpf_, (0, 0, 0, 0))
    if ca < 0 or cb < 0:  # the bit count of inf, -inf and nan
        raise ValueError("cannot compute exactly with a value that is not finite")
    # int(): the mantissas may be gmpy mpz
    a = -int(a) if sa else int(a)
    b = -int(b) if sb else int(b)
    if not b:
        f = fa
    elif not a:
        f = fb
    else:
        f = min(fa, fb)
        a <<= fa - f
        b <<= fb - f
    if f > 0:
        return a << f, b << f, 0
    return a, b, -f


def gaussian(values):
    """([(a_i, b_i)], g) with values[i] = (a_i + i b_i) / 2^g exactly: the
    `split` of every value, over one shared power of two."""
    points = [split(z) for z in values]
    g = max(f for _, _, f in points)
    return [(a << g - f, b << g - f) for a, b, f in points], g


def rounder(ctx, den=1):
    """The function (x, y, e) -> (x + iy) 2^e / den as a number of ctx, for
    ints x, y, e and den > 0, each part rounded once (by an int true
    division in standard precision, which refuses a part past the float
    range with PremiseError); make one per evaluator."""
    if ctx is _Float:
        def rounded(x, y, e):
            scale, div = (1 << e, den) if e >= 0 else (1, den << -e)
            try:
                return complex(x * scale / div, y * scale / div)
            except OverflowError:
                raise PremiseError(FLOAT_RANGE) from None

        return rounded
    from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

    prec, rnd = ctx.prec, round_nearest
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    divisor = from_int(odd)

    def part(man, exp):
        if odd == 1:
            return from_man_exp(man, exp - twos, prec, rnd)
        return mpf_div(from_man_exp(man, exp - twos), divisor, prec, rnd)

    return lambda x, y, e: ctx.make_mpc((part(x, e), part(y, e)))


def _poly_eval(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _exact_horner(ctx, coeffs):
    def parts(value):  # (p, q, d): value = (p + iq) / d
        if isinstance(value, (int, Fraction)):
            return value.numerator, 0, value.denominator
        a, b, g = split(value)
        return a, b, 1 << g

    scaled = list(map(parts, coeffs))
    den = math.lcm(*(d for _, _, d in scaled))
    rounded = rounder(ctx, den)
    # coefficient j is (p + iq) / den; lead first, then j = n-1 .. 0
    *rest, lead = [(p * (den // d), q * (den // d)) for p, q, d in scaled]
    rest.reverse()

    def at(z):
        a, b, g = split(z)
        # 2^(g n) p(z) is the sum of c_j (a + ib)^j 2^(g (n-j)): Horner's rule on ints
        x, y = lead
        shift = 0
        for p, q in rest:
            shift += g
            x, y = x * a - y * b, x * b + y * a
            if p:
                x += p << shift
            if q:
                y += q << shift
        return rounded(x, y, -shift)

    return at


def to_complex(ctx, value):
    """An int, Fraction, float or number of ctx as a complex number of ctx.

    complex() takes a Fraction through float(), which rounds it once, and
    a value past the float range is refused there with PremiseError.  An
    mp context's mpf() refuses Fraction, so there `rounder` rounds the
    exact numerator / denominator once, however wide the numerator.
    """
    if isinstance(value, Fraction) and ctx is not _Float:
        return rounder(ctx, value.denominator)(value.numerator, 0, 0)
    try:
        return ctx.mpc(value)
    except OverflowError:  # only complex() has a range to leave
        raise PremiseError(FLOAT_RANGE) from None
