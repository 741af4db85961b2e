"""Floating-point plumbing for the approximate layers.

The exact modules (recurrence, genfunc, trapezoid) never import this.
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
"""

import cmath
import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

STANDARD = "standard"
EXTENDED = "extended"
PRECISIONS = (STANDARD, EXTENDED)

EXTENDED_DPS = 40


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


def to_complex(ctx, value):
    """An int, Fraction, float or number of ctx as a complex number of ctx.

    complex() takes a Fraction through float(), which rounds it once.  An
    mp context's mpf() refuses Fraction, so there it is numerator over
    denominator, one rounding too while the numerator fits 136 bits.
    """
    if isinstance(value, Fraction) and ctx is not _Float:
        value = ctx.mpf(value.numerator) / value.denominator
    return ctx.mpc(value)
