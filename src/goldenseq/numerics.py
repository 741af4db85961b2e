"""Floating-point plumbing for the approximate layers.

The exact modules (recurrence, genfunc, trapezoid) never import this.
Root finding, Binet weights, and convergence diagnostics work in one of
two precisions, each a context with the same small interface (mpf, mpc,
sqrt, cbrt, expj, pi):

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
    max_condition: float  # pivot ratio past which a linear system is singular


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


_FLOAT = Arithmetic(_Float, 2.220446049250313e-16, 1e12)


@cache
def _extended() -> Arithmetic:
    import mpmath

    extended = mpmath.MPContext()
    extended.dps = EXTENDED_DPS
    return Arithmetic(extended, 10.0 ** (-EXTENDED_DPS + 1), 1e30)


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


def solve_linear_system(matrix, rhs, max_condition: float):
    """Gaussian elimination with partial pivoting over complex scalars.

    Generic over the numbers of either context. Returns the solution
    list. The ratio of the largest to the smallest pivot magnitude serves
    as a cheap condition estimate; past max_condition the system is
    treated as singular.
    """
    from .errors import SingularSystemError

    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_sizes = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        size = abs(pivot)
        if size == 0:
            raise SingularSystemError(
                "linear system is singular (zero pivot)", condition_estimate=float("inf")
            )
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot_sizes.append(size)
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor != 0:
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[col][c]
    condition = float(max(pivot_sizes) / min(pivot_sizes))
    if condition > max_condition:
        raise SingularSystemError(
            f"linear system is numerically singular (condition estimate {condition:.3e})",
            condition_estimate=condition,
        )
    solution = [None] * n
    for r in range(n - 1, -1, -1):
        acc = aug[r][n]
        for c in range(r + 1, n):
            acc -= aug[r][c] * solution[c]
        solution[r] = acc / aug[r][r]
    return solution
