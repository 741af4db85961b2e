"""Arithmetic trapezoid: the staggered coefficient table of T(z)*R(z)^i.

Row i holds the p = i*(n-1) + n coefficients of z^i .. z^{i+p-1} in
T(z)*R(z)^i, where f(z) = T(z)/(1 - R(z)) is the sequence's generating
function.  For the classical degree-2 case with unit coefficients and
seeds this is Pascal's triangle dressed as a trapezoid; in general the
rows obey

    C_{i+1, j+n-1} = sum_k a_k C_{i, j+k}        (k = 0 .. n-1)

with out-of-range entries read as zero, the diagonal sums reproduce the
sequence itself, and row i sums to T(1)*R(1)^i, R(1) = sum a_k.

Degrees 2 and 3 additionally have direct per-entry closed forms built
from binomial coefficients.  The form is built once per spec (seed count
and degree checked once) and then evaluated at each (i, j);
coeff_quadratic / coeff_cubic build it for their one entry.  Each
monomial is evaluated only when its binomial guard is nonzero, which
keeps every exponent non-negative so the arithmetic stays exact even
for coefficient values of 0.

The expansion, the closed forms and the row check run on ints over
common denominators (recurrence._scale): expansion row i is over E*D^i
(T over E, R over D), closed-form entry (i, j) over S*D^(i+1) (seeds
over S), and the row check cross-multiplies rows scaled by their own
lcm.  Each entry leaves as a Fraction built once, in lowest terms, by
recurrence._fraction (one gcd, none over a denominator of 1).
"""

import math
from fractions import Fraction
from operator import mul

from .errors import PremiseError
from .genfunc import build_genfunc
from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _fraction, _poly_mul, _scale, make_seeds, make_spec
from .reports import FormulaCheck, Record, compare


def _binom(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def row_length(i: int, n: int) -> int:
    """Number of entries in row i of a degree-n trapezoid: i*(n-1) + n."""
    if i < 0:
        raise ValueError("row index must be >= 0")
    if n < 1:
        raise ValueError("degree must be >= 1")
    return i * (n - 1) + n


class Trapezoid(Record):
    rows: tuple
    spec: RecurrenceSpec
    seeds: SeedVector
    method: str  # "expansion" or "closed-form"

    def __len__(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry (i, j), with out-of-range j reading as 0."""
        if i < 0 or i >= len(self.rows):
            raise ValueError("row %d not built (have %d rows)" % (i, len(self.rows)))
        row = self.rows[i]
        if 0 <= j < len(row):
            return row[j]
        return Fraction(0)


def build_expansion(spec: RecurrenceSpec, seeds: SeedVector, num_rows: int) -> Trapezoid:
    """Build rows 0..num_rows-1 by expanding T(z)*R(z)^i exactly."""
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    _check_seeds(spec, seeds)
    return _expand(build_genfunc(spec, seeds), spec, seeds, num_rows)


def _expand(gf, spec: RecurrenceSpec, seeds: SeedVector, num_rows: int) -> Trapezoid:
    """build_expansion's rows, from gf = build_genfunc(spec, seeds)."""
    n = spec.degree
    t_poly, den = _scale(gf.numerator)
    r_poly, r_den = _scale(gf.denominator_tail)

    rows = []
    cur = t_poly  # T*R^i over den = E*D^i, i + p coefficients long
    for i in range(num_rows):
        p = row_length(i, n)
        rows.append(tuple(_fraction(v, den) for v in cur[i : i + p]))
        if i + 1 < num_rows:
            cur = _poly_mul(cur, r_poly)
            den *= r_den
    return Trapezoid(tuple(rows), spec, seeds, "expansion")


def _closed_form(spec: RecurrenceSpec, seeds: SeedVector):
    """Build the per-entry closed form of a degree-2 or degree-3 spec
    once; returns its evaluation (i, j) -> entry for 0 <= j < row_length.
    Its monomials have degree i (lo) or i + 1 (hi) in the coefficients."""
    _check_seeds(spec, seeds)
    if spec.degree not in (2, 3):
        raise PremiseError("per-entry closed forms exist only for degrees 2 and 3")
    coeffs, d = _scale(spec.coeffs)
    xs, s = _scale(seeds.values)
    bases = coeffs + [d]
    powers = [[1] for _ in bases]  # powers[k][e] == bases[k]**e

    def grow(i):  # every exponent in row i is at most i + 1
        while len(powers[0]) <= i + 1:
            for table, base in zip(powers, bases):
                table.append(table[-1] * base)

    if spec.degree == 2:
        b, a, d_pow = powers
        x0, x1 = xs

        def entry(i, j):
            grow(i)
            lo = hi = 0
            c = _binom(i, j)
            if c:
                lo += c * a[i - j] * b[j] * x0
            c = _binom(i, j - 1)
            if c:
                hi -= c * a[i - j + 2] * b[j - 1] * x0
                lo += c * a[i - j + 1] * b[j - 1] * x1
            return _fraction(lo * d + hi, s * d_pow[i + 1])

        return entry
    g, b, a, d_pow = powers
    x0, x1, x2 = xs

    def entry(i, j):
        grow(i)
        lo = hi = 0
        for k in range(j // 2 + 1):
            b1 = _binom(j - k - 2, k) * _binom(i, j - k - 2)
            if b1:
                lo += b1 * a[i - j + k + 2] * b[j - 2 - 2 * k] * g[k] * x2
                hi -= b1 * a[i - j + k + 3] * b[j - 2 - 2 * k] * g[k] * x1
            b2 = _binom(j - k - 1, k) * _binom(i, j - k - 1)
            if b2:
                lo += b2 * a[i - j + k + 1] * b[j - 1 - 2 * k] * g[k] * x1
            b3 = _binom(j - k, k) * _binom(i, j - k)
            if b3:
                lo += b3 * a[i - j + k] * b[j - 2 * k] * g[k] * x0
            b4 = _binom(i - k + 1, j - 2 * k - 1) * _binom(i, i - k)
            if b4:
                hi -= b4 * a[i - j + k + 2] * b[j - 1 - 2 * k] * g[k] * x0
        return _fraction(lo * d + hi, s * d_pow[i + 1])

    return entry


def _one_entry(i: int, j: int, coeffs, seeds) -> Fraction:
    if i < 0 or j < 0 or j >= row_length(i, len(coeffs)):
        raise ValueError("entry (%d, %d) is outside row %d" % (i, j, i))
    return _closed_form(make_spec(coeffs), make_seeds(seeds))(i, j)


def coeff_quadratic(i: int, j: int, alpha, beta, seeds) -> Fraction:
    """Closed-form entry (i, j) for x_{k+2} = alpha x_{k+1} + beta x_k.

    Three guarded binomial monomials; valid for 0 <= j <= i + 1.  A call
    builds the form for its one entry.
    """
    return _one_entry(i, j, (beta, alpha), seeds)


def coeff_cubic(i: int, j: int, alpha, beta, gamma, seeds) -> Fraction:
    """Closed-form entry (i, j) for x_{k+3} = alpha x_{k+2} + beta x_{k+1} + gamma x_k.

    Sum over k = 0 .. floor(j/2) of guarded binomial monomials; valid
    for 0 <= j <= 2i + 2.  A call builds the form for its one entry.
    """
    return _one_entry(i, j, (gamma, beta, alpha), seeds)


def build_closed_form(spec: RecurrenceSpec, seeds: SeedVector, num_rows: int) -> Trapezoid:
    """Build rows from the per-entry closed forms; PremiseError at a
    degree other than 2 or 3, which has none (build_expansion does)."""
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    entry = _closed_form(spec, seeds)
    rows = tuple(
        tuple(entry(i, j) for j in range(row_length(i, spec.degree))) for i in range(num_rows)
    )
    return Trapezoid(rows, spec, seeds, "closed-form")


def check_closed_form(expansion: Trapezoid) -> FormulaCheck:
    """Compare closed-form rows against a built expansion, entry for
    entry, over the expansion's spec, seeds and row count."""
    if expansion.method != "expansion":
        raise ValueError("check_closed_form needs rows built by build_expansion")
    num_rows = len(expansion)
    closed = build_closed_form(expansion.spec, expansion.seeds, num_rows)
    check = compare(
        (((i, j), v) for i, row in enumerate(closed.rows) for j, v in enumerate(row)),
        (v for row in expansion.rows for v in row),
    )
    if check.matches:
        note = "closed form matches the expansion on %d rows" % num_rows
    else:
        note = "first divergent entry at (i, j) = (%d, %d)" % check.first_mismatch
    return check.replace(note=note)


def check_row_recurrence(trapezoid: Trapezoid) -> list:
    """Verify C_{i+1, j+n-1} = sum_k a_k C_{i, j+k} across built rows.

    Returns a list of violations as (i, j, expected, actual) tuples;
    empty means every adjacent row pair satisfies the recurrence.  A
    single-row trapezoid has no adjacent pairs and passes vacuously.
    """
    coeffs, d = _scale(trapezoid.spec.coeffs)
    n = len(coeffs)
    rows = trapezoid.rows
    scaled = [_scale(row) for row in rows]
    violations = []
    for i, ((low, low_den), (high, high_den)) in enumerate(zip(scaled, scaled[1:])):
        p = len(low)
        # at t = j + n, low[t + k] is C_{i, j+k} (zero past the window's
        # cut-off end) and high[t] is C_{i+1, j+n-1}
        low = [0] * n + low
        high = [0] + high + [0] * (p + 2 * n - 1 - len(high))
        expected_den = d * low_den
        for t in range(p + 2 * n):
            expected = sum(map(mul, coeffs, low[t : t + n]))
            if high[t] * expected_den != expected * high_den:
                actual = rows[i + 1][t - 1] if 0 < t <= len(rows[i + 1]) else Fraction(0)
                violations.append((i, t - n, _fraction(expected, expected_den), actual))
    return violations


def _row_sum_form(gf):
    """Build the row sums of gf's trapezoid once; returns i -> T(1) * R(1)^i."""
    t, r = sum(gf.numerator), sum(gf.denominator_tail)
    return lambda i: t * r**i


def row_sum(i: int, spec: RecurrenceSpec, seeds: SeedVector) -> Fraction:
    """Closed-form sum of row i, T(1) * R(1)^i; a call builds the form for its one row."""
    if i < 0:
        raise ValueError("row index must be >= 0")
    return _row_sum_form(build_genfunc(spec, seeds))(i)


def diagonal_sum(trapezoid: Trapezoid, i: int) -> Fraction:
    """Sum of the i-th anti-diagonal: recovers the sequence term x_i."""
    if i < 0:
        raise ValueError("diagonal index must be >= 0")
    if len(trapezoid.rows) < i + 1:
        raise ValueError(
            "diagonal %d needs %d rows but only %d were built"
            % (i, i + 1, len(trapezoid.rows))
        )
    rows = trapezoid.rows
    return sum((rows[i - j][j] for j in range(i + 1) if j < len(rows[i - j])), Fraction(0))
