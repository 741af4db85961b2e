"""Arithmetic trapezoid: the staggered coefficient table of T(z)*R(z)^i.

Row i holds the p = i*(n-1) + n coefficients of z^i .. z^{i+p-1} in
T(z)*R(z)^i, where f(z) = T(z)/(1 - R(z)) is the sequence's generating
function.  For the classical degree-2 case with unit coefficients and
seeds this is Pascal's triangle dressed as a trapezoid; in general the
rows obey

    C_{i+1, j+n-1} = sum_k a_k C_{i, j+k}        (k = 0 .. n-1)

with out-of-range entries read as zero, the diagonal sums reproduce the
sequence itself, and each row sums to a fixed multiple of (sum a_k)^i.

Degrees 2 and 3 additionally have direct per-entry closed forms built
from binomial coefficients.  The form is built once per spec (seed count
and degree checked once) and then evaluated at each (i, j);
coeff_quadratic / coeff_cubic build it for their one entry.  Each
monomial is evaluated only when its binomial guard is nonzero, which
keeps every exponent non-negative so the arithmetic stays exact even
for coefficient values of 0.
"""

import math
from fractions import Fraction

from .genfunc import build_genfunc
from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _poly_mul, make_seeds, make_spec
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
    n = spec.degree
    gf = build_genfunc(spec, seeds)
    t_poly = list(gf.numerator)
    r_poly = list(gf.denominator_tail)

    rows = []
    cur = t_poly
    for i in range(num_rows):
        p = row_length(i, n)
        row = tuple(
            cur[i + j] if 0 <= i + j < len(cur) else Fraction(0) for j in range(p)
        )
        rows.append(row)
        if i + 1 < num_rows:
            cur = _poly_mul(cur, r_poly)
    return Trapezoid(tuple(rows), spec, seeds, "expansion")


def _closed_form(spec: RecurrenceSpec, seeds: SeedVector):
    """Build the per-entry closed form of a degree-2 or degree-3 spec
    once; returns its evaluation (i, j) -> entry for 0 <= j < row_length."""
    _check_seeds(spec, seeds)
    if spec.degree == 2:
        b, a = spec.coeffs
        x0, x1 = seeds

        def entry(i, j):
            total = Fraction(0)
            c = _binom(i, j)
            if c:
                total += c * a ** (i - j) * b**j * x0
            c = _binom(i, j - 1)
            if c:
                total -= c * a ** (i - j + 2) * b ** (j - 1) * x0
                total += c * a ** (i - j + 1) * b ** (j - 1) * x1
            return total

        return entry
    if spec.degree == 3:
        g, b, a = spec.coeffs
        x0, x1, x2 = seeds

        def entry(i, j):
            total = Fraction(0)
            for k in range(j // 2 + 1):
                b1 = _binom(j - k - 2, k) * _binom(i, j - k - 2)
                if b1:
                    total += b1 * a ** (i - j + k + 2) * b ** (j - 2 - 2 * k) * g**k * x2
                    total -= b1 * a ** (i - j + k + 3) * b ** (j - 2 - 2 * k) * g**k * x1
                b2 = _binom(j - k - 1, k) * _binom(i, j - k - 1)
                if b2:
                    total += b2 * a ** (i - j + k + 1) * b ** (j - 1 - 2 * k) * g**k * x1
                b3 = _binom(j - k, k) * _binom(i, j - k)
                if b3:
                    total += b3 * a ** (i - j + k) * b ** (j - 2 * k) * g**k * x0
                b4 = _binom(i - k + 1, j - 2 * k - 1) * _binom(i, i - k)
                if b4:
                    total -= b4 * a ** (i - j + k + 2) * b ** (j - 1 - 2 * k) * g**k * x0
            return total

        return entry
    raise ValueError(
        "closed-form trapezoid entries exist only for degrees 2 and 3 "
        "(got degree %d); use build_expansion" % spec.degree
    )


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
    """Build rows from the per-entry closed forms (degrees 2 and 3 only)."""
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
    coeffs = trapezoid.spec.coeffs
    n = trapezoid.spec.degree
    violations = []
    for i in range(len(trapezoid.rows) - 1):
        p = len(trapezoid.rows[i])
        for j in range(-n, p + n):
            actual = trapezoid.entry(i + 1, j + n - 1)
            expected = sum(
                (coeffs[k] * trapezoid.entry(i, j + k) for k in range(n)),
                Fraction(0),
            )
            if actual != expected:
                violations.append((i, j, expected, actual))
    return violations


def row_sum(i: int, spec: RecurrenceSpec, seeds: SeedVector) -> Fraction:
    """Closed-form sum of row i: a fixed seed combination times (sum a_k)^i."""
    if i < 0:
        raise ValueError("row index must be >= 0")
    _check_seeds(spec, seeds)
    n = spec.degree
    coeffs = spec.coeffs
    inner = Fraction(0)
    for r in range(n):
        weight = Fraction(1) - sum(
            (coeffs[n + r - l - 1] for l in range(r, n - 1)), Fraction(0)
        )
        inner += weight * seeds[r]
    return inner * sum(coeffs, Fraction(0)) ** i


def diagonal_sum(trapezoid: Trapezoid, i: int) -> Fraction:
    """Sum of the i-th anti-diagonal: recovers the sequence term x_i."""
    if i < 0:
        raise ValueError("diagonal index must be >= 0")
    if len(trapezoid.rows) < i + 1:
        raise ValueError(
            "diagonal %d needs %d rows but only %d were built"
            % (i, i + 1, len(trapezoid.rows))
        )
    return sum((trapezoid.entry(i - j, j) for j in range(i + 1)), Fraction(0))
