"""Exact engine for degree-n linear recurrences tied to monic polynomials.

A spec with coefficients (a0, ..., a_{n-1}) encodes two objects at once:

    x^n     = a_{n-1} x^{n-1} + ... + a_1 x + a_0
    x_{k+n} = a_{n-1} x_{k+n-1} + ... + a_1 x_{k+1} + a_0 x_k

Coefficients are stored ascending, a0 first, so a_{n-1} is the one that
multiplies x_{k+n-1}. Everything in this module is exact rational
arithmetic; sequences grow exponentially and floating point would corrupt
the tables downstream modules reproduce bit-for-bit.

Because the two relations are one, x_k written as a linear form in the
seeds has the coefficients of x^k mod p(x).  symbolic_term and term_at
compute that remainder by squaring, O(n^2 log k); generate stays a plain
forward loop so that checks have a side which does not use it.
"""

import math
from fractions import Fraction

from .errors import InvalidSpecError, SeedMismatchError
from .reports import Record


def _to_fraction(value, error_cls):
    """Convert an int, Fraction, or 'p/q' string; reject inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, complex)):
        raise error_cls(f"exact rational required, got inexact {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error_cls(f"not a rational value: {value!r}") from exc


class RecurrenceSpec(Record):
    """Coefficients a0..a_{n-1} of a monic polynomial / linear recurrence."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidSpecError("a spec needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def degenerate(self) -> bool:
        """True when a0 == 0: x = 0 is a characteristic root and the
        recurrence factors through a lower degree."""
        return self.coeffs[0] == 0


class SeedVector(Record):
    """Initial terms x_0..x_{n-1}, exact rationals."""

    values: tuple[Fraction, ...]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]


def make_spec(coeffs) -> RecurrenceSpec:
    """Build a spec from a list of rationals (ints, Fractions, or 'p/q')."""
    values = tuple(_to_fraction(c, InvalidSpecError) for c in coeffs)
    if not values:
        raise InvalidSpecError("a spec needs at least one coefficient")
    return RecurrenceSpec(values)


def make_seeds(values) -> SeedVector:
    seeds = tuple(_to_fraction(v, SeedMismatchError) for v in values)
    if not seeds:
        raise SeedMismatchError("a seed vector needs at least one entry")
    return SeedVector(seeds)


def _check_seeds(spec: RecurrenceSpec, seeds: SeedVector):
    if len(seeds) != spec.degree:
        raise SeedMismatchError(
            f"spec has degree {spec.degree} but {len(seeds)} seeds were given"
        )


def generate(spec: RecurrenceSpec, seeds: SeedVector, count: int) -> list[Fraction]:
    """First `count` terms of the sequence, exactly.

    Plain O(count * n) iteration; use term_at for a single far-out index.
    """
    _check_seeds(spec, seeds)
    if count < 0:
        raise ValueError("count must be >= 0")
    n = spec.degree
    terms = list(seeds.values[:count])
    while len(terms) < count:
        nxt = Fraction(0)
        for j, a in enumerate(spec.coeffs):
            if a:
                nxt += a * terms[len(terms) - n + j]
        terms.append(nxt)
    return terms


def _poly_mul(a, b):
    """Product of two dense ascending coefficient lists, in their type."""
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return out


def _scale(values):
    """(ints, lcm) with values[k] == ints[k] / lcm, lcm the common denominator."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def _reduce(poly, spec: RecurrenceSpec) -> list[Fraction]:
    """poly mod p(x), in place: fold each x^d, d >= n, by x^n = sum a_j x^j."""
    n = spec.degree
    while len(poly) > n:
        c = poly.pop()  # coefficient of x^d, d = len(poly) after the pop
        if c:
            low = len(poly) - n
            for j, a in enumerate(spec.coeffs):
                if a:
                    poly[low + j] += c * a
    return poly


class SymbolicTerm(Record):
    """x_k written as an exact linear form over the seeds."""

    k: int
    seed_coeffs: tuple[Fraction, ...]

    def evaluate(self, seeds: SeedVector) -> Fraction:
        if len(seeds) != len(self.seed_coeffs):
            raise SeedMismatchError(
                f"linear form has {len(self.seed_coeffs)} coefficients, got {len(seeds)} seeds"
            )
        return sum((c * s for c, s in zip(self.seed_coeffs, seeds) if c), Fraction(0))


def symbolic_term(spec: RecurrenceSpec, k: int) -> SymbolicTerm:
    """Coefficients of x_0..x_{n-1} expressing x_k; unit vector for k < n.

    They are the coefficients of x^k mod p(x) (Fiduccia 1985): the
    recurrence and x^n = sum a_j x^j are the same relation.  x^k is built
    by square-and-multiply-by-x over the bits of k, high bit first, each
    step reduced mod p(x), so O(n^2 log k) exact operations.
    """
    if k < 0:
        raise ValueError("k must be >= 0 (backward extension is not defined)")
    form = [Fraction(1)] + [Fraction(0)] * (spec.degree - 1)
    for bit in bin(k)[2:]:
        form = _reduce(_poly_mul(form, form), spec)
        if bit == "1":
            form = _reduce([Fraction(0)] + form, spec)
    return SymbolicTerm(k, tuple(form))


def term_at(spec: RecurrenceSpec, seeds: SeedVector, k: int) -> Fraction:
    """x_k as the linear form of symbolic_term applied to the seeds.

    O(n^2 log k) exact operations (x^k mod p(x), see symbolic_term).
    """
    _check_seeds(spec, seeds)
    return symbolic_term(spec, k).evaluate(seeds)
