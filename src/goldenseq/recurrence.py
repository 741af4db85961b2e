"""Exact engine for degree-n linear recurrences tied to monic polynomials.

A spec with coefficients (a0, ..., a_{n-1}) encodes two objects at once:

    x^n     = a_{n-1} x^{n-1} + ... + a_1 x + a_0
    x_{k+n} = a_{n-1} x_{k+n-1} + ... + a_1 x_{k+1} + a_0 x_k

Coefficients are stored ascending, a0 first, so a_{n-1} is the one that
multiplies x_{k+n-1}. Everything in this module is exact; sequences grow
exponentially and floating point would corrupt the tables downstream
modules reproduce bit-for-bit.

Because the two relations are one, x_k written as a linear form in the
seeds has the coefficients of x^k mod p(x).  symbolic_term and term_at
compute that remainder by squaring, O(n^2 log k); generate stays a plain
forward loop so that checks have a side which does not use it.

Both run on ints through the exact polynomial layer the exact modules
share: _scale (ints over a common denominator), _lags (R on ints, D the
lcm of the coefficient denominators), _numerator (T over 1 - R),
_poly_mul and _reduce (a fold by R's lags); roots and binet evaluate
through numerics.horner, which imports nothing from here.  generate keeps
z_k = S*D^k*x_k (seeds over S), _power_form y^k mod q(y) for y = D*x.
Values leave as Fractions in lowest terms, each built once by _fraction
(one gcd, none over a denominator of 1) or, once reduced, by _coprime:
term_at and symbolic_term directly, generate and
genfunc.series_coefficients through _lowest_terms, which holds a window
of ints and, once the running denominator is long, reduces each term by
gcds with the short S*D.
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
    return RecurrenceSpec(tuple(_to_fraction(c, InvalidSpecError) for c in coeffs))


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
    """First `count` terms of the sequence, exactly, in lowest terms.

    Plain O(count * n) iteration; use term_at for a single far-out index.
    On ints: z_k = S*D^k*x_k steps by _lags, reduced by _lowest_terms.
    """
    _check_seeds(spec, seeds)
    if count < 0:
        raise ValueError("count must be >= 0")
    weights, d = _lags(spec.coeffs)
    xs, den = _scale(seeds.values)
    return _lowest_terms([x * d**i for i, x in enumerate(xs[:count])], weights, den, d, count)


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


def _lags(coeffs):
    """R on ints, (lags, d): (n - j, c_j * d^(n-1-j)) for each c_j = d * coeffs[j] != 0."""
    n = len(coeffs)
    ints, d = _scale(coeffs)
    return [(n - j, c * d ** (n - 1 - j)) for j, c in enumerate(ints) if c], d


def _numerator(q, v):
    """T of v over q = 1 - R: T_d = v_d + sum_{j<d} q_(j+1) v_(d-1-j), d < deg q."""
    return [v[d] + sum(q[j + 1] * v[d - 1 - j] for j in range(d)) for d in range(len(q) - 1)]


_GCD_BITS = 1024  # below this many bits of running denominator, one gcd per term (_fraction) is the cheaper reduction


def _coprime(num, den):
    """num / den for coprime ints, den > 0, built as 3.12's
    Fraction._from_coprime_ints builds it: no checks, no normalisation."""
    obj = object.__new__(Fraction)
    obj._numerator = num
    obj._denominator = den
    return obj


def _fraction(num, den):
    """num / den in lowest terms for ints, den > 0: one gcd, none when
    den is 1, and no re-normalisation.  Every exact value the exact
    layers build leaves through here, or through _coprime once reduced."""
    if den == 1:
        return _coprime(num, 1)
    g = math.gcd(num, den)
    return _coprime(num // g, den // g) if g > 1 else _coprime(num, den)


def _unscale(ints, den, d):
    """ints[k] / (den * d^k) as Fractions (_fraction), in place, so that
    the ints and the Fractions are never held as two whole lists at once."""
    for k, v in enumerate(ints):
        ints[k] = _fraction(v, den)
        den *= d
    return ints


def _lowest_terms(head, weights, s, d, count):
    """The first `count` terms t_k / (s * d^k) as Fractions in lowest
    terms: t_k = head[k], and past the head t_k = sum w * t_(k-i) over
    (i, w) in weights.

    While the running denominator is below _GCD_BITS bits, where the gcd
    is cheap, each term is reduced by one gcd with it (_unscale), and an
    integer spec's terms (s = d = 1) by none.
    Past that, only a window of the last max(i) ints is kept, and each
    term y is reduced by gcds with the short r = s * d instead of one
    with its long denominator.  Every prime of the running denominator
    divides r, so gcd(gcd(y, r), den) is what y shares with it up to the
    powers in r; repeating on what is left with that factor in place of
    r takes out the rest.  With f the factor y gave up, the window's
    common content is gcd(f, *window): it is divided out of the window
    and of the running denominator, and the linear recurrence carries
    that on to every later term, so the ints stay near the size of the
    reduced terms.
    """
    width = max((i for i, _ in weights), default=0)
    start = len(head)
    if d > 1:  # the first k with s * d^k of about _GCD_BITS bits
        start = max(start, math.ceil((_GCD_BITS - math.log2(s)) / math.log2(d)))
    elif s.bit_length() < _GCD_BITS:
        start = count
    start = min(start, count)
    out = head[:start]
    for k in range(len(out), start):
        out.append(sum([w * out[k - i] for i, w in weights]))
    win = out[len(out) - width :]
    _unscale(out, s, d)
    if start == count:
        return out
    den = s * d**start
    g = math.gcd(den, *win)  # what the window and the denominator share so far
    win = [t // g for t in win]
    den //= g
    r = s * d
    for _ in range(start, count):
        y = sum([w * win[-i] for i, w in weights])
        win.append(y)
        del win[0]
        num, low, f = (y, den, 1) if y else (0, 1, den)  # 0 is 0/1: it gives up all of den
        g = math.gcd(math.gcd(num, r), low)
        while g > 1:  # only the primes of g can still be shared
            num //= g
            low //= g
            f *= g
            g = math.gcd(math.gcd(num, g), low)
        if f > 1 and (g := math.gcd(f, *win)) > 1:
            win = [t // g for t in win]
            den //= g
        out.append(_coprime(num, low))
        den *= d
    return out


def _reduce(poly, weights, n):
    """poly mod y^n - sum w y^(n-i) over the lags (i, w), in place: fold each y^d, d >= n."""
    while len(poly) > n:
        c = poly.pop()  # coefficient of y^d, d = len(poly) after the pop
        if c:
            d = len(poly)
            for i, w in weights:
                poly[d - i] += c * w
    return poly


def _power_form(spec: RecurrenceSpec, k: int):
    """(b, d): b = y^k mod q(y) for y = d*x and q(y) = d^n p(y/d), monic
    with int coefficients, so x^k mod p(x) == sum_j b[j] d^j x^j / d^k.
    Square-and-multiply-by-y over the bits of k, high bit first."""
    if k < 0:
        raise ValueError("k must be >= 0 (backward extension is not defined)")
    n = spec.degree
    weights, d = _lags(spec.coeffs)
    form = [1] + [0] * (n - 1)
    for bit in bin(k)[2:]:
        form = _reduce(_poly_mul(form, form), weights, n)
        if bit == "1":
            form = _reduce([0] + form, weights, n)
    return form, d


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
    recurrence and x^n = sum a_j x^j are the same relation.  O(n^2 log k)
    integer operations (see _power_form).
    """
    form, d = _power_form(spec, k)
    den = d**k
    return SymbolicTerm(k, tuple(_fraction(b * d**j, den) for j, b in enumerate(form)))


def term_at(spec: RecurrenceSpec, seeds: SeedVector, k: int) -> Fraction:
    """x_k as the linear form of symbolic_term applied to the seeds.

    O(n^2 log k) integer operations (x^k mod p(x), see _power_form), and
    one Fraction: x_k = sum_j b_j d^j s_j / (S d^k), seeds s_j / S.
    """
    _check_seeds(spec, seeds)
    form, d = _power_form(spec, k)
    xs, den = _scale(seeds.values)
    total = sum(b * d**j * x for j, (b, x) in enumerate(zip(form, xs)) if b)
    return _fraction(total, den * d**k)
