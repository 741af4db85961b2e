"""Rational generating functions f(z) = T(z) / (1 - R(z)).

For a degree-n recurrence with ascending coefficients a_0..a_{n-1},
R(z) = a_{n-1} z + a_{n-2} z^2 + ... + a_0 z^n collects the recursion
and T(z) (degree <= n-1) absorbs the seeds:

    T_d = x_d - sum_{j=0}^{d-1} a_{n-1-j} x_{d-1-j}   (d >= 1),  T_0 = x_0,

that is, T is (1 - R(z)) times the seeds, cut to degree n-1 (recurrence._numerator).

Series extraction never divides polynomials: the coefficients come out
of the convolution c_k = t_k + sum_i r_i c_{k-i}, exactly, on ints over
common denominators (recurrence._scale): coefficient k is over E*D^k, T
over E and R over D.  Past T and R the convolution is a recurrence of
its last deg R values (recurrence._lags), so they leave as Fractions in
lowest terms through generate's kernel (recurrence._lowest_terms).
"""

from fractions import Fraction

from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _lags, _lowest_terms, _numerator, _scale, _to_fraction
from .reports import Record


def unit_function(n: int) -> int:
    """Discrete unit step: 1 for n >= 0, else 0."""
    return 1 if n >= 0 else 0


def _format_coeff_body(mag: Fraction, power: int, variable: str) -> str:
    if power == 0:
        return str(mag)
    var = variable if power == 1 else "%s^%d" % (variable, power)
    if mag == 1:
        return var
    if mag.denominator == 1:
        return "%s%s" % (mag, var)
    return "(%s)%s" % (mag, var)


def format_polynomial(coeffs, variable: str = "z") -> str:
    """ASCII rendering of a dense ascending coefficient list, e.g. 1 - z - z^2."""
    pieces = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        pieces.append(("-" if c < 0 else "+", _format_coeff_body(abs(c), power, variable)))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" + body) if sign == "-" else body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


class GeneratingFunction(Record):
    """T(z)/(1 - R(z)) with dense ascending Fraction coefficients.

    numerator holds T; denominator_tail holds R including its zero
    constant term, so denominator_tail[i] multiplies z^i and
    denominator_tail[0] == 0 always.
    """

    numerator: tuple
    denominator_tail: tuple

    def __post_init__(self):
        num = tuple(_to_fraction(c, ValueError) for c in self.numerator)
        tail = tuple(_to_fraction(c, ValueError) for c in self.denominator_tail)
        if not num:
            num = (Fraction(0),)
        if not tail:
            tail = (Fraction(0),)
        if tail[0] != 0:
            raise ValueError(
                "denominator tail must have zero constant term (it sits under 1 - R(z))"
            )
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator_tail", tail)

    def display(self, variable: str = "z") -> str:
        num = format_polynomial(self.numerator, variable)
        den_coeffs = [Fraction(1)] + [-c for c in self.denominator_tail[1:]]
        den = format_polynomial(den_coeffs, variable)
        if sum(1 for c in self.numerator if c != 0) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, den)

    def __str__(self) -> str:
        return self.display()


def build_genfunc(spec: RecurrenceSpec, seeds: SeedVector) -> GeneratingFunction:
    """Generating function of the sequence defined by spec and seeds."""
    _check_seeds(spec, seeds)
    tail = (Fraction(0),) + spec.coeffs[::-1]
    return GeneratingFunction(tuple(_numerator([1] + [-c for c in tail[1:]], seeds.values)), tail)


def series_coefficients(gf: GeneratingFunction, count: int) -> list:
    """First `count` exact series coefficients of gf around z = 0, in
    lowest terms.

    On ints: w_k = tau_k D^k + sum_i rho_i D^(i-1) w_{k-i}, w_k = E*D^k*c_k.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    t, den = _scale(gf.numerator)
    weights, d = _lags(gf.denominator_tail[:0:-1])
    head = []
    for k in range(min(count, max(len(gf.denominator_tail) - 1, len(t)))):
        w = t[k] * d**k if k < len(t) else 0
        head.append(w + sum([rho * head[k - i] for i, rho in weights if i <= k]))
    return _lowest_terms(head, weights, den, d, count)
