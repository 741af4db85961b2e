"""Oracles the benchmark computes itself, outside the timed interval.

Exact values are checked modulo the Mersenne prime 2^61 - 1: every
denominator that occurs is a product of the small denominators of the
inputs, so it is invertible there, and a wrong value passes with
probability about 2^-61.  Term and linear-form checks use x^k mod the
characteristic polynomial (Fiduccia's reduction), which shares no code
with the companion-matrix powers under test.  Roots are checked against
mpmath's polyroots in a private context, so the global precision is
never touched by the oracle.
"""

import functools
import math
from fractions import Fraction

import mpmath

P = (1 << 61) - 1


def mod(x) -> int:
    """Residue of an int or Fraction modulo P."""
    if isinstance(x, int):
        return x % P
    return x.numerator % P * pow(x.denominator % P, -1, P) % P


def bits(x) -> int:
    x = Fraction(x)
    return x.numerator.bit_length() + x.denominator.bit_length()


def _mulmod(a, b, coeffs):
    """(a * b) mod (x^n - sum coeffs[j] x^j), all residues mod P."""
    n = len(coeffs)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * n - 2, n - 1, -1):
        top = prod[d] % P
        if top:
            for j, c in enumerate(coeffs):
                prod[d - n + j] += top * c
    return [v % P for v in prod[:n]]


def linear_form(coeffs, k: int):
    """Seed coefficients of x_k mod P: the coefficients of x^k mod p(x)."""
    cm = [mod(c) for c in coeffs]
    n = len(cm)
    result = [1] + [0] * (n - 1)
    if n == 1:
        return [pow(cm[0], k, P)]
    base = [0, 1] + [0] * (n - 2)
    while k:
        if k & 1:
            result = _mulmod(result, base, cm)
        k >>= 1
        if k:
            base = _mulmod(base, base, cm)
    return result


def term(coeffs, seeds, k: int) -> int:
    return sum(c * mod(s) for c, s in zip(linear_form(coeffs, k), seeds)) % P


def prefix(coeffs, seeds, count: int):
    """x_0 .. x_{count-1} mod P by running the recurrence in the field."""
    cm = [mod(c) for c in coeffs]
    n = len(cm)
    out = [mod(s) for s in seeds][:count]
    while len(out) < count:
        out.append(sum(c * out[-n + j] for j, c in enumerate(cm)) % P)
    return out


def exact_terms(coeffs, seeds, count: int):
    """Exact terms by plain iteration, for small counts."""
    n = len(coeffs)
    out = list(seeds)[:count]
    while len(out) < count:
        out.append(sum((c * out[-n + j] for j, c in enumerate(coeffs) if c), Fraction(0)))
    return out


def growth_bits(coeffs, seeds, horizon: int = 256) -> float:
    """Average growth in bits per step of num + den over the second half of the horizon."""
    terms = exact_terms(coeffs, seeds, horizon + 1)
    n = len(coeffs)

    def size(m):
        return max(bits(t) for t in terms[m - n : m + 1])

    return max(1 / 64, (size(horizon) - size(horizon // 2)) / (horizon - horizon // 2))


def check_prefix(values, coeffs, seeds, count: int):
    if len(values) != count:
        return "length %d, expected %d" % (len(values), count)
    expected = prefix(coeffs, seeds, count)
    for k, (v, e) in enumerate(zip(values, expected)):
        if mod(v) != e:
            return "term %d differs from the modular recurrence" % k
    return None


def genfunc_parts(coeffs, seeds):
    """T and R of f = T/(1 - R), with r_i = a_{n-i} and T = (1 - R) f truncated below z^n."""
    n = len(coeffs)
    r = [Fraction(0)] + [coeffs[n - i] for i in range(1, n + 1)]
    t = [seeds[d] - sum((r[i] * seeds[d - i] for i in range(1, d + 1)), Fraction(0)) for d in range(n)]
    return t, r


def check_trapezoid(rows, coeffs, seeds, num_rows: int):
    """Entries against T(z) R(z)^i mod P, row sums against T(1) R(1)^i,
    anti-diagonal sums against the sequence; sums are taken here."""
    n = len(coeffs)
    if len(rows) != num_rows:
        return "%d rows, expected %d" % (len(rows), num_rows)
    t, r = genfunc_parts(coeffs, seeds)
    tm, rm = [mod(v) for v in t], [mod(v) for v in r]
    row_mods = []
    cur = tm
    for i, row in enumerate(rows):
        length = i * (n - 1) + n
        if len(row) != length:
            return "row %d has %d entries, expected %d" % (i, len(row), length)
        got = [mod(v) for v in row]
        want = [cur[i + j] if i + j < len(cur) else 0 for j in range(length)]
        if got != want:
            return "row %d differs from T(z) R(z)^%d" % (i, i)
        row_mods.append(got)
        if i + 1 < num_rows:
            nxt = [0] * (len(cur) + len(rm) - 1)
            for a, ca in enumerate(cur):
                if ca:
                    for b, cb in enumerate(rm):
                        if cb:
                            nxt[a + b] = (nxt[a + b] + ca * cb) % P
            cur = nxt
    t1, r1 = sum(tm) % P, sum(rm) % P
    for i, got in enumerate(row_mods):
        if sum(got) % P != t1 * pow(r1, i, P) % P:
            return "row %d sum differs from T(1) R(1)^%d" % (i, i)
    seq = prefix(coeffs, seeds, num_rows)
    for d in range(num_rows):
        total = sum(row_mods[d - j][j] for j in range(d + 1) if j < len(row_mods[d - j]))
        if total % P != seq[d]:
            return "anti-diagonal %d does not sum to x_%d" % (d, d)
    return None


_CTX = mpmath.MPContext()
_CTX.dps = 50


def reference_roots(coeffs, exact=False):
    """All roots of x^n - sum a_j x^j at 50 digits, as Python complex
    (or as 50-digit mpc when `exact`)."""
    found = _reference_roots(tuple(coeffs))
    return list(found) if exact else [complex(z) for z in found]


@functools.lru_cache(maxsize=None)
def _reference_roots(coeffs: tuple):
    """Zero roots (a0 = a1 = ... = 0) are split off first, since polyroots
    converges slowly on a multiple root; a stubborn case gets a second,
    longer attempt before NoConvergence is raised."""
    zeros = next((j for j, c in enumerate(coeffs) if c != 0), len(coeffs))
    rest = coeffs[zeros:]
    if len(rest) <= 1:
        found = [_CTX.mpc(c.numerator) / c.denominator for c in rest]
    else:
        poly = [1] + [-_CTX.mpf(c.numerator) / c.denominator for c in reversed(rest)]
        try:
            found = _CTX.polyroots(poly, maxsteps=400, extraprec=120)
        except mpmath.libmp.NoConvergence:
            found = _CTX.polyroots(poly, maxsteps=4000, extraprec=600)
    return tuple([_CTX.mpc(0)] * zeros + list(found))


def min_separation(roots) -> float:
    return min(
        (abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]),
        default=math.inf,
    )


def match_roots(got, ref, rel_tol: float):
    """None when every reference root has its own computed root within rel_tol."""
    if len(got) != len(ref):
        return "%d roots, expected %d" % (len(got), len(ref))
    free = [complex(z) for z in got]
    for z in ref:
        j = min(range(len(free)), key=lambda i: abs(free[i] - z))
        if abs(free[j] - z) > rel_tol * (1 + abs(z)):
            return "root %r is %.2e from the nearest computed root" % (z, abs(free[j] - z))
        free.pop(j)
    return None


def unique_dominant(roots, rel: float = 1e-9) -> bool:
    """True when all roots of largest modulus are one value (possibly repeated)."""
    top = max(abs(z) for z in roots)
    tops = [z for z in roots if abs(z) >= top * (1 - rel)]
    return all(abs(z - tops[0]) <= rel * (1 + top) for z in tops)


# Unit roundoff of the library's working precisions: IEEE doubles, and
# the 40 digits extended precision works at.
WORKING_EPS = {"standard": 2.0**-52, "extended": 1e-39}
# A wrong rounding is the documented defect (ROADMAP item 2: rounding is
# not certified against its headroom) only where the error bound below
# reaches this; the bound is first order, so it gets a factor 4 of room
# (a wrong rounding needs an error of 1/2).
HEADROOM = 1 / 8


@functools.lru_cache(maxsize=None)
def binet_reference(coeffs: tuple, seeds: tuple):
    """What the Binet error bound needs, from the reference roots, which
    must be distinct: (root moduli, |weights|, root perturbation per unit
    roundoff, condition of the (n+1)x(n+1) weight system the library
    solves, which is infinite when 1 is a root)."""
    n = len(coeffs)
    z = reference_roots(coeffs, exact=True)
    a = [_CTX.mpf(c.numerator) / c.denominator for c in coeffs]
    terms = [_CTX.mpf(t.numerator) / t.denominator for t in exact_terms(coeffs, seeds, n + 1)]
    system = _CTX.matrix([[zi**r for zi in z] + [1] for r in range(n + 1)])
    try:
        inverse = system**-1
    except ZeroDivisionError:
        cond = math.inf
        vandermonde = _CTX.matrix([[zi**r for zi in z] for r in range(n)])
        weights = _CTX.lu_solve(vandermonde, _CTX.matrix(terms[:n]))
    else:
        cond = float(_CTX.mnorm(system, 1) * _CTX.mnorm(inverse, 1))
        weights = inverse * _CTX.matrix(terms)
    weights = [float(abs(weights[i])) for i in range(n)]
    spread = []
    for zi in z:
        size = abs(zi) ** n + sum(abs(c) * abs(zi) ** j for j, c in enumerate(a))
        slope = abs(n * zi ** (n - 1) - sum(j * c * zi ** (j - 1) for j, c in enumerate(a) if j))
        spread.append(float(size / slope))
    return [float(abs(zi)) for zi in z], weights, spread, cond


def binet_error_bound(coeffs, seeds, k: int, exact, precision: str) -> float:
    """First-order bound on how far the integer nearest_integer returns for
    x_k can legitimately be from x_k.

    With unit roundoff eps in the working precision: each root moves by
    eps * spread, which moves r^k by k |r|^(k-1) times that; the weights
    move by eps * cond * max|w|; the power and the sum add (n + 2 log2 k)
    roundings of every term; nearest_integer then rounds the value to 53
    bits.  Over about 145,000 Binet evaluations of spectrum specs (degrees
    2-16, k < 200) the error of the value binet_eval returned stayed below
    this bound in all but one case, which reached 1.4 times it.
    """
    mags, weights, spread, cond = binet_reference(tuple(coeffs), tuple(seeds))
    n = len(weights)
    terms = sum(w * m**k for w, m in zip(weights, mags))
    moved = sum(w * k * m ** (k - 1) * s for w, m, s in zip(weights, mags, spread)) if k else 0.0
    solve = cond * max(weights) * sum(m**k for m in mags)
    spill = (n + 2 * math.log2(k + 2)) * terms
    return abs(float(exact)) * 2.0**-53 + WORKING_EPS[precision] * (moved + solve + spill)
