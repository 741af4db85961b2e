"""Extended precision is self-contained: exact rounding far out,
results that do not depend on the global mpmath precision, and
polynomial values that are exact until one rounding."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.cli import main
from goldenseq.numerics import arithmetic, horner, to_complex
from goldenseq.roots import _repulsion

BUILTINS = ("fibonacci", "lucas", "pell", "tribonacci")
# degree 4, so its roots come from the iteration rather than a closed form
QUARTIC = {"tetranacci": ("1,1,1,1", "0,0,0,1")}


def _preset(name):
    if name in QUARTIC:
        coeffs, seeds = QUARTIC[name]
        return gs.make_spec(coeffs.split(",")), gs.make_seeds(seeds.split(","))
    preset = gs.BUILTIN_PRESETS[name]
    return gs.make_spec(preset.coeffs), gs.make_seeds(preset.seeds)


def _cli_spec(name):
    if name in QUARTIC:
        coeffs, seeds = QUARTIC[name]
        return [f"--coeffs={coeffs}", f"--seeds={seeds}"]
    return ["--preset", name]


@pytest.mark.parametrize("name", BUILTINS)
def test_extended_binet_rounding_is_exact_through_k_90(name):
    spec, seeds = _preset(name)
    rootset = gs.solve_roots(spec, gs.EXTENDED)
    weights = gs.solve_weights(spec, seeds, rootset)
    terms = gs.generate(spec, seeds, 91)
    for k, term in enumerate(terms):
        assert gs.nearest_integer(gs.binet_eval(weights, rootset, k)) == term, (name, k)


def test_nearest_integer_agrees_with_round_on_floats():
    rng = random.Random(2016)
    values = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 2.0**52 + 1, -(2.0**60), 0.49999999999999994]
    values += [rng.uniform(-1e6, 1e6) for _ in range(2000)]
    values += [rng.randint(-(10**6), 10**6) + 0.5 for _ in range(500)]
    values += [rng.uniform(-1, 1) * 2.0 ** rng.randint(0, 80) for _ in range(500)]
    for x in values:
        assert gs.nearest_integer(complex(x, 0.0)) == round(x), x


def test_standard_context_computes_what_mpmath_fp_computes():
    # standard precision no longer imports mpmath; its context must give
    # the same float or complex, bit for bit, as mpmath.fp did
    ctx = arithmetic(gs.STANDARD).ctx
    rng = random.Random(16)
    values = [3, -3, 0, 0.0, -0.0, 2.5, -2.5, 1e-300, -1e300, float("inf")]
    values += [rng.uniform(-1e6, 1e6) for _ in range(500)]
    values += [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(500)]
    values += [complex(rng.uniform(-5, 5), sign * 0.0) for sign in (1, -1) for _ in range(100)]
    for name in ("sqrt", "cbrt"):
        for x in values:
            ours, theirs = getattr(ctx, name)(x), getattr(mpmath.fp, name)(x)
            assert (type(ours), repr(ours)) == (type(theirs), repr(theirs)), (name, x)
    for x in [1e-15, 0.4] + [rng.uniform(-10, 10) for _ in range(500)]:
        assert repr(ctx.expj(x)) == repr(mpmath.fp.expj(x)), x
    assert (ctx.pi, ctx.mpf, ctx.mpc) == (mpmath.fp.pi, mpmath.fp.mpf, mpmath.fp.mpc)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_nearest_integer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="inf or nan"):
        gs.nearest_integer(complex(value, 0.0))


def test_unknown_precision_is_rejected():
    spec, seeds = _preset("fibonacci")
    with pytest.raises(ValueError, match="precision must be one of"):
        gs.solve_roots(spec, "quad")
    with pytest.raises(ValueError, match="precision must be one of"):
        gs.verify_all(spec, seeds, precision="quad")


def _library_results(name):
    spec, seeds = _preset(name)
    rootset = gs.solve_roots(spec, gs.EXTENDED)
    weights = gs.solve_weights(spec, seeds, rootset)
    values = [gs.binet_eval(weights, rootset, k) for k in (0, 40, 100, 150)]
    return (
        rootset,
        weights,
        values,
        [gs.nearest_integer(v) for v in values],
        gs.ratio_convergence(spec, seeds, 60, gs.EXTENDED),
        gs.golden_identity_check(spec, rootset),
        gs.verify_all(spec, seeds, precision=gs.EXTENDED),
    )


def _cli_argvs(name):
    return [
        argv + _cli_spec(name) + ["--precision", "extended"]
        for argv in (
            ["roots", "--format", "json"],
            ["roots"],
            ["binet", "--k", "100"],
            ["binet", "--k", "100", "--format", "csv"],
            ["converge"],
            ["verify", "--format", "json"],
        )
    ]


def _cli_outputs(name):
    outputs = []
    for argv in _cli_argvs(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outputs.append((code, out.getvalue()))
    return outputs


@pytest.mark.parametrize("name", BUILTINS + tuple(QUARTIC))
def test_extended_results_ignore_global_precision(name):
    reference = _library_results(name), _cli_outputs(name)
    for dps in (5, 60):
        with mpmath.workdps(dps):
            assert (_library_results(name), _cli_outputs(name)) == reference, dps


# Runs main() on each argv of the JSON list argv[2] inside
# mpmath.workdps(argv[1]) in a fresh interpreter, so the extended context
# is built there, on the first floating call; prints [code, stdout] pairs.
FIRST_USE_UNDER_WORKDPS = """
import contextlib, io, json, sys
import mpmath
from goldenseq.cli import main
from goldenseq.numerics import arithmetic
outputs = []
with mpmath.workdps(int(sys.argv[1])):
    for argv in json.loads(sys.argv[2]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            outputs.append([main(argv), out.getvalue()])
print(json.dumps(outputs))
"""


@pytest.mark.parametrize("dps", (5, 60))
def test_extended_context_built_under_workdps_prints_the_same(fresh_python, dps):
    names = BUILTINS + tuple(QUARTIC)
    argvs = [argv for name in names for argv in _cli_argvs(name)]
    fresh = fresh_python(FIRST_USE_UNDER_WORKDPS, str(dps), json.dumps(argvs))
    reference = [list(output) for name in names for output in _cli_outputs(name)]
    assert json.loads(fresh) == reference


# ------------------------------------------------- the exact extended Horner

EXT = arithmetic(gs.EXTENDED).ctx


def _exact(value):
    """An int, Fraction or extended number as a (real, imaginary) pair of
    Fractions; extended numbers are dyadic, so this is exact."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    value = EXT.mpc(value)
    return tuple(Fraction(*mpmath.libmp.to_rational(part)) for part in value._mpc_)


def _exact_value(coeffs, z):
    """sum of coeffs[j] z^j in Fractions, as a (real, imaginary) pair."""
    zr, zi = _exact(z)
    x, y = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        cr, ci = _exact(c)
        x, y = x * zr - y * zi + cr, x * zi + y * zr + ci
    return x, y


def _round(x, bits=EXT.prec):
    """x rounded to the nearest number of `bits` significant bits, ties to even."""
    if x == 0:
        return x
    e = abs(x.numerator).bit_length() - x.denominator.bit_length()
    if abs(x) < Fraction(2) ** e:
        e -= 1  # now 2^e <= |x| < 2^(e+1)
    unit = Fraction(2) ** (e + 1 - bits)
    return round(x / unit) * unit  # round() on a Fraction ties to even


def _extended_numbers(min_exp=-300, max_exp=300):
    mantissa = st.integers(-(2**136), 2**136)
    return st.builds(lambda m, e: EXT.ldexp(m, e), mantissa, st.integers(min_exp, max_exp))


def _points():
    part = _extended_numbers(-200, 200)
    zero = st.just(EXT.mpc(0))
    real = part.map(EXT.mpc)
    imaginary = part.map(lambda y: EXT.mpc(0, y))
    general = st.builds(EXT.mpc, part, part)
    # parts 2^600 apart, either way round
    apart = st.builds(
        lambda m1, m2, e, far: EXT.mpc(EXT.ldexp(m1, e), EXT.ldexp(m2, e + far)),
        st.integers(1, 2**136), st.integers(-(2**136), -1), st.integers(-40, 40),
        st.sampled_from((600, -600)),
    )
    return st.one_of(zero, real, imaginary, general, apart)


def _coefficients():
    rational = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**61 - 1))
    extended = st.one_of(
        _extended_numbers().map(EXT.mpc),
        st.builds(EXT.mpc, _extended_numbers(), _extended_numbers()),
    )
    coefficient = st.one_of(st.integers(-9, 9), rational, extended)
    return st.one_of(
        st.lists(rational, min_size=1, max_size=17),
        st.lists(extended, min_size=1, max_size=17),
        st.lists(coefficient, min_size=1, max_size=17),
    )


@settings(max_examples=300, deadline=None)
@given(coeffs=_coefficients(), z=_points())
def test_extended_horner_rounds_the_exact_value_once(coeffs, z):
    # degrees 0-16; every extended number is dyadic, so the value at z is
    # an exact Fraction, and each part must be its correct rounding
    value = horner(EXT, coeffs)(z)
    x, y = _exact_value(coeffs, z)
    assert _exact(value) == (_round(x), _round(y))


@settings(max_examples=300, deadline=None)
@given(
    numerator=st.integers(-(2**400), 2**400),
    denominator=st.integers(1, 2**200),
)
@example(
    numerator=171730181914936359992969710483002515601488843196700462376220626813978115805195029622042817267872563784,
    denominator=210730405514705869,
)
def test_extended_fraction_is_rounded_once(numerator, denominator):
    # a numerator wider than 136 bits must not be rounded on its own before
    # the division: the value is the nearest 136-bit number to the Fraction
    value = Fraction(numerator, denominator)
    assert _exact(to_complex(EXT, value)) == (_round(value), 0)


def test_extended_horner_refuses_points_that_are_not_finite():
    p = horner(EXT, [1, Fraction(1, 3)])
    for z in (EXT.mpc(EXT.inf, 0), EXT.mpc(1, EXT.nan), EXT.mpc(EXT.ninf, 1)):
        with pytest.raises(ValueError, match="not finite"):
            p(z)


def test_extended_horner_refuses_coefficients_that_are_not_finite():
    for c in (EXT.mpc(EXT.inf, 0), EXT.mpc(1, EXT.nan), EXT.mpf(EXT.ninf)):
        with pytest.raises(ValueError, match="not finite"):
            horner(EXT, [1, c, Fraction(1, 3)])(EXT.mpc(1))


def _sqrt_rounds_to(r, square):
    """r == float(sqrt(square)): the exact root lies within half a unit of r."""
    if square == 0:
        return r == 0
    lo = (Fraction(r) + Fraction(math.nextafter(r, 0))) / 2
    hi = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    return lo * lo <= square <= hi * hi


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), min_size=4, max_size=10
    ).filter(lambda c: any(c))
)
def test_extended_residuals_are_the_exact_residuals_rounded(coeffs):
    spec = gs.make_spec(coeffs)
    try:
        rootset = gs.solve_roots(spec, gs.EXTENDED)
    except gs.RootConvergenceError:
        return
    monic = [-a for a in coeffs] + [1]
    for root, residual in zip(rootset.roots, rootset.residuals):
        x, y = _exact_value(monic, root)
        assert _sqrt_rounds_to(residual, x * x + y * y), (root, residual)


# --------------------------------- the fixed-point extended Aberth repulsion


def _wide_numbers():
    # 136-bit mantissas at magnitudes from 2^-700 to 2^736
    return _extended_numbers(-700, 600)


@st.composite
def _repulsion_points(draw):
    """2-6 points with parts far apart in magnitude, plus up to two pairs
    one ulp apart and up to two exact copies, in any order."""
    part = _wide_numbers()
    points = draw(st.lists(st.builds(EXT.mpc, part, part), min_size=2, max_size=6))
    for m, e, y, imaginary in draw(st.lists(
        st.tuples(st.integers(2**135, 2**136 - 2), st.integers(-700, 600), part, st.booleans()),
        max_size=2,
    )):
        x, step = EXT.ldexp(m, e), EXT.ldexp(m + 1, e)
        points += [EXT.mpc(y, x), EXT.mpc(y, step)] if imaginary else [EXT.mpc(x, y), EXT.mpc(step, y)]
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    return draw(st.permutations(points))


def _check_repulsion(z):
    # sum over j != i of 1/(z_i - z_j) in Fractions, with the fallback
    # distance 1e-12 * (1 + |z_i|) of the context for an exactly equal z_j;
    # the kernel must be within 2^-130 of the sum of the terms' moduli,
    # bounded here from below by the larger part of each term
    repel = _repulsion(z, gs.EXTENDED)
    exact = [_exact(w) for w in z]
    for i, (xi, yi) in enumerate(exact):
        re, im, size = Fraction(0), Fraction(0), Fraction(0)
        for j, (xj, yj) in enumerate(exact):
            if j == i:
                continue
            a, b = xi - xj, yi - yj
            if a == b == 0:
                t, u = 1 / _exact(1e-12 * (1 + abs(z[i])))[0], Fraction(0)
            else:
                t, u = a / (a * a + b * b), -b / (a * a + b * b)
            re, im, size = re + t, im + u, size + max(abs(t), abs(u))
        got = _exact(repel(i))
        assert abs(got[0] - re) + abs(got[1] - im) <= size / 2**130, (i, z)


@settings(max_examples=150, deadline=None)
@given(z=_repulsion_points(), moved=st.builds(EXT.mpc, _wide_numbers(), _wide_numbers()))
@example(z=[EXT.mpc(1, 2)] * 3, moved=EXT.mpc(1, 2))
@example(z=[EXT.mpc(1), EXT.mpc(1) + EXT.ldexp(1, -135), EXT.mpc(2)], moved=EXT.ldexp(1, -700))
def test_extended_repulsion_is_the_exact_sum_within_its_bound(z, moved):
    # each point is split again only when it moves: the second check
    # follows a move of z[0], which may need a finer shared power of two
    _check_repulsion(z)
    z[0] = moved
    _check_repulsion(z)


def test_exactly_equal_points_repel_from_the_fallback_distance():
    # z_1 = z_0 counts as 1e-12 * (1 + |z_0|) away, in either precision
    z = [1 + 0j, 1 + 0j, 3 + 0j]
    assert _repulsion(z, gs.STANDARD)(0) == 1 / (1e-12 * 2) + 1 / (1 - 3)
    _check_repulsion([EXT.mpc(w) for w in z])


def _extended_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--precision", "extended"])
    assert code == 0
    return out.getvalue().splitlines()


def test_extended_tetranacci_binet_prints_real_values():
    # N(r) and p'(r) are exact at the roots, so the real root's weight,
    # the probe and the value carry no imaginary dust
    lines = _extended_cli("binet", "--coeffs", "1,1,1,1", "--seeds", "0,0,0,1", "--k", "100")
    assert "value(k=100) = 2505471397838180985096739296.0" in lines
    probe = [line for line in lines if line.startswith("constant probe = ")]
    assert len(probe) == 1 and not probe[0].endswith("i"), probe


def test_extended_residual_of_an_exact_root_pair_is_its_true_value():
    # 0.5 +- 0.866...i are roots of x^2 - x + 1, a factor of the spec's
    # polynomial; the printed 136-bit points are not roots, so |p| > 0
    lines = _extended_cli("roots", "--coeffs", "0,-1,-1,0,-1")
    pair = [line for line in lines if line.startswith(("root[0] = 0.5 ", "root[1] = 0.5 "))]
    assert len(pair) == 2, lines
    assert all(line.split("(residual ")[1].startswith("4.636e-42)") for line in pair), pair


# ------------------------------------------ the exact extended round trip


@st.composite
def _roundtrip_specs(draw):
    """Small-rational specs of degree 1-6 and their seeds; a third put an
    exact zero root in (a0 = 0) and a third the root 1 (sum of a_j = 1)."""
    n = draw(st.integers(1, 6))
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    coeffs = draw(st.lists(small, min_size=n, max_size=n))
    root = draw(st.sampled_from((None, 0, 1)))
    if root == 0:
        coeffs[0] = Fraction(0)
    elif root == 1:
        coeffs[0] = 1 - sum(coeffs[1:])
    seeds = draw(st.lists(small, min_size=n, max_size=n).filter(any))
    return coeffs, seeds


@settings(max_examples=60, deadline=None)
@given(case=_roundtrip_specs())
@example(case=([Fraction(0), Fraction(1), Fraction(1)], [Fraction(1), Fraction(2), Fraction(3)]))
@example(case=([Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1)]))
def test_extended_roundtrip_error_is_the_exact_error_rounded(case):
    # max over k <= 40 of |sum of w_i r_i^k - x_k| / max(1, |x_k|), in
    # Fractions at the rounded weights and roots; the row rounds each part
    # of the error once and takes their hypot, within 2 ulps of the exact
    # value
    coeffs, seed_values = case
    spec, seeds = gs.make_spec(coeffs), gs.make_seeds(seed_values)
    try:
        rootset = gs.solve_roots(spec, gs.EXTENDED)
        weights = gs.solve_weights(spec, seeds, rootset)
    except (gs.RootConvergenceError, gs.DegenerateSpectrumError):
        assume(False)
    rows = gs.verify_all(spec, seeds, precision=gs.EXTENDED)
    residual = next(r for r in rows if r.check == "recurrence_binet_roundtrip").residual
    roots = [_exact(z) for z in rootset.roots]
    powers = [_exact(w) for w in weights.weights[:-1]]  # w_i r_i^k, from k = 0
    worst = Fraction(0)  # the squared error
    for x in gs.generate(spec, seeds, 41):
        re = sum(p for p, _ in powers) - x
        im = sum(q for _, q in powers)
        worst = max(worst, (re * re + im * im) / max(1, x * x))
        powers = [(p * a - q * b, p * b + q * a) for (p, q), (a, b) in zip(powers, roots)]
    ulps = 2 * math.ulp(residual)
    assert Fraction(max(residual - ulps, 0)) ** 2 <= worst <= Fraction(residual + ulps) ** 2
