"""Root-power closed forms: generic weights, degree-2/3 direct formulas."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.binet import (
    TOL_SEP,
    TOL_W,
    _roundtrip,
    check_cubic_closed_form,
    check_separation,
)
from goldenseq.numerics import arithmetic, to_complex
from goldenseq.reports import compare
from goldenseq.errors import (
    DegenerateSpectrumError,
    PremiseError,
    SeedMismatchError,
    UnitRootError,
)

INV_SQRT5 = 0.4472135954999579


def _setup(coeffs, seeds, precision=gs.STANDARD):
    spec = gs.make_spec(coeffs)
    vec = gs.make_seeds(seeds)
    rootset = gs.solve_roots(spec, precision)
    return spec, vec, rootset


def test_fibonacci_weights():
    spec, seeds, rs = _setup([1, 1], [0, 1])
    w = gs.solve_weights(spec, seeds, rs)
    assert w.weights[0] == pytest.approx(INV_SQRT5, abs=1e-12)
    assert w.weights[1] == pytest.approx(-INV_SQRT5, abs=1e-12)
    assert abs(w.weights[2]) < 1e-12


def test_fibonacci_standard_weights_are_correctly_rounded():
    spec, seeds, rs = _setup([1, 1], [0, 1])
    w = gs.solve_weights(spec, seeds, rs)
    assert w.weights[:2] == (INV_SQRT5, -INV_SQRT5)


# x^11 = 3x^10 + 3x^9 + 2x^7 - 2x^6 - x^5 + 2x^4 - x^2 - 2x + 1: here the
# residues N(r)/p'(r) alone are off by up to 6e5 eps (standard) and 2e4
# eps (extended), and the refinement step brings both below 4 eps
ACCURACY_SPEC = ([1, -2, -1, 0, 2, -1, -2, 2, 0, 3, 3], [3, -2, -2, 0, -2, 1, -1, -2, -2, -2, 0])


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_weights_match_an_80_digit_reference(precision):
    import mpmath

    ref = mpmath.MPContext()
    ref.dps = 80
    coeffs, seeds = ACCURACY_SPEC
    n = len(coeffs)
    roots = ref.polyroots([1] + [-c for c in reversed(coeffs)], maxsteps=400, extraprec=400)
    vandermonde = ref.matrix([[r**k for r in roots] for k in range(n)])
    exact = ref.lu_solve(vandermonde, ref.matrix(seeds))
    spec, vec, rs = _setup(coeffs, seeds, precision)
    w = gs.solve_weights(spec, vec, rs)
    eps = arithmetic(precision).eps
    for z, weight in zip(rs.roots, w.weights, strict=False):
        j = min(range(n), key=lambda j: abs(roots[j] - ref.mpc(z.real, z.imag)))
        error = abs(ref.mpc(weight.real, weight.imag) - exact[j])
        assert error <= 64 * eps * abs(exact[j]), (z, weight)


def test_lucas_weights_are_unit():
    spec, seeds, rs = _setup([1, 1], [2, 1])
    w = gs.solve_weights(spec, seeds, rs)
    assert w.weights[0] == pytest.approx(1, abs=1e-9)
    assert w.weights[1] == pytest.approx(1, abs=1e-9)
    assert abs(w.weights[2]) < 1e-9


def test_binet_eval_rounds_to_exact_terms():
    spec, seeds, rs = _setup([1, 1], [0, 1])
    w = gs.solve_weights(spec, seeds, rs)
    for k in range(41):
        value = gs.binet_eval(w, rs, k)
        assert gs.nearest_integer(value) == gs.term_at(spec, seeds, k)


def test_binet_eval_rejects_negative_k():
    spec, seeds, rs = _setup([1, 1], [0, 1])
    w = gs.solve_weights(spec, seeds, rs)
    with pytest.raises(ValueError):
        gs.binet_eval(w, rs, -1)


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_root_power_past_the_float_range_is_refused_in_standard(precision):
    # phi^1500 is about 1e313: complex ** int overflows, and standard
    # precision refuses it; the extended context has no such range
    spec, seeds, rs = _setup([1, 1], [0, 1], precision)
    w = gs.solve_weights(spec, seeds, rs)
    if precision == gs.EXTENDED:
        exact = to_complex(arithmetic(precision).ctx, gs.term_at(spec, seeds, 1500))
        assert abs(gs.binet_eval(w, rs, 1500) - exact) <= 1e-35 * abs(exact)
        return
    with pytest.raises(PremiseError) as info:
        gs.binet_eval(w, rs, 1500)
    assert str(info.value) == "value outside the float range of standard precision"


def test_nearest_integer_guards_imaginary_part():
    assert gs.nearest_integer(complex(54.9999999999, 1e-12)) == 55
    with pytest.raises(ValueError):
        gs.nearest_integer(complex(55, 0.25))


def test_repeated_root_is_rejected():
    # x^2 = 2x - 1 has the double root 1
    spec, seeds, rs = _setup([-1, 2], [1, 1])
    with pytest.raises(DegenerateSpectrumError):
        gs.solve_weights(spec, seeds, rs)


@pytest.mark.parametrize("precision", gs.PRECISIONS)
@pytest.mark.parametrize(
    "coeffs, seeds, expected",
    [
        ([0, 1], [0, 1], (1, -1)),  # roots 1 and 0
        ([Fraction(1, 2), Fraction(1, 2)], [1, 2], (Fraction(5, 3), Fraction(-2, 3))),  # 1 and -1/2
    ],
    ids=("zero-and-one", "half-weighted"),
)
def test_unit_root_specs_solve_and_round_trip(coeffs, seeds, expected, precision):
    spec, vec, rs = _setup(coeffs, seeds, precision)
    w = gs.solve_weights(spec, vec, rs)
    ctx, eps = arithmetic(precision)
    for weight, exact in zip(w.weights, expected, strict=False):
        assert abs(weight - to_complex(ctx, exact)) <= 4 * eps
    assert abs(w.weights[-1]) <= 4 * eps
    terms = gs.generate(spec, vec, 41)
    assert _roundtrip(w.weights[:-1], rs.roots, terms).matches


def test_constant_probe_small_on_random_solvable_specs():
    rng = random.Random(23)
    solved = 0
    while solved < 40:
        degree = rng.randint(2, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(degree)]
        seeds = [rng.randint(-3, 3) for _ in range(degree)]
        spec = gs.make_spec(coeffs)
        vec = gs.make_seeds(seeds)
        try:
            rs = gs.solve_roots(spec)
            w = gs.solve_weights(spec, vec, rs)
        except DegenerateSpectrumError:
            continue
        assert abs(w.weights[-1]) <= 1e-9
        solved += 1


@pytest.mark.parametrize(
    "alpha,beta,seeds",
    [
        (1, 1, [0, 1]),
        (1, 1, [2, 1]),
        (2, 1, [0, 1]),
        (1, -1, [0, 1]),  # complex roots, periodic sequence
    ],
)
def test_quadratic_closed_form_matches_exact_terms(alpha, beta, seeds):
    spec = gs.make_spec([beta, alpha])
    vec = gs.make_seeds(seeds)
    for k in range(31):
        value = gs.binet_quadratic_closed(alpha, beta, vec, k)
        exact = gs.term_at(spec, vec, k)
        assert abs(value - complex(exact)) <= 1e-9 * max(1, abs(exact))


def test_quadratic_closed_form_rejects_double_root():
    with pytest.raises(DegenerateSpectrumError):
        gs.binet_quadratic_closed(2, -1, gs.make_seeds([1, 1]), 5)


def test_cubic_closed_form_diverges_and_is_reported():
    # The direct degree-3 formula does not reproduce its own recurrence;
    # the checking wrapper must say so and name the first bad index.
    report = check_cubic_closed_form(1, 1, 1, [0, 1, 1], k_max=10)
    assert not report.matches
    assert report.first_mismatch == 0
    assert report.max_error > report.tolerance
    assert "k = 0" in report.note


def test_cubic_closed_form_unit_root_refused():
    # x^3 = 2x^2 + x - 2 factors as (x-1)(x+1)(x-2)
    with pytest.raises(UnitRootError):
        gs.binet_cubic_closed(2, 1, -2, gs.make_seeds([0, 1, 2]), 4)


def test_cubic_closed_form_repeated_root_refused():
    # (x - 1)^3
    with pytest.raises(DegenerateSpectrumError):
        gs.binet_cubic_closed(3, -3, 1, gs.make_seeds([0, 1, 2]), 4)


@pytest.mark.parametrize(
    "closed_form, seeds, message",
    [
        (
            lambda seeds, k: gs.binet_quadratic_closed(1, 1, seeds, k),
            [0, 1, 1],
            "spec has degree 2 but 3 seeds were given",
        ),
        (
            lambda seeds, k: gs.binet_cubic_closed(1, 1, 1, seeds, k),
            [0, 1],
            "spec has degree 3 but 2 seeds were given",
        ),
    ],
    ids=("quadratic", "cubic"),
)
def test_closed_forms_check_k_before_the_seed_count(closed_form, seeds, message):
    with pytest.raises(ValueError, match="k must be >= 0"):
        closed_form(gs.make_seeds(seeds), -1)
    with pytest.raises(SeedMismatchError, match=message):
        closed_form(gs.make_seeds(seeds), 0)


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda: gs.binet_quadratic_closed(1, 1, [0.5, 1], 5),
        lambda: gs.binet_cubic_closed(1, 1, 1, [0.5, 1, 1], 5),
    ],
    ids=("quadratic", "cubic"),
)
def test_closed_forms_reject_float_seeds(closed_form):
    with pytest.raises(SeedMismatchError, match="exact rational required"):
        closed_form()


UNIT_ROOT_DETAIL = (
    "1 is a characteristic root; the closed form divides by (root - 1) and is undefined here"
)


# (x - r)(x^2 + 1): 1 is not a root, but r is near it.  Where the
# precision resolves r from 1, the verbatim formula is evaluated (these
# are its values at k = 5); where the computed root is 1 to within 8 eps,
# (root - 1) is rounding alone and the form is refused.
@pytest.mark.parametrize(
    "r, precision, expected",
    [
        (Fraction(1000000001, 1000000000), "standard", "(-1.0000000410074317+0j)"),
        (
            Fraction(1000000001, 1000000000),
            "extended",
            "mpc(real='-1.000000004000000006000000001999969388167811', imag='0.0')",
        ),
        (1 + Fraction(1, 2**60), "standard", None),
        (
            1 + Fraction(1, 2**60),
            "extended",
            "mpc(real='-1.000000000000000003469451363583547809485377', imag='0.0')",
        ),
        (1 + Fraction(1, 2**200), "extended", None),
    ],
)
def test_cubic_closed_form_with_a_root_near_one(r, precision, expected):
    def value():
        return gs.binet_cubic_closed(r, -1, r, gs.make_seeds([0, 1, 2]), 5, precision)

    if expected is None:
        with pytest.raises(UnitRootError, match="precision cannot tell from 1"):
            value()
    else:
        assert repr(value()) == expected


def test_cubic_check_rejects_negative_k_max():
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        check_cubic_closed_form(1, 1, 1, [0, 1, 1], k_max=-1)


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda: gs.binet_quadratic_closed(1.5, 1, gs.make_seeds([0, 1]), 5),
        lambda: gs.binet_cubic_closed(0.5, 1, 1, gs.make_seeds([0, 1, 1]), 5),
        lambda: check_cubic_closed_form(0.5, 1, 1, [0, 1, 1]),
    ],
    ids=("quadratic", "cubic", "cubic_check"),
)
def test_closed_forms_reject_float_coefficients(closed_form):
    with pytest.raises(ValueError, match="exact rational required"):
        closed_form()


def test_extended_precision_probe_is_tiny():
    spec, seeds, rs = _setup([1, 1, 1], [0, 1, 1], precision=gs.EXTENDED)
    w = gs.solve_weights(spec, seeds, rs)
    assert float(abs(w.weights[-1])) < 1e-30
    for k in (0, 10, 37):
        assert gs.nearest_integer(gs.binet_eval(w, rs, k)) == gs.term_at(
            spec, seeds, k
        )


def test_weights_respect_scale_tolerance():
    # large seeds only shift the probe tolerance, not break it
    spec, seeds, rs = _setup([1, 1], [10**6, -(10**6)])
    w = gs.solve_weights(spec, seeds, rs)
    assert abs(w.weights[-1]) <= TOL_W * 10**6


@st.composite
def _distinct_root_specs(draw):
    # degree 1-8; a third of the draws put a root at 0 (a0 = 0) and a
    # third put one at 1 (a0 = 1 - a1 - ... - a_{n-1}, so that sum(a) = 1)
    n = draw(st.integers(1, 8))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coeffs = draw(st.lists(rational, min_size=n, max_size=n))
    root = draw(st.sampled_from((None, 0, 1)))
    if root == 0:
        coeffs[0] = Fraction(0)
    elif root == 1:
        coeffs[0] = 1 - sum(coeffs[1:])
    return coeffs, draw(st.lists(rational, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(case=_distinct_root_specs(), precision=st.sampled_from(gs.PRECISIONS))
def test_residue_weights_round_trip_on_random_specs(case, precision):
    # the roots must be distinct, 1e-3 apart relative to their scale
    try:
        spec, seeds, rs = _setup(*case, precision)
    except gs.RootConvergenceError:
        assume(False)
    roots = rs.roots
    gap = min((abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]), default=1)
    assume(gap > 1e-3 * (1 + max(abs(z) for z in roots)))
    w = gs.solve_weights(spec, seeds, rs)
    ctx, eps = arithmetic(precision)
    for k, exact in enumerate(gs.generate(spec, seeds, 3 * spec.degree + 1)):
        error = abs(gs.binet_eval(w, rs, k) - to_complex(ctx, exact))
        assert float(error) <= 1e5 * eps * max(1.0, float(abs(exact))), k


def test_nan_max_error_is_not_overwritten_by_later_errors():
    check = compare(enumerate([1.0, float("nan"), 5.0]), [1.0, 2.0, 3.0], lambda a, b: abs(a - b))
    assert (check.matches, check.first_mismatch) == (False, 1)
    assert math.isnan(check.max_error)


@st.composite
def _cubic_coeffs(draw):
    # |a_j| <= 6 and denominators <= 7; half the draws put 1 as a root
    # through a0 = 1 - a1 - a2, with a1 and a2 over one denominator d
    # so that a0's denominator stays <= 7 too
    def rational(d):
        return Fraction(draw(st.integers(-6 * d, 6 * d)), d)

    if draw(st.booleans()):
        d = draw(st.integers(1, 7))
        a1, a2 = rational(d), rational(d)
        a0 = 1 - a1 - a2
        assume(abs(a0) <= 6)
    else:
        a0, a1, a2 = (rational(draw(st.integers(1, 7))) for _ in range(3))
    return [a0, a1, a2]


@settings(max_examples=200, deadline=None)
@given(coeffs=_cubic_coeffs(), precision=st.sampled_from(gs.PRECISIONS))
def test_exact_unit_root_rule_agrees_with_the_roots(coeffs, precision):
    # The cubic closed form refuses 1 as a root by the exact test Σa == 1;
    # a float test on the roots says the same on these specs: when
    # Σa != 1, p(1) = 1 - Σa is a nonzero rational over a denominator of
    # at most lcm(5, 6, 7) = 210, and |p(1)| is the product of the |1 - r|,
    # each at most 8 (Cauchy: |r| <= 1 + 6), so every root stays at least
    # 1/(210 * 64) from 1, far beyond the float test's 8 * TOL_SEP.
    g, b, a = coeffs
    rootset = gs.cubic_roots(a, b, g, precision)
    try:
        check_separation(rootset)
    except DegenerateSpectrumError:
        assume(False)
    scale = TOL_SEP * (1 + max(abs(z) for z in rootset.roots))
    near_one = any(abs(z - 1) < scale for z in rootset.roots)
    assert near_one == (sum(coeffs) == 1)
    # and the closed form refuses exactly these specs, with the unit-root detail
    try:
        gs.binet_cubic_closed(a, b, g, gs.make_seeds([0, 1, 2]), 0, precision)
    except UnitRootError as exc:
        refused = str(exc) == UNIT_ROOT_DETAIL
    else:
        refused = False
    assert refused == near_one


# The single-k closed forms sum their (weight, root) terms at z**k, as
# binet_eval does; these values pin them on fibonacci (quadratic) and
# tribonacci (cubic).
CLOSED_FORM_REPRS = {
    ("standard", 0): (
        "0j",
        "(-1.5436890126920766+0j)",
    ),
    ("standard", 7): (
        "(13.000000000000002+0j)",
        "(-23.854359393454352-8.049116928532385e-16j)",
    ),
    ("standard", 30): (
        "(832039.9999999999+0j)",
        "(-29249424.999893356-9.791094002052766e-10j)",
    ),
    ("extended", 0): (
        "mpc(real='0.0', imag='0.0')",
        "mpc(real='-1.543689012692076361570855971801747986525179', "
        "imag='-5.739718509874450722503596373155496473723953e-42')",
    ),
    ("extended", 7): (
        "mpc(real='12.99999999999999999999999999999999999999963', imag='0.0')",
        "mpc(real='-23.85435939345436720869653512585418758228046', "
        "imag='-3.372084624551239799470862869228854178312822e-41')",
    ),
    ("extended", 30): (
        "mpc(real='832039.9999999999999999999999999999999999157', imag='0.0')",
        "mpc(real='-29249424.99989344014706839519999745100413541', "
        "imag='-4.214123599735341386536235844812235550177764e-35')",
    ),
}


@pytest.mark.parametrize("precision, k", CLOSED_FORM_REPRS)
def test_single_k_closed_forms_keep_their_values(precision, k):
    quadratic = gs.binet_quadratic_closed(1, 1, gs.make_seeds([0, 1]), k, precision)
    cubic = gs.binet_cubic_closed(1, 1, 1, gs.make_seeds([0, 1, 1]), k, precision)
    assert (repr(quadratic), repr(cubic)) == CLOSED_FORM_REPRS[precision, k]


@pytest.mark.parametrize("precision", gs.PRECISIONS)
@pytest.mark.parametrize(
    "closed_form",
    [
        lambda precision: gs.binet_quadratic_closed(1, 1, gs.make_seeds([0, 1]), 2000, precision),
        lambda precision: gs.binet_cubic_closed(1, 1, 1, gs.make_seeds([0, 1, 1]), 2000, precision),
    ],
    ids=("quadratic", "cubic"),
)
def test_single_k_closed_forms_refuse_powers_past_the_float_range(closed_form, precision):
    # phi^2000 is about 1e418 for fibonacci and 1e529 for tribonacci:
    # standard precision refuses the power as binet_eval does, and the
    # extended context has no such range
    if precision == gs.EXTENDED:
        assert abs(closed_form(precision)) > 10**400
        return
    with pytest.raises(PremiseError) as info:
        closed_form(precision)
    assert str(info.value) == "value outside the float range of standard precision"


def _separated(roots, precision):
    """check_separation's decision, and the pairwise test in the
    precision's own arithmetic alone, on a root set of these roots."""
    rootset = gs.RootSet(tuple(roots), (0.0,) * len(roots), 0, True, precision)
    scale = TOL_SEP * (1 + max(abs(z) for z in roots))
    reference = not any(
        abs(roots[i] - roots[j]) < scale for i in range(len(roots)) for j in range(i)
    )
    try:
        check_separation(rootset)
    except DegenerateSpectrumError:
        return False, reference
    return True, reference


@pytest.mark.parametrize("precision, tiny", [(gs.STANDARD, 2.0**-20), (gs.EXTENDED, 2.0**-100)])
@pytest.mark.parametrize("direction", [(1, 0, 1), (0, 1, 1), (3, 4, 5), (-1, 0, 1)])
@pytest.mark.parametrize("side", [-1, 1])
def test_separation_decides_pairs_either_side_of_the_threshold(precision, tiny, direction, side):
    # roots 10, 1 and 1 + delta with |delta| = TOL_SEP * 11 * (1 + side * tiny):
    # in extended the two sides of the threshold round to the same floats,
    # so the float pre-test must leave the pair to the 40-digit test
    ctx = arithmetic(precision).ctx
    re, im, norm = direction
    scale = TOL_SEP * (1 + ctx.mpf(10))
    delta = scale * (1 + side * ctx.mpf(tiny)) * ctx.mpc(re, im) / norm
    roots = [ctx.mpc(10), ctx.mpc(1), ctx.mpc(1) + delta]
    assert _separated(roots, precision) == (side > 0, side > 0)


@pytest.mark.parametrize(
    "parts",
    [
        # pairs 1e-9 apart relative to roots past the float range and near
        # it, a pair one of which complex() takes to inf, and a root set
        # whose float differences overflow
        [("1e400", "0"), ("1.000000001e400", "0")],
        [("1e300", "1e300"), ("1e300", "1.000000001e300")],
        [("1.797693138e308", "0"), ("1.7976931348623157e308", "0")],
        [("1e308", "0"), ("1", "0"), ("-1e308", "0")],
    ],
)
def test_separation_of_roots_past_the_float_range(parts):
    ctx = arithmetic(gs.EXTENDED).ctx
    roots = [ctx.mpc(ctx.mpf(re), ctx.mpf(im)) for re, im in parts]
    assert _separated(roots, gs.EXTENDED) == (len(roots) == 3, len(roots) == 3)


def test_weights_and_evaluation_refuse_a_root_set_of_another_degree():
    fib, seeds = gs.make_spec([1, 1]), gs.make_seeds([0, 1])
    tribonacci_roots = gs.solve_roots(gs.make_spec([1, 1, 1]))
    with pytest.raises(SeedMismatchError, match="root set has degree 3 but the recurrence has degree 2"):
        gs.solve_weights(fib, seeds, tribonacci_roots)
    weights = gs.solve_weights(fib, seeds, gs.solve_roots(fib))
    with pytest.raises(SeedMismatchError, match="weights were solved for degree 2, root set has degree 3"):
        gs.binet_eval(weights, tribonacci_roots, 5)
