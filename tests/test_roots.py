"""Characteristic roots: radical closed forms, iteration, dominance."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

import goldenseq as gs
import goldenseq.roots as roots_module
from goldenseq.errors import PremiseError
from goldenseq.roots import SLASH_FIRST, BACKSLASH_FIRST, tol_root

GOLDEN = 1.618033988749895
SILVER = 2.414213562373095
TRIBONACCI_CONSTANT = 1.8392867552141611


def test_golden_ratio_and_conjugate_ordered():
    rs = gs.quadratic_roots(1, 1)
    assert rs.roots[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert rs.roots[1] == pytest.approx(-0.6180339887498949, abs=1e-12)
    assert rs.dominant_index == 0
    assert rs.dominance_unique


def test_silver_ratio():
    rs = gs.quadratic_roots(2, 1)
    assert rs.roots[0] == pytest.approx(SILVER, abs=1e-12)


def test_quadratic_complex_pair_is_tied():
    rs = gs.quadratic_roots(0, -1)  # x^2 = -1
    assert rs.roots[0] == pytest.approx(1j, abs=1e-12)
    assert rs.roots[1] == pytest.approx(-1j, abs=1e-12)
    assert not rs.dominance_unique


def test_quadratic_rejects_inexact_inputs():
    with pytest.raises(ValueError):
        gs.quadratic_roots(1.5, 1)


def test_tribonacci_root_labels():
    rs = gs.cubic_roots(1, 1, 1)
    phi, varphi, psi = rs.roots
    assert phi == pytest.approx(TRIBONACCI_CONSTANT, abs=1e-12)
    assert phi.imag == 0
    # the complex pair: negative imaginary part first, then its conjugate
    assert varphi == pytest.approx(-0.4196433776070805 - 0.6062907292071992j, abs=1e-10)
    assert psi == pytest.approx(varphi.conjugate(), abs=1e-12)
    assert rs.dominant_index == 0


def test_cubic_unit_and_omega_roots():
    rs = gs.cubic_roots(0, 0, 1)  # x^3 = 1
    omega = complex(-0.5, 3**0.5 / 2)
    assert rs.roots[0] == pytest.approx(1, abs=1e-12)
    assert rs.roots[1] == pytest.approx(omega.conjugate(), abs=1e-12)
    assert rs.roots[2] == pytest.approx(omega, abs=1e-12)
    assert not rs.dominance_unique  # all three sit on the unit circle


def test_cubic_triple_root():
    rs = gs.cubic_roots(3, -3, 1)  # (x - 1)^3
    for z in rs.roots:
        assert z == pytest.approx(1, abs=1e-7)  # triple roots lose precision cubically
    assert max(rs.residuals) <= tol_root(rs)


def test_cubic_negative_leading_combination():
    # x^3 = -1 exercises the branch where the principal summand vanishes
    rs = gs.cubic_roots(0, 0, -1)
    expected = sorted([complex(-1, 0), cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 3)], key=lambda z: (z.real, z.imag))
    got = sorted(rs.roots, key=lambda z: (z.real, z.imag))
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, abs=1e-10)


def test_cubic_residuals_small_on_random_inputs():
    rng = random.Random(7)
    for _ in range(100):
        a, b, g = (rng.randint(-8, 8) for _ in range(3))
        rs = gs.cubic_roots(a, b, g)
        assert max(rs.residuals) <= tol_root(rs)


def test_pseudo_sign_self_combination_vanishes():
    for orientation in (SLASH_FIRST, BACKSLASH_FIRST):
        value = gs.pseudo_sign_combine(3.5, 3.5, 3.5, orientation)
        assert abs(value) < 1e-12


def test_pseudo_sign_symmetric_example():
    # with equal second and third operands both orientations give x - s
    assert gs.pseudo_sign_combine(0, 1, 1, SLASH_FIRST) == pytest.approx(-1, abs=1e-12)
    assert gs.pseudo_sign_combine(0, 1, 1, BACKSLASH_FIRST) == pytest.approx(-1, abs=1e-12)


def test_pseudo_sign_orientations_differ():
    omega = complex(-0.5, 3**0.5 / 2)
    assert gs.pseudo_sign_combine(0, 1, 0, SLASH_FIRST) == pytest.approx(omega, abs=1e-12)
    assert gs.pseudo_sign_combine(0, 1, 0, BACKSLASH_FIRST) == pytest.approx(
        omega.conjugate(), abs=1e-12
    )


def test_pseudo_sign_rejects_unknown_orientation():
    with pytest.raises(ValueError):
        gs.pseudo_sign_combine(0, 1, 1, "diagonal")


def test_general_matches_quadratic_closed_form():
    spec = gs.make_spec([1, 1])
    iterated = gs.general_roots(spec)
    direct = gs.quadratic_roots(1, 1)
    for a, b in zip(iterated.roots, direct.roots):
        assert abs(a - b) <= 1e-12


def test_quartic_dominant_root():
    rs = gs.solve_roots(gs.make_spec([1, 1, 1, 1]))
    assert rs.roots[0].real == pytest.approx(1.9275619754829253, abs=1e-12)
    assert rs.roots[0].imag == 0
    assert rs.dominance_unique
    # complex conjugate pair comes out mirrored
    assert rs.roots[1] == pytest.approx(rs.roots[2].conjugate(), abs=1e-12)


def test_general_roots_sorted_by_falling_modulus():
    rs = gs.solve_roots(gs.make_spec([3, 1, 0, 2, 1]))
    moduli = [abs(z) for z in rs.roots]
    assert moduli == sorted(moduli, reverse=True)
    assert max(rs.residuals) <= tol_root(rs)


def test_degree_one_root_is_the_coefficient():
    rs = gs.solve_roots(gs.make_spec([5]))
    assert rs.roots == (5 + 0j,)
    assert rs.dominance_unique


def test_repeated_root_accepted_by_general_solver():
    # x^4: the quadruple zero root is split off exactly, not iterated
    rs = gs.general_roots(gs.make_spec([0, 0, 0, 0]))
    assert rs.roots == (0, 0, 0, 0)


def test_symmetric_relations_on_random_specs():
    rng = random.Random(11)
    for _ in range(60):
        degree = rng.randint(2, 6)
        coeffs = [rng.randint(-10, 10) for _ in range(degree)]
        spec = gs.make_spec(coeffs)
        rs = gs.solve_roots(spec)
        report = gs.verify_symmetric_relations(rs, spec)
        assert report.matches, (coeffs, report.first_mismatch, report.max_error)
        assert report.max_error <= 1e-8


def test_extended_precision_golden_ratio():
    rs = gs.quadratic_roots(1, 1, precision=gs.EXTENDED)
    with mpmath.workdps(40):
        reference = (1 + mpmath.sqrt(5)) / 2
        assert abs(rs.roots[0] - reference) < mpmath.mpf("1e-38")
    assert rs.precision == gs.EXTENDED


def test_extended_precision_quartic():
    rs = gs.solve_roots(gs.make_spec([1, 1, 1, 1]), precision=gs.EXTENDED)
    with mpmath.workdps(40):
        assert abs(rs.roots[0] - mpmath.mpf("1.9275619754829253043")) < 1e-18


def test_dominant_root_helper():
    root, unique = gs.dominant_root(gs.quadratic_roots(1, 1))
    assert root == pytest.approx(GOLDEN, abs=1e-12)
    assert unique


def test_cubic_labels_agree_across_precisions():
    # x^3 = x - 1 takes the rationalised branch (A < 0, A^2 >= 4B^3)
    spec = gs.make_spec([-1, 1, 0])
    standard = gs.solve_roots(spec)
    extended = gs.solve_roots(spec, gs.EXTENDED)
    for a, b in zip(standard.roots, extended.roots):
        assert abs(a - complex(b)) < 1e-12
    assert standard.dominant_index == extended.dominant_index


@pytest.mark.parametrize("precision", [gs.STANDARD, gs.EXTENDED])
def test_closed_form_real_root_carries_no_dust(precision):
    rs = gs.solve_roots(gs.make_spec([-1, 1, 0]), precision)
    real = [z for z in rs.roots if abs(z.imag) < 1e-3]
    assert len(real) == 1
    assert real[0].imag == 0
    assert real[0].real == pytest.approx(-1.324717957244746, abs=1e-12)


def test_extended_iteration_matches_reference_roots():
    ctx = mpmath.MPContext()  # private, so the reference leaves mpmath.mp alone
    ctx.dps = 60
    rng = random.Random(2016)
    for trial in range(16):
        degree = rng.randint(4, 12)
        if trial % 2:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
        else:
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
        rs = gs.solve_roots(gs.make_spec(coeffs), gs.EXTENDED)
        assert max(rs.residuals) <= tol_root(rs), coeffs
        monic = [ctx.mpf(1)] + [-ctx.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        reference = ctx.polyroots(monic, maxsteps=200, extraprec=200)
        for i, r in enumerate(reference):
            if any(abs(r - w) <= 1e-3 for j, w in enumerate(reference) if j != i):
                continue
            got = min(rs.roots, key=lambda z: abs(ctx.mpc(z.real, z.imag) - r))
            err = abs(ctx.mpc(got.real, got.imag) - r)
            assert err <= 1e-37 * max(abs(r), 1), (coeffs, i, err)


def test_extended_separates_near_real_complex_pair():
    # (x^2 - 2x + 1 + 1e-24)(x^2 - 4): the pair 1 +- 1e-12 i is far
    # below what standard precision can tell apart from a double root;
    # its 1e-12 separation costs about 12 of the 40 digits
    delta = Fraction(1, 10**24)
    rs = gs.solve_roots(gs.make_spec([4 + 4 * delta, -8, 3 - delta, 2]), gs.EXTENDED)
    assert max(rs.residuals) <= tol_root(rs)
    pair = sorted((z for z in rs.roots if abs(z - 1) < 1e-6), key=lambda z: z.imag)
    assert len(pair) == 2
    for z, sign in zip(pair, (-1, 1)):
        assert abs(z.real - 1) < 1e-24
        assert abs(z.imag - sign * mpmath.mpf("1e-12")) < 1e-24


@pytest.mark.parametrize("coeffs", [
    [Fraction(1, 10**400), 0, 0, 1],  # a0 rounds to 0 in standard precision
    [1] * 16,
])
def test_extended_iteration_converges_on_hard_starts(coeffs):
    rs = gs.solve_roots(gs.make_spec(coeffs), gs.EXTENDED)
    assert rs.degree == len(coeffs)
    assert max(rs.residuals) <= tol_root(rs)
    assert rs.dominance_unique


def test_extended_ignores_overflowed_standard_roots():
    # standard precision overflows to nan on a 1e80 coefficient; the
    # extended solve must not start from (and return) those nans
    try:
        rs = gs.solve_roots(gs.make_spec([10**80, 0, 0, 1]), gs.EXTENDED)
    except gs.RootConvergenceError:
        return
    assert all(mpmath.isfinite(complex(z)) for z in rs.roots)


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_overflowed_roots_are_refused(precision):
    # standard iteration overflows to nan roots with nan residuals on a
    # 1e80 coefficient; a nan residual must not pass the tol_root gate
    spec = gs.make_spec([10**80, 0, 0, 1])
    with pytest.raises(gs.RootConvergenceError):
        gs.general_roots(spec, precision)
    with pytest.raises(gs.RootConvergenceError):
        gs.solve_roots(spec, precision)


def test_gate_past_the_float_range_is_infinite():
    rootset = gs.general_roots(gs.make_spec([0, 0, 0, 10**100]))
    assert rootset.residuals == (0.0,) * 4
    assert tol_root(rootset) == math.inf


@pytest.mark.parametrize("precision", gs.PRECISIONS)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_residual_that_is_not_finite_fails_an_infinite_gate(monkeypatch, precision, bad):
    iterate = roots_module._iterate

    def spoiled(coeffs, precision):
        roots, residuals, sweeps = iterate(coeffs, precision)
        return roots, [bad, *residuals[1:]], sweeps

    monkeypatch.setattr(roots_module, "_iterate", spoiled)
    monkeypatch.setattr(roots_module, "tol_root", lambda rootset: math.inf)
    with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
        gs.general_roots(gs.make_spec([1, 1, 1, 1]), precision)
    assert sum(not math.isfinite(r) for r in info.value.residuals) == 1


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_residual_lifted_past_the_float_range_fails_the_gate(monkeypatch, precision):
    # p = x^3 q on x^4 = 10^200 x^3: a nonzero |q| at the root 10^200 makes
    # |p| = 10^600 |q|, which is inf as a float, so the gate refuses it
    iterate = roots_module._iterate

    def spoiled(coeffs, precision):
        roots, residuals, sweeps = iterate(coeffs, precision)
        return roots, [1.0], sweeps

    monkeypatch.setattr(roots_module, "_iterate", spoiled)
    with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
        gs.general_roots(gs.make_spec([0, 0, 0, 10**200]), precision)
    assert info.value.residuals == (math.inf, 0.0, 0.0, 0.0)


def test_refusal_names_an_iterate_that_overflowed():
    # x^4 = 10^80 x^3 + x^2 + x + 1: the first standard sweep overflows to
    # NaN, which settles because every comparison with NaN is False; the
    # gate refuses it after that sweep and says why
    with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
        gs.general_roots(gs.make_spec([1, 1, 1, 10**80]))
    assert str(info.value) == (
        "root residuals exceed tolerance 1.000e-10; an iterate is not finite (the iteration overflowed)"
    )
    assert info.value.iterations == 1


def test_standard_cubic_discriminant_past_the_float_range_is_a_premise_error():
    # x^3 = 10^120 x + 1: the exact discriminant A^2 - 4B^3 is about -1.1e362
    with pytest.raises(PremiseError) as info:
        gs.solve_roots(gs.make_spec([1, 10**120, 0]))
    assert str(info.value) == "value outside the float range of standard precision"


def test_extended_solve_without_a_standard_seed_is_refused():
    # x^4 = 10^400 x^3 + x^2 + x + 1: standard precision refuses 10^400, so
    # the extended iteration starts from its own circle of radius 1 + 10^400,
    # and no sweep settles within MAX_ITER
    with pytest.raises(gs.RootConvergenceError) as info:
        gs.solve_roots(gs.make_spec([1, 1, 1, 10**400]), gs.EXTENDED)
    assert str(info.value) == "root iteration did not converge within 200 sweeps"


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_refusal_of_a_finite_iterate_blames_only_the_tolerance(monkeypatch, precision):
    # the root 10^200 is finite; only its lifted residual is past the float range
    iterate = roots_module._iterate
    monkeypatch.setattr(
        roots_module, "_iterate", lambda coeffs, p: (iterate(coeffs, p)[0], [1.0], 1)
    )
    with pytest.raises(gs.RootConvergenceError) as info:
        gs.general_roots(gs.make_spec([0, 0, 0, 10**200]), precision)
    assert str(info.value) == "root residuals exceed tolerance inf"


@pytest.mark.parametrize("solve, coeffs", [(gs.quadratic_roots, (1, 10**400)), (gs.cubic_roots, (0, 0, 10**600))])
def test_radical_roots_past_the_gate_are_refused(solve, coeffs):
    # x^2 = x + 10^400 and x^3 = 10^600: |p| at the extended radical roots
    # is past the float range, inf, which fails even an infinite gate
    with pytest.raises(gs.RootConvergenceError) as info:
        solve(*coeffs, precision="extended")
    assert str(info.value) == "root residuals exceed tolerance inf"
    assert info.value.residuals == (math.inf,) * len(coeffs)
    assert info.value.iterations == 0


@pytest.mark.parametrize("precision, sweeps", [(gs.STANDARD, 5), (gs.EXTENDED, 1)])
def test_residual_gate_refusal_reports_the_sweeps_taken(monkeypatch, precision, sweeps):
    # with a zero gate the converged roots of x^4 = x^3 + x^2 + x + 1 are
    # refused after the sweeps the iteration really took, not MAX_ITER
    monkeypatch.setattr(roots_module, "tol_root", lambda rootset: 0.0)
    with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
        gs.general_roots(gs.make_spec([1, 1, 1, 1]), precision)
    assert info.value.iterations == sweeps < roots_module.MAX_ITER
    assert len(info.value.best_roots) == 4


def test_symmetric_relations_name_the_first_wrong_coefficient():
    spec = gs.make_spec([1, 1])
    rootset = gs.solve_roots(spec)
    report = gs.verify_symmetric_relations(rootset, spec)
    assert (report.matches, report.first_mismatch) == (True, None)
    assert report.note == "elementary symmetric polynomials vs. coefficients"
    wrong = rootset.replace(roots=(rootset.roots[0] + 1e-6, rootset.roots[1]))
    report = gs.verify_symmetric_relations(wrong, spec)
    assert (report.matches, report.first_mismatch) == (False, 1)
    assert report.max_error == pytest.approx(1e-6, rel=1e-6)


def test_symmetric_relations_refuse_a_root_set_of_another_degree():
    rootset = gs.solve_roots(gs.make_spec([1, 1, 1]))
    with pytest.raises(ValueError, match="rootset and spec have different degrees"):
        gs.verify_symmetric_relations(rootset, gs.make_spec([1, 1]))


# One spec with the exact root 0 (a0 = 0) and one with the exact double
# root 1, (x - 1)^2 (x + 2) (x - 3); the values pin the iteration's
# zero tests and noise-floor acceptance.  The extended double root stops
# on the noise floor, so its last digits follow the rounding of every
# step, the fixed-point repulsion's included.
PINNED_ROOTS = {
    ((0, 1, 1, 1), "standard"): "((1.8392867552141612+0j), (-0.4196433776070806+0.6062907292071994j), "
    "(-0.41964337760708054-0.6062907292071994j), 0j)",
    ((0, 1, 1, 1), "extended"): "(mpc(real='1.839286755214161132551852564653286600424173', imag='0.0'), "
    "mpc(real='-0.4196433776070805662759262823266433002120867', imag='0.6062907292071993692593421970280230029495676'), "
    "mpc(real='-0.4196433776070805662759262823266433002120867', imag='-0.6062907292071993692593421970280230029495676'), "
    "mpc(real='0.0', imag='0.0'))",
    ((6, -11, 3, 3), "standard"): "((3+0j), (-2+0j), (1.0000000296444607+1.4074504488456444e-08j), "
    "(0.9999999851165506-7.0105931142095965e-09j))",
    ((6, -11, 3, 3), "extended"): "(mpc(real='3.0', imag='0.0'), mpc(real='-2.0', imag='0.0'), "
    "mpc(real='1.000000000000000000108142738324483915368648', imag='5.107385003961228695648724408433966572402325e-20'), "
    "mpc(real='0.9999999999999999999459286308377572317248133', imag='-2.553692501980578948884304046528434864546252e-20'))",
}


@pytest.mark.parametrize("coeffs, precision", PINNED_ROOTS)
def test_iteration_roots_are_pinned(coeffs, precision):
    rootset = gs.general_roots(gs.make_spec(coeffs), precision)
    assert repr(rootset.roots) == PINNED_ROOTS[coeffs, precision]


@pytest.mark.parametrize("precision", gs.PRECISIONS)
@pytest.mark.parametrize("zeros", range(1, 7))
def test_leading_zero_coefficients_give_exact_zero_roots(precision, zeros):
    # p = x^m q: m exact zeros with residual 0, and q's roots as q alone
    # gives them; m = 6 is the all-zero spec
    tail = [Fraction(-3, 2), 2, 3, -1, 1, 1][zeros:]
    rootset = gs.general_roots(gs.make_spec([0] * zeros + tail), precision)
    assert rootset.degree == 6
    assert rootset.roots[len(tail):] == (0,) * zeros
    assert rootset.residuals[len(tail):] == (0.0,) * zeros
    assert all(z != 0 for z in rootset.roots[: len(tail)])
    if tail:
        assert rootset.roots[: len(tail)] == gs.general_roots(gs.make_spec(tail), precision).roots
    assert rootset.roots == gs.solve_roots(gs.make_spec([0] * zeros + tail), precision).roots


@pytest.mark.parametrize("coeffs", [
    [1, 1, 1, 1],
    [2, -1, 3, 1, -2],
    [-1, 2, 0, -3, 1, 1],
    [1, 0, 0, 0, 0, 0, 0, 1],
    [1] * 16,
])
def test_well_separated_extended_roots_settle_in_one_sweep(monkeypatch, coeffs):
    # the standard roots, turned by 1e-15 rad, are one Aberth sweep from
    # 40 digits; a zero gate reports the sweeps the iteration took
    monkeypatch.setattr(roots_module, "tol_root", lambda rootset: 0.0)
    with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
        gs.general_roots(gs.make_spec(coeffs), gs.EXTENDED)
    assert info.value.iterations == 1


@pytest.mark.parametrize("precision", gs.PRECISIONS)
@pytest.mark.parametrize("coeffs", [
    [1, 1, 1, 1],
    [0, -1, -1, 0, -1],  # x (x + 1)^2 (x^2 - x + 1): the double root stops on the noise floor
    [1, 0, 0, 0, 0, 0, 0, 1],
])
def test_settle_test_is_the_only_stop_rule(monkeypatch, precision, coeffs):
    # every sweep asks _settled once, and the iteration stops on the
    # first sweep it accepts; the extended solve's standard seed is a
    # call of its own
    iterate, settled = roots_module._iterate, roots_module._settled
    running, finished = [], []

    def spy_iterate(coeffs, precision):
        running.append([])
        roots, residuals, sweeps = iterate(coeffs, precision)
        verdicts = running.pop()
        assert len(verdicts) == sweeps
        assert verdicts[:-1] == [False] * (sweeps - 1) and verdicts[-1]
        finished.append(precision)
        return roots, residuals, sweeps

    def spy_settled(*args):
        values = settled(*args)
        running[-1].append(values is not None)
        return values

    monkeypatch.setattr(roots_module, "_iterate", spy_iterate)
    monkeypatch.setattr(roots_module, "_settled", spy_settled)
    gs.general_roots(gs.make_spec(coeffs), precision)
    assert finished == ([gs.STANDARD] if precision == gs.STANDARD else [gs.STANDARD, gs.EXTENDED])


def test_tiny_root_settles_on_its_inclusion_radius(monkeypatch):
    # (x - s)(x^4 - x - 1), s = 1e-20: near s the noise floor of p is
    # about 8 eps * 2e-20, far below 8 eps * (1 + |s|), so the radius rule
    # settles the root one sweep before the floor rule would
    s = Fraction(1, 10**20)
    spec = gs.make_spec([-s, 1 - s, 1, 0, s])
    monkeypatch.setattr(roots_module, "tol_root", lambda rootset: 0.0)
    sweeps = []
    for radius_tol in (roots_module.RADIUS_TOL, 0):
        monkeypatch.setattr(roots_module, "RADIUS_TOL", radius_tol)
        with pytest.raises(gs.RootConvergenceError, match="exceed tolerance") as info:
            gs.general_roots(spec)
        # within RADIUS_TOL * eps of s, as the radius rule promises
        assert abs(info.value.best_roots[-1] - 1e-20) <= 1.8e-15
        sweeps.append(info.value.iterations)
    assert sweeps == [6, 7]


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 1, 1, 1)])
def test_conjugate_extended_roots_report_equal_residuals(coeffs):
    # the residual is |p| evaluated exactly at the root, and p is real
    rootset = gs.solve_roots(gs.make_spec(coeffs), gs.EXTENDED)
    roots, residuals = rootset.roots, rootset.residuals
    pairs = [(i, j) for i in range(len(roots)) for j in range(i + 1, len(roots))
             if roots[i].imag != 0 and roots[j] == roots[i].conjugate()]
    assert len(pairs) == 1
    for i, j in pairs:
        assert residuals[i] == residuals[j] > 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: Cardano's formula cancels on the small root of a wide-range cubic "
    "(10^30: -1.23e-27 with residual 1.23e3; 10^120: 4.6e18), and tol_root passes both"))
@pytest.mark.parametrize("power", [30, 120])
def test_extended_cubic_finds_the_small_root_of_a_wide_range_spec(power):
    # x^3 = 10^power x + 1 has a root at about -10^-power
    rootset = gs.solve_roots(gs.make_spec([1, 10**power, 0]), gs.EXTENDED)
    small = min(rootset.roots, key=abs)
    assert abs(small * 10**power + 1) < 1e-20
