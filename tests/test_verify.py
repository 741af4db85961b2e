"""The cross-check battery: statuses, skips, failure detection, and the
inputs it computes once."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq.analysis as analysis_module
import goldenseq.binet as binet_module
import goldenseq.trapezoid as trapezoid_module
import goldenseq.verify as verify_module
from goldenseq import (
    BUILTIN_PRESETS,
    PRECISIONS,
    DegenerateSpectrumError,
    RootConvergenceError,
    binet_eval,
    has_failures,
    make_seeds,
    make_spec,
    ratio_convergence,
    solve_roots,
    solve_weights,
    verify_all,
)
from goldenseq.cli import main
from goldenseq.errors import PremiseError

ROOT_ROWS = {
    "symmetric_relations",
    "golden_identity_defining",
    "golden_identity_inverse",
    "binet_constant_weight",
    "recurrence_binet_roundtrip",
    "ratio_convergence",
    "cubic_ratio_root_recovery",
}


def by_name(checks):
    return {c.check: c for c in checks}


def test_fibonacci_all_checks_pass():
    checks = verify_all(make_spec((1, 1)), make_seeds((0, 1)))
    assert not has_failures(checks)
    assert all(c.status == "pass" for c in checks)
    names = [c.check for c in checks]
    assert names == [
        "symmetric_relations",
        "golden_identity_defining",
        "golden_identity_inverse",
        "binet_constant_weight",
        "recurrence_binet_roundtrip",
        "binet_quadratic_closed_matches",
        "genfunc_series_roundtrip",
        "trapezoid_closed_form",
        "trapezoid_row_recurrence",
        "trapezoid_row_sums",
        "trapezoid_diagonal_sums",
        "ratio_convergence",
    ]


def test_tribonacci_flags_only_the_cubic_formula():
    checks = verify_all(make_spec((1, 1, 1)), make_seeds((0, 1, 1)))
    assert has_failures(checks)
    failing = [c for c in checks if c.status == "fail"]
    assert len(failing) == 1
    assert failing[0].check == "binet_cubic_closed_matches"
    assert "first divergence at k = 0" in failing[0].detail
    # the cubic recovery check still passes: the ratio limit really does
    # determine the other two roots
    assert by_name(checks)["cubic_ratio_root_recovery"].status == "pass"


def test_degenerate_spec_skips_instead_of_failing():
    checks = verify_all(make_spec((0, 1)), make_seeds((1, 1)))
    assert not has_failures(checks)
    named = by_name(checks)
    assert named["golden_identity_inverse"].status == "skipped"
    assert "constant coefficient is 0" in named["golden_identity_inverse"].detail
    # the roots 1 and 0 are distinct, so the residue weights exist
    assert named["binet_constant_weight"].status == "pass"
    assert named["recurrence_binet_roundtrip"].status == "pass"
    # everything that still applies passes
    assert named["ratio_convergence"].status == "pass"
    assert named["genfunc_series_roundtrip"].status == "pass"


def test_quartic_skips_per_entry_closed_form():
    checks = verify_all(make_spec((1, 1, 1, 1)), make_seeds((0, 1, 1, 2)))
    assert not has_failures(checks)
    named = by_name(checks)
    assert named["trapezoid_closed_form"].status == "skipped"
    assert "degrees 2 and 3" in named["trapezoid_closed_form"].detail
    assert "binet_cubic_closed_matches" not in named
    assert "cubic_ratio_root_recovery" not in named
    assert named["recurrence_binet_roundtrip"].status == "pass"


def test_tied_dominance_marks_convergence_skipped():
    checks = verify_all(make_spec((-1, 0)), make_seeds((1, 1)))
    named = by_name(checks)
    assert named["ratio_convergence"].status == "skipped"
    assert "tie" in named["ratio_convergence"].detail
    assert not has_failures(checks)


def test_tied_convergence_row_keeps_its_residual():
    # x^2 = -1: the ratios alternate +-1 against the dominant root +-i, so
    # the skipped row still reports how far off they are, |1 - i|
    row = by_name(verify_all(make_spec((-1, 0)), make_seeds((1, 1))))["ratio_convergence"]
    assert row.status == "skipped"
    assert "%.3e" % row.residual == "1.414e+00"


def test_zero_constant_coefficient_skips_the_inverse_identity_with_its_reason():
    row = by_name(verify_all(make_spec((0, 1)), make_seeds((1, 1))))["golden_identity_inverse"]
    assert (row.status, row.residual) == ("skipped", None)
    assert row.detail == "constant coefficient is 0, so 1/r = (r - a_1)/a_0 divides by zero"


def test_a_plain_value_error_inside_a_row_propagates(monkeypatch):
    # only a PremiseError (or unsolved roots) means an absent premise; any
    # other ValueError from a row is a defect and must not read "skipped"
    def broken(spec, rootset):
        raise ValueError("boom")

    monkeypatch.setattr(verify_module, "golden_inverse_check", broken)
    with pytest.raises(ValueError, match="boom"):
        verify_all(make_spec((1, 1)), make_seeds((0, 1)))


def test_inputs_are_echoed_on_every_check():
    checks = verify_all(make_spec((1, 2)), make_seeds((0, 1)), k_max=12, rows=4)
    for c in checks:
        assert c.inputs == {
            "coeffs": ["1", "2"],
            "seeds": ["0", "1"],
            "k_max": 12,
            "rows": 4,
            "precision": "standard",
        }


def test_parameter_validation():
    spec, seeds = make_spec((1, 1)), make_seeds((0, 1))
    with pytest.raises(ValueError):
        verify_all(spec, seeds, k_max=0)
    with pytest.raises(ValueError):
        verify_all(spec, seeds, rows=1)
    with pytest.raises(ValueError):
        verify_all(spec, make_seeds((0, 1, 1)))


def test_has_failures_helper():
    passing = verify_all(make_spec((1, 1)), make_seeds((2, 1)))
    assert not has_failures(passing)
    failing = verify_all(make_spec((1, 1, 1)), make_seeds((0, 1, 1)))
    assert has_failures(failing)


# Each case raises one exact value by 1 where verify_all reads it; the
# check that compares it against its oracle must fail, name the position,
# and leave every other check passing.
@pytest.mark.parametrize(
    "module, name, wrap, check, residual, detail",
    [
        (
            verify_module,
            "series_coefficients",
            lambda f: lambda gf, count: [v + (k == 4) for k, v in enumerate(f(gf, count))],
            "genfunc_series_roundtrip",
            1.0,
            "first divergence at k = 4",
        ),
        (
            verify_module,
            "_row_sum_form",
            lambda f: lambda gf: lambda i, form=f(gf): form(i) + (i == 5),
            "trapezoid_row_sums",
            None,
            "first divergence at row 5",
        ),
        (
            verify_module,
            "diagonal_sum",
            lambda f: lambda trap, i: f(trap, i) + (i == 3),
            "trapezoid_diagonal_sums",
            None,
            "first divergence at diagonal 3",
        ),
        (
            trapezoid_module,
            "_closed_form",
            lambda f: lambda spec, seeds: (
                lambda i, j, entry=f(spec, seeds): entry(i, j) + ((i, j) == (3, 1))
            ),
            "trapezoid_closed_form",
            1.0,
            "first divergent entry at (i, j) = (3, 1)",
        ),
    ],
)
def test_exact_check_fails_on_one_wrong_value(
    monkeypatch, module, name, wrap, check, residual, detail
):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    checks = verify_all(make_spec((1, 1)), make_seeds((0, 1)))
    assert [c.check for c in checks if c.status != "pass"] == [check]
    row = by_name(checks)[check]
    assert row.status == "fail"
    assert row.residual == residual
    assert row.detail == detail


@pytest.fixture
def roots_unavailable(monkeypatch):
    def refuse(spec, precision="standard"):
        raise RootConvergenceError("root iteration did not converge within 200 sweeps")

    for module in (verify_module, analysis_module):
        monkeypatch.setattr(module, "solve_roots", refuse)


@pytest.mark.parametrize(
    "coeffs, seeds, degree_row",
    [
        ((1, 2), (0, 1), "golden_identity_inverse"),
        ((1, 1, 1), (0, 1, 1), "cubic_ratio_root_recovery"),
        ((1, 1, 1, 1), (0, 1, 1, 2), None),
    ],
)
def test_unsolved_roots_skip_every_row_that_needs_them(
    roots_unavailable, coeffs, seeds, degree_row
):
    checks = verify_all(make_spec(coeffs), make_seeds(seeds))
    skipped = [c for c in checks if c.check in ROOT_ROWS]
    assert {c.check for c in skipped} == ROOT_ROWS - (
        {"golden_identity_inverse", "cubic_ratio_root_recovery"} - {degree_row}
    )
    for c in skipped:
        assert c.status == "skipped", c.check
        assert c.detail == "roots unavailable: root iteration did not converge within 200 sweeps"
    for c in checks:
        if c.check.startswith(("genfunc_", "trapezoid_")) and c.check != "trapezoid_closed_form":
            assert c.status == "pass", c.check


@pytest.mark.parametrize(
    "argv",
    [["--preset", "pell"], ["--coeffs", "1,1,1,1", "--seeds", "0,1,1,2", "--format", "json"]],
)
def test_verify_command_reports_unsolved_roots_and_exits_0(roots_unavailable, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv])
    assert code == 0
    assert "roots unavailable: root iteration did not converge" in out.getvalue()


def test_probe_refusal_skips_both_binet_rows():
    spec = make_spec((0, -1, -1, 0, -1))
    seeds = make_seeds((1, Fraction(2, 3), -1, Fraction(2, 3), 2))
    with pytest.raises(DegenerateSpectrumError, match="1.380e-01 exceeds") as refusal:
        solve_weights(spec, seeds, solve_roots(spec))
    named = by_name(verify_all(spec, seeds))
    for name in ("binet_constant_weight", "recurrence_binet_roundtrip"):
        assert named[name].status == "skipped"
        assert named[name].detail == str(refusal.value)


def test_zero_root_spec_passes_symmetric_relations_and_skips_the_tie():
    # x (x + 1)^2 (x^2 - x + 1): the exact zero root keeps the elementary
    # symmetric polynomials within tolerance, and -1 ties the pair on the
    # unit circle for the largest modulus
    spec = make_spec((0, -1, -1, 0, -1))
    seeds = make_seeds((1, Fraction(2, 3), -1, Fraction(2, 3), 2))
    for precision in PRECISIONS:
        named = by_name(verify_all(spec, seeds, precision=precision))
        assert named["symmetric_relations"].status == "pass", precision
        assert named["ratio_convergence"].status == "skipped", precision
        assert "tie for largest modulus" in named["ratio_convergence"].detail


@pytest.mark.parametrize("precision, digits", [("standard", 21), ("extended", 50)])
def test_a_computed_zero_root_fails_the_inverse_identity(precision, digits):
    # x^2 = -x - 10^-digits: the radical (alpha + sigma)/2 cancels to
    # exactly 0, though 0 is not a root; the reciprocal 1/r is undefined
    # there, so the row fails instead of raising ZeroDivisionError
    coeffs = "-1/1%s,-1" % ("0" * digits)
    spec = make_spec(coeffs.split(","))
    rootset = solve_roots(spec, precision)
    assert rootset.roots[0] == 0
    check = analysis_module.golden_inverse_check(spec, rootset)
    assert (check.matches, check.first_mismatch) == (False, 0)
    detail = "root 0 is exactly 0, which has no reciprocal; a_0 != 0, so 0 is not a root"
    row = by_name(verify_all(spec, make_seeds((1, 1)), precision=precision))["golden_identity_inverse"]
    assert (row.status, row.residual, row.detail) == ("fail", None, detail)

    out = io.StringIO()
    argv = ["verify", "--coeffs=" + coeffs, "--seeds=1,1", "--precision", precision, "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 1

    def no_constant(name):
        raise ValueError("not strict JSON: %s" % name)

    rows = json.loads(out.getvalue(), parse_constant=no_constant)
    assert {"check": "golden_identity_inverse", "status": "fail", "residual": None, "detail": detail} in rows


def test_all_zero_seeds_skip_convergence_and_recovery():
    checks = verify_all(make_spec((1, 1, 1)), make_seeds((0, 0, 0)))
    named = by_name(checks)
    assert named["ratio_convergence"].status == "skipped"
    assert "all seeds are zero" in named["ratio_convergence"].detail
    assert named["cubic_ratio_root_recovery"].status == "skipped"
    assert not has_failures(checks)


# (module, name) pairs whose calls a verify_all run counts: the names
# verify and analysis import, and trapezoid's own build_expansion,
# _expand and build_genfunc, which check_closed_form would reach.
# binet's generate is counted apart, as "binet.generate": solve_weights
# makes its one call there, and the closed Binet forms scan the terms
# verify already holds.
COUNTED = [
    (verify_module, "solve_roots"),
    (analysis_module, "solve_roots"),
    (verify_module, "solve_weights"),
    (analysis_module, "solve_weights"),
    (trapezoid_module, "build_expansion"),
    (verify_module, "build_genfunc"),
    (trapezoid_module, "build_genfunc"),
    (verify_module, "_expand"),
    (trapezoid_module, "_expand"),
    (verify_module, "generate"),
    (analysis_module, "generate"),
    (verify_module, "_ratio_report"),
]


@pytest.mark.parametrize(
    "coeffs, seeds",
    [((1, 1, 1), (0, 1, 1)), ((1, -1, 2, 0, 1), (0, 1, 0, 2, 1))],
)
def test_shared_inputs_are_computed_once(monkeypatch, coeffs, seeds):
    calls = {}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)

        return wrapper

    for module, name in COUNTED:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(binet_module, "generate", counted("binet.generate", binet_module.generate))
    verify_all(make_spec(coeffs), make_seeds(seeds))
    assert calls.pop("solve_roots") == 1
    assert calls.pop("binet.generate", 0) <= calls.pop("solve_weights", 0) <= 1
    # one generating function: the series round trip and the expansion share it
    # and one ratio report, which both ratio rows read
    assert calls == {"build_genfunc": 1, "_expand": 1, "generate": 1, "_ratio_report": 1}


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize(
    "coeffs, seeds, row, detail",
    [
        (
            (-1, 2),
            (1, 2),
            "binet_quadratic_closed_matches",
            "discriminant a^2 + 4b is zero: repeated root, closed form undefined",
        ),
        (
            (1, -1, 1),
            (0, 1, 2),
            "binet_cubic_closed_matches",
            "1 is a characteristic root; the closed form divides by (root - 1) "
            "and is undefined here",
        ),
    ],
)
def test_closed_form_without_its_premise_is_skipped(coeffs, seeds, row, detail, precision):
    named = by_name(verify_all(make_spec(coeffs), make_seeds(seeds), precision=precision))
    assert (named[row].status, named[row].residual, named[row].detail) == ("skipped", None, detail)


R_NEAR_ONE = Fraction(1000000001, 1000000000)
MISMATCH = "formula mismatch: first divergence at k = "
RESOLUTION = (
    "a characteristic root lies within %s of 1, which %s precision cannot tell "
    "from 1; the closed form divides by (root - 1)"
)


# (x - r)(x^2 + 1): 1 is not a root.  At r = 1 + 1e-9 the premise holds
# and the verbatim formula is scanned like any distinct-root cubic; where
# the computed root is 1 to within 8 eps, (root - 1) would be rounding
# alone and the row is skipped.
@pytest.mark.parametrize(
    "r, precision, status, detail",
    [
        (R_NEAR_ONE, "standard", "fail", MISMATCH),
        (R_NEAR_ONE, "extended", "fail", MISMATCH),
        (1 + Fraction(1, 2**60), "standard", "skipped", RESOLUTION % ("3.6e-15", "standard")),
        (1 + Fraction(1, 2**200), "extended", "skipped", RESOLUTION % ("1.6e-38", "extended")),
    ],
)
def test_cubic_closed_row_with_a_root_near_one(r, precision, status, detail):
    named = by_name(verify_all(make_spec((r, -1, r)), make_seeds((0, 1, 2)), precision=precision))
    row = named["binet_cubic_closed_matches"]
    assert (row.status, row.detail.startswith(detail)) == (status, True)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name, solver", [("pell", "quadratic_roots"), ("tribonacci", "cubic_roots")])
def test_closed_form_solves_its_roots_once(monkeypatch, name, solver, precision):
    calls = []
    solve = getattr(binet_module, solver)
    monkeypatch.setattr(binet_module, solver, lambda *args: calls.append(args) or solve(*args))
    preset = BUILTIN_PRESETS[name]
    verify_all(make_spec(preset.coeffs), make_seeds(preset.seeds), precision=precision)
    assert len(calls) == 1


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", ["pell", "tribonacci"])
def test_scans_take_power_rows_not_binet_eval(monkeypatch, name, precision):
    # the round trip walks its power rows; binet_eval stays a single-k call
    calls = []
    evaluate = binet_module.binet_eval
    for module in (binet_module, verify_module):
        monkeypatch.setattr(
            module, "binet_eval", lambda *args: calls.append(args) or evaluate(*args), raising=False
        )
    preset = BUILTIN_PRESETS[name]
    checks = verify_all(make_spec(preset.coeffs), make_seeds(preset.seeds), precision=precision)
    assert by_name(checks)["recurrence_binet_roundtrip"].status == "pass"
    assert calls == []


@pytest.mark.parametrize(
    "name, residual",
    [
        ("fibonacci", "1.0192894870430463e-15"),
        ("lucas", "1.0536640024277679e-15"),
        ("pell", "1.459725929829569e-15"),
        ("tribonacci", "3.3849023988221248e-15"),
    ],
)
def test_standard_roundtrip_residuals_are_pinned(name, residual):
    # standard precision scans the running power rows in floats, bit for bit
    preset = BUILTIN_PRESETS[name]
    checks = verify_all(make_spec(preset.coeffs), make_seeds(preset.seeds))
    assert repr(by_name(checks)["recurrence_binet_roundtrip"].residual) == residual


def test_roundtrip_error_past_the_float_range_fails(monkeypatch):
    # weights scaled by 10^400 put the extended sum's relative error past
    # the largest float: the row fails with an infinite residual instead
    # of raising OverflowError from the int true division
    def inflated(*args):
        weights = solve_weights(*args)
        ctx = type(weights.weights[0]).context
        big = ctx.mpf(10) ** 400
        return weights.replace(weights=tuple(w * big for w in weights.weights))

    monkeypatch.setattr(verify_module, "solve_weights", inflated)
    preset = BUILTIN_PRESETS["pell"]
    checks = verify_all(make_spec(preset.coeffs), make_seeds(preset.seeds), precision="extended")
    trip = by_name(checks)["recurrence_binet_roundtrip"]
    assert (trip.status, trip.residual) == ("fail", math.inf)


def test_extended_roundtrip_passes_on_terms_past_the_float_range():
    # x^2 = 10^20 x + 1: from k = 20 on the terms pass 10^400, and the
    # exact error of the 40-digit weights and roots stays near 1e-40; a
    # ratio of two floats here would read inf / inf, a NaN fail
    checks = verify_all(make_spec([1, 10**20]), make_seeds([0, 1]), precision="extended")
    trip = by_name(checks)["recurrence_binet_roundtrip"]
    assert trip.status == "pass" and trip.residual < 1e-39


def test_extended_quadratic_closed_form_on_terms_past_the_float_range():
    # the same spec: x_k and its error both pass 1e308 from k = 22, and
    # their ratio, formed in the context first, is finite
    checks = verify_all(make_spec([1, 10**20]), make_seeds([0, 1]), precision="extended")
    closed = by_name(checks)["binet_quadratic_closed_matches"]
    assert closed.status == "pass" and closed.residual < 1e-39


def test_weights_past_the_float_range_skip_the_ratio_row():
    # x^2 = 3x - 2 with equal seeds: a constant sequence, whose dominant
    # weight is exactly 0.  Standard precision cannot hold the seeds
    # 10^400: the row is skipped with that refusal, where reading the
    # weights as unknown made it fail; extended reads the zero weight
    spec, seeds = make_spec([-2, 3]), make_seeds([10**400, 10**400])
    standard = by_name(verify_all(spec, seeds))["ratio_convergence"]
    assert (standard.status, standard.detail) == (
        "skipped", "value outside the float range of standard precision"
    )
    extended = by_name(verify_all(spec, seeds, precision="extended"))["ratio_convergence"]
    assert extended.status == "skipped" and "zero weight" in extended.detail


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 15: one term past the float range refuses a whole standard scan",
)
def test_standard_scans_compare_what_fits_a_float():
    # x^2 = 10^20 x + 1, seeds 0, 1: x_0 .. x_16 and the root powers up
    # to r^15 fit a float; the rows could compare that span and say where
    # it stops instead of skipping every term
    named = by_name(verify_all(make_spec([1, 10**20]), make_seeds([0, 1])))
    assert named["recurrence_binet_roundtrip"].status == "pass"
    assert named["binet_quadratic_closed_matches"].status == "pass"


# a small rational, +-10^a / 10^b or +-m * 2^e: magnitudes from 2^-200 to 9 * 2^200
_WIDE_ENTRY = st.one_of(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3))),
    st.builds(
        lambda sign, a, b: sign * Fraction(10**a, 10**b),
        st.sampled_from((1, -1)), st.integers(0, 60), st.integers(0, 60),
    ),
    st.builds(
        lambda m, e: m * Fraction(2) ** e,
        st.integers(1, 9) | st.integers(-9, -1), st.integers(-200, 200),
    ),
)


@st.composite
def _wide_specs(draw):
    n = draw(st.integers(1, 6))
    entries = st.lists(_WIDE_ENTRY, min_size=n, max_size=n)
    return make_spec(draw(entries)), make_seeds(draw(entries))


@settings(max_examples=60, deadline=None)
@given(inputs=_wide_specs())
def test_wide_range_specs_raise_only_documented_errors(inputs):
    # verify_all, the Binet chain and ratio_convergence on entries far
    # from 1 either refuse with PremiseError or RootConvergenceError, or
    # answer; an OverflowError or any other exception is a defect
    spec, seeds = inputs

    def binet_chain(precision):
        rootset = solve_roots(spec, precision)
        return binet_eval(solve_weights(spec, seeds, rootset), rootset, 50)

    for precision in PRECISIONS:
        for entry in (
            lambda: verify_all(spec, seeds, precision=precision),
            lambda: binet_chain(precision),
            lambda: ratio_convergence(spec, seeds, 60, precision),
        ):
            try:
                entry()
            except (PremiseError, RootConvergenceError):
                pass
