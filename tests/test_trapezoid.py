"""Arithmetic trapezoid tables, closed-form entries, and row identities."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq import trapezoid as trap_mod
from goldenseq.errors import PremiseError

FIB = gs.make_spec([1, 1])
FIB_SEEDS = gs.make_seeds([0, 1])
TRI = gs.make_spec([1, 1, 1])
TRI_SEEDS = gs.make_seeds([0, 1, 1])


def _poly_pow(base, exponent):
    """Independent little convolution helper used as a table oracle."""
    out = [1]
    for _ in range(exponent):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        out = nxt
    return out


def test_fibonacci_rows_are_pascal_with_zero_layer():
    t = gs.build_expansion(FIB, FIB_SEEDS, 6)
    for i, row in enumerate(t.rows):
        expected = [0] + [math.comb(i, j) for j in range(i + 1)]
        assert list(row) == expected


def test_lucas_row_five():
    spec = gs.make_spec([1, 1])
    seeds = gs.make_seeds([2, 1])
    t = gs.build_expansion(spec, seeds, 6)
    assert list(t.rows[5]) == [2, 9, 15, 10, 0, -3, -1]


def test_pell_rows():
    spec = gs.make_spec([1, 2])
    seeds = gs.make_seeds([0, 1])
    t = gs.build_expansion(spec, seeds, 6)
    assert list(t.rows[3]) == [0, 8, 12, 6, 1]
    assert list(t.rows[5]) == [0, 32, 80, 80, 40, 10, 1]


def test_tribonacci_row_five_is_padded_trinomial_row():
    t = gs.build_expansion(TRI, TRI_SEEDS, 6)
    assert list(t.rows[5]) == [0, 1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1, 0]
    # every row is the trinomial power shifted one slot right
    for i, row in enumerate(t.rows):
        expected = [0] + _poly_pow([1, 1, 1], i) + [0] * (len(row) - 2 - 2 * i)
        assert list(row) == expected


def test_row_length_formula():
    assert gs.row_length(0, 2) == 2
    assert gs.row_length(5, 2) == 7
    assert gs.row_length(5, 3) == 13
    assert gs.row_length(4, 1) == 1  # degree 1 rows never widen
    with pytest.raises(ValueError):
        gs.row_length(-1, 2)
    with pytest.raises(ValueError):
        gs.row_length(0, 0)


def test_row_lengths_in_built_table():
    t = gs.build_expansion(TRI, TRI_SEEDS, 5)
    for i, row in enumerate(t.rows):
        assert len(row) == gs.row_length(i, 3)


def test_closed_form_matches_expansion_quadratic_random():
    rng = random.Random(31)
    for _ in range(40):
        coeffs = [rng.randint(-5, 5) for _ in range(2)]
        seeds = [rng.randint(-5, 5) for _ in range(2)]
        spec = gs.make_spec(coeffs)
        vec = gs.make_seeds(seeds)
        report = gs.check_closed_form(gs.build_expansion(spec, vec, 6))
        assert report.matches, (coeffs, seeds, report.first_mismatch)


def test_closed_form_matches_expansion_cubic():
    report = gs.check_closed_form(gs.build_expansion(TRI, TRI_SEEDS, 6))
    assert report.matches
    rng = random.Random(37)
    for _ in range(25):
        coeffs = [rng.randint(-4, 4) for _ in range(3)]
        seeds = [rng.randint(-4, 4) for _ in range(3)]
        expansion = gs.build_expansion(gs.make_spec(coeffs), gs.make_seeds(seeds), 5)
        report = gs.check_closed_form(expansion)
        assert report.matches, (coeffs, seeds, report.first_mismatch)


def test_closed_form_handles_rational_inputs():
    spec = gs.make_spec([Fraction(1, 2), Fraction(3, 2)])
    seeds = gs.make_seeds([1, Fraction(2, 3)])
    assert gs.check_closed_form(gs.build_expansion(spec, seeds, 5)).matches


def test_closed_form_check_reads_spec_seeds_and_rows_from_the_expansion():
    report = gs.check_closed_form(gs.build_expansion(TRI, TRI_SEEDS, 7))
    assert report.matches
    assert report.note == "closed form matches the expansion on 7 rows"
    with pytest.raises(ValueError, match="build_expansion"):
        gs.check_closed_form(gs.build_closed_form(TRI, TRI_SEEDS, 7))


def test_mismatch_report_names_first_divergent_entry(monkeypatch):
    # sabotage one closed-form entry to prove divergence is loud, not silent
    real = trap_mod._closed_form

    def crooked(spec, seeds):
        entry = real(spec, seeds)
        return lambda i, j: entry(i, j) + ((i, j) == (3, 1))

    monkeypatch.setattr(trap_mod, "_closed_form", crooked)
    report = gs.check_closed_form(gs.build_expansion(FIB, FIB_SEEDS, 6))
    assert not report.matches
    assert report.first_mismatch == (3, 1)
    assert "(3, 1)" in report.note


def test_entry_out_of_range_raises():
    with pytest.raises(ValueError):
        gs.coeff_quadratic(2, 4, 1, 1, FIB_SEEDS)  # row 2 has entries 0..3
    with pytest.raises(ValueError):
        gs.coeff_cubic(1, 5, 1, 1, 1, TRI_SEEDS)  # row 1 has entries 0..4
    with pytest.raises(ValueError):
        gs.coeff_quadratic(-1, 0, 1, 1, FIB_SEEDS)


def test_entry_with_wrong_seed_count_raises():
    with pytest.raises(ValueError):
        gs.coeff_quadratic(0, 0, 1, 1, TRI_SEEDS)
    with pytest.raises(ValueError):
        gs.coeff_cubic(0, 0, 1, 1, 1, FIB_SEEDS)


def test_entry_with_float_coefficient_raises():
    with pytest.raises(ValueError):
        gs.coeff_quadratic(1, 1, 1.5, 1, FIB_SEEDS)
    with pytest.raises(ValueError):
        gs.coeff_cubic(1, 1, 1, 1.5, 1, TRI_SEEDS)


def test_closed_form_builder_rejects_other_degrees():
    spec = gs.make_spec([1, 1, 1, 1])
    with pytest.raises(ValueError, match="degrees 2 and 3"):
        gs.build_closed_form(spec, gs.make_seeds([0, 1, 1, 2]), 4)
    with pytest.raises(ValueError, match="degrees 2 and 3"):
        gs.build_closed_form(gs.make_spec([2]), gs.make_seeds([1]), 4)


@pytest.mark.parametrize("coeffs, seeds", [((1, 1, 1, 1), (0, 1, 1, 2)), ((2,), (1,))])
def test_closed_form_builder_refuses_other_degrees_with_a_premise_error(monkeypatch, coeffs, seeds):
    # the refusal is decided here, so verify reads it as a skipped row; it
    # comes before any scaling, so asking every degree builds nothing
    monkeypatch.setattr(trap_mod, "_scale", lambda values: pytest.fail("scaled before refusing"))
    with pytest.raises(PremiseError) as info:
        gs.build_closed_form(gs.make_spec(coeffs), gs.make_seeds(seeds), 4)
    assert str(info.value) == "per-entry closed forms exist only for degrees 2 and 3"


def test_method_labels():
    assert gs.build_expansion(FIB, FIB_SEEDS, 3).method == "expansion"
    assert gs.build_closed_form(FIB, FIB_SEEDS, 3).method == "closed-form"


@pytest.mark.parametrize("name", ["pell", "tribonacci"])
def test_closed_form_is_built_once_per_call(monkeypatch, name):
    builds = []
    real = trap_mod._closed_form
    monkeypatch.setattr(
        trap_mod, "_closed_form", lambda spec, seeds: builds.append(spec) or real(spec, seeds)
    )
    preset = gs.BUILTIN_PRESETS[name]
    spec, seeds = gs.make_spec(preset.coeffs), gs.make_seeds(preset.seeds)
    for run in (
        lambda: gs.build_closed_form(spec, seeds, 8),
        lambda: gs.check_closed_form(gs.build_expansion(spec, seeds, 8)),
        lambda: gs.verify_all(spec, seeds),
    ):
        builds.clear()
        run()
        assert builds == [spec]


# zeros are drawn often, so a0 = 0, zero coefficients and zero seeds all occur
RATIONALS = st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(degree=st.sampled_from((2, 3)), rows=st.integers(1, 8), data=st.data())
def test_closed_form_equals_expansion_on_rational_specs(degree, rows, data):
    values = st.lists(RATIONALS, min_size=degree, max_size=degree)
    coeffs, seeds = data.draw(values), data.draw(values)
    spec, vec = gs.make_spec(coeffs), gs.make_seeds(seeds)
    closed = gs.build_closed_form(spec, vec, rows)
    assert closed.rows == gs.build_expansion(spec, vec, rows).rows
    # the public per-entry functions give the form that verify checks
    coeff = gs.coeff_quadratic if degree == 2 else gs.coeff_cubic
    for i, row in enumerate(closed.rows):
        for j, value in enumerate(row):
            assert isinstance(value, Fraction)
            assert coeff(i, j, *reversed(coeffs), seeds) == value


def _fraction_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _expansion_reference(coeffs, seeds, num_rows):
    """Rows of T(z)*R(z)^i in plain Fractions, T and R from their definitions."""
    n = len(coeffs)
    r_poly = [Fraction(0)] + [Fraction(c) for c in reversed(coeffs)]
    t_poly = [
        Fraction(seeds[d]) - sum(Fraction(coeffs[n - 1 - j]) * seeds[d - 1 - j] for j in range(d))
        for d in range(n)
    ]
    rows, cur = [], t_poly
    for i in range(num_rows):
        p = gs.row_length(i, n)
        rows.append(tuple(cur[i + j] if i + j < len(cur) else Fraction(0) for j in range(p)))
        cur = _fraction_poly_mul(cur, r_poly)
    return rows


INTEGERS = st.just(Fraction(0)) | st.integers(-4, 4).map(Fraction)


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 8),
    rows=st.integers(1, 7),
    values=st.sampled_from((INTEGERS, RATIONALS)),
    data=st.data(),
)
def test_expansion_equals_fraction_reference(degree, rows, values, data):
    coeffs = data.draw(st.lists(values, min_size=degree, max_size=degree))
    seeds = data.draw(st.lists(values, min_size=degree, max_size=degree))
    t = gs.build_expansion(gs.make_spec(coeffs), gs.make_seeds(seeds), rows)
    assert list(t.rows) == _expansion_reference(coeffs, seeds, rows)
    assert all(type(v) is Fraction for row in t.rows for v in row)


def _row_recurrence_reference(trapezoid):
    """check_row_recurrence as it was in Fractions, read through Trapezoid.entry."""
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


def _typed(violations):
    return [tuple((type(v), v) for v in violation) for violation in violations]


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 5),
    rows=st.integers(1, 6),
    closed=st.booleans(),
    perturb=st.booleans(),
    data=st.data(),
)
def test_row_recurrence_equals_fraction_reference(degree, rows, closed, perturb, data):
    values = st.lists(RATIONALS, min_size=degree, max_size=degree)
    spec, seeds = gs.make_spec(data.draw(values)), gs.make_seeds(data.draw(values))
    build = gs.build_closed_form if closed and degree in (2, 3) else gs.build_expansion
    t = build(spec, seeds, rows)
    if perturb:
        table = [list(row) for row in t.rows]
        i = data.draw(st.integers(0, rows - 1))
        j = data.draw(st.integers(0, len(table[i]) - 1))
        # a new denominator as often as not
        table[i][j] = data.draw(st.fractions(-5, 5, max_denominator=data.draw(st.sampled_from((1, 97)))))
        t = trap_mod.Trapezoid(tuple(map(tuple, table)), spec, seeds, t.method)
    found = gs.check_row_recurrence(t)
    assert _typed(found) == _typed(_row_recurrence_reference(t))
    if not perturb:
        assert found == []


def test_row_recurrence_on_hand_built_rows():
    # int entries, a short row and a long row: the check reads them as the entry accessor does
    spec = gs.make_spec([Fraction(1, 2), 3])
    t = trap_mod.Trapezoid(((1, Fraction(2, 3)), (0, 5), (Fraction(1, 7),) * 9), spec, None, "hand")
    found = gs.check_row_recurrence(t)
    assert found and _typed(found) == _typed(_row_recurrence_reference(t))


@pytest.mark.parametrize(
    "coeffs, seeds",
    [
        ([0, 1], [2, Fraction(-1, 3)]),  # b = 0
        ([1, 0, 1], [1, Fraction(1, 2), -2]),  # b = 0
        ([0, 1, 1], [Fraction(2, 3), -1, 1]),  # g = 0
        ([Fraction(-2, 3), Fraction(5, 4)], [Fraction(1, 2), 3]),
        ([Fraction(1, 2), Fraction(-1, 3), 2], [1, Fraction(1, 2), -2]),
    ],
)
def test_closed_form_edge_cases_equal_expansion(coeffs, seeds):
    spec, vec = gs.make_spec(coeffs), gs.make_seeds(seeds)
    expansion = gs.build_expansion(spec, vec, 41)
    assert gs.build_closed_form(spec, vec, 12).rows == expansion.rows[:12]
    # far rows first, so the power tables grow out of order
    coeff = gs.coeff_quadratic if len(coeffs) == 2 else gs.coeff_cubic
    entry = trap_mod._closed_form(spec, vec)
    for i, j in ((40, 1), (40, 17), (40, 40), (3, 2), (0, 0), (40, 41 if len(coeffs) == 2 else 80)):
        assert coeff(i, j, *reversed(coeffs), seeds) == expansion.rows[i][j]
        assert entry(i, j) == expansion.rows[i][j]


def test_row_recurrence_holds_on_random_specs():
    rng = random.Random(41)
    for _ in range(25):
        degree = rng.randint(2, 5)
        spec = gs.make_spec([rng.randint(-4, 4) for _ in range(degree)])
        seeds = gs.make_seeds([rng.randint(-4, 4) for _ in range(degree)])
        t = gs.build_expansion(spec, seeds, 7)
        assert gs.check_row_recurrence(t) == []


def test_row_recurrence_single_row_vacuous():
    t = gs.build_expansion(FIB, FIB_SEEDS, 1)
    assert gs.check_row_recurrence(t) == []


def test_row_recurrence_catches_corruption():
    t = gs.build_expansion(FIB, FIB_SEEDS, 4)
    rows = [list(r) for r in t.rows]
    rows[2][1] += 1
    broken = trap_mod.Trapezoid(
        tuple(tuple(r) for r in rows), t.spec, t.seeds, "expansion"
    )
    assert gs.check_row_recurrence(broken) != []


def test_row_sums_fibonacci_doubling():
    t = gs.build_expansion(FIB, FIB_SEEDS, 8)
    for i in range(8):
        assert gs.row_sum(i, FIB, FIB_SEEDS) == 2**i
        assert sum(t.rows[i]) == 2**i


def test_row_sums_random_specs():
    rng = random.Random(43)
    for _ in range(25):
        degree = rng.randint(2, 5)
        spec = gs.make_spec([rng.randint(-4, 4) for _ in range(degree)])
        seeds = gs.make_seeds([rng.randint(-4, 4) for _ in range(degree)])
        t = gs.build_expansion(spec, seeds, 7)
        for i in range(7):
            assert gs.row_sum(i, spec, seeds) == sum(t.rows[i])


def _row_sum_reference(coeffs, seeds):
    """The paper's per-seed row sum in plain Fractions: i -> the seeds
    weighted by 1 - (a partial sum of the a_k), times (sum a_k)^i."""
    n = len(coeffs)
    inner = Fraction(0)
    for r in range(n):
        weight = Fraction(1) - sum(
            (coeffs[n + r - l - 1] for l in range(r, n - 1)), Fraction(0)
        )
        inner += weight * seeds[r]
    total = sum(coeffs, Fraction(0))
    return lambda i: inner * total**i


@settings(max_examples=80, deadline=None)
@given(degree=st.integers(1, 8), zero=st.sampled_from((None, "a0", "R(1)")), data=st.data())
def test_row_sums_equal_fraction_sums_of_expansion_rows(degree, zero, data):
    # RATIONALS draws 0 often, so zero seeds and all-zero seed vectors come up
    values = st.lists(RATIONALS, min_size=degree, max_size=degree)
    coeffs, seeds = data.draw(values), data.draw(values)
    if zero == "a0":
        coeffs[0] = Fraction(0)
    elif zero == "R(1)":  # sum a_k = 0: every row past the first sums to 0
        coeffs[0] = -sum(coeffs[1:], Fraction(0))
    spec, vec = gs.make_spec(coeffs), gs.make_seeds(seeds)
    paper = _row_sum_reference(coeffs, seeds)
    for i, row in enumerate(gs.build_expansion(spec, vec, 8).rows):
        assert gs.row_sum(i, spec, vec) == sum(row, Fraction(0)) == paper(i)


def test_diagonal_sums_recover_sequence():
    rng = random.Random(47)
    for _ in range(15):
        degree = rng.randint(2, 4)
        spec = gs.make_spec([rng.randint(-4, 4) for _ in range(degree)])
        seeds = gs.make_seeds([rng.randint(-4, 4) for _ in range(degree)])
        t = gs.build_expansion(spec, seeds, 9)
        for i in range(9):
            assert gs.diagonal_sum(t, i) == gs.term_at(spec, seeds, i)


def test_diagonal_sum_needs_enough_rows():
    t = gs.build_expansion(FIB, FIB_SEEDS, 3)
    with pytest.raises(ValueError):
        gs.diagonal_sum(t, 3)


@pytest.mark.parametrize("build", [gs.build_expansion, gs.build_closed_form])
def test_zero_rows_are_refused(build):
    with pytest.raises(ValueError, match="num_rows must be >= 1"):
        build(FIB, FIB_SEEDS, 0)


def test_negative_row_and_diagonal_indices_are_refused():
    with pytest.raises(ValueError, match="row index must be >= 0"):
        gs.row_sum(-1, FIB, FIB_SEEDS)
    with pytest.raises(ValueError, match="diagonal index must be >= 0"):
        gs.diagonal_sum(gs.build_expansion(FIB, FIB_SEEDS, 3), -1)


def test_zero_coefficient_spec_still_tabulates():
    spec = gs.make_spec([0, 0])  # x_{k+2} = 0
    seeds = gs.make_seeds([3, 5])
    t = gs.build_expansion(spec, seeds, 4)
    assert list(t.rows[0]) == [3, 5]
    assert all(v == 0 for row in t.rows[1:] for v in row)
    assert gs.diagonal_sum(t, 2) == 0
    assert gs.check_closed_form(gs.build_expansion(spec, seeds, 4)).matches


def test_entry_accessor_bounds():
    t = gs.build_expansion(FIB, FIB_SEEDS, 3)
    assert t.entry(1, 0) == 0
    assert t.entry(1, -5) == 0  # off the left edge reads as zero
    assert t.entry(1, 99) == 0
    with pytest.raises(ValueError):
        t.entry(7, 0)
