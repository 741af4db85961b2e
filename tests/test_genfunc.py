"""Rational generating functions and exact series extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.genfunc import GeneratingFunction, format_polynomial


def test_fibonacci_display():
    gf = gs.build_genfunc(gs.make_spec([1, 1]), gs.make_seeds([0, 1]))
    assert gf.display() == "z/(1 - z - z^2)"
    assert str(gf) == "z/(1 - z - z^2)"


def test_lucas_display_parenthesizes_numerator():
    gf = gs.build_genfunc(gs.make_spec([1, 1]), gs.make_seeds([2, 1]))
    assert gf.display() == "(2 - z)/(1 - z - z^2)"


def test_tribonacci_display():
    gf = gs.build_genfunc(gs.make_spec([1, 1, 1]), gs.make_seeds([0, 1, 1]))
    assert gf.display() == "z/(1 - z - z^2 - z^3)"


def test_series_matches_generate_on_presets():
    for coeffs, seeds in [
        ([1, 1], [0, 1]),
        ([1, 1], [2, 1]),
        ([1, 2], [0, 1]),
        ([1, 1, 1], [0, 1, 1]),
        (["1/2", "1/3"], [1, "5/7"]),
    ]:
        spec = gs.make_spec(coeffs)
        vec = gs.make_seeds(seeds)
        gf = gs.build_genfunc(spec, vec)
        assert gs.series_coefficients(gf, 20) == gs.generate(spec, vec, 20)


def test_direct_construction_constant_function():
    # numerator 1 over denominator 1 (empty tail): the unit series
    gf = GeneratingFunction((1,), (0,))
    assert gs.series_coefficients(gf, 5) == [1, 0, 0, 0, 0]


def test_direct_construction_geometric():
    gf = GeneratingFunction((1,), (0, Fraction(1, 2)))
    assert gs.series_coefficients(gf, 5) == [
        1,
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    ]


def test_denominator_tail_must_start_at_zero():
    with pytest.raises(ValueError):
        GeneratingFunction((1,), (1, 1))


def test_series_count_validation():
    gf = GeneratingFunction((1,), (0,))
    assert gs.series_coefficients(gf, 0) == []
    with pytest.raises(ValueError):
        gs.series_coefficients(gf, -1)


def test_unit_function_step():
    assert gs.unit_function(0) == 1
    assert gs.unit_function(3) == 1
    assert gs.unit_function(-1) == 0


def test_format_polynomial_rendering():
    assert format_polynomial([]) == "0"
    assert format_polynomial([Fraction(0)]) == "0"
    assert format_polynomial([1, -1, -1]) == "1 - z - z^2"
    assert format_polynomial([0, Fraction(1, 2)]) == "(1/2)z"
    assert format_polynomial([-2, 0, 3]) == "-2 + 3z^2"
    assert format_polynomial([0, 1], variable="t") == "t"


def test_all_zero_seeds_give_zero_numerator():
    gf = gs.build_genfunc(gs.make_spec([1, 1]), gs.make_seeds([0, 0]))
    assert gf.display() == "0/(1 - z - z^2)"
    assert gs.series_coefficients(gf, 6) == [0] * 6


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-5, 5), min_size=2, max_size=4),
    data=st.data(),
)
def test_series_round_trip(coeffs, data):
    spec = gs.make_spec(coeffs)
    seeds = gs.make_seeds(
        data.draw(
            st.lists(
                st.fractions(
                    min_value=-3, max_value=3, max_denominator=6
                ),
                min_size=spec.degree,
                max_size=spec.degree,
            )
        )
    )
    gf = gs.build_genfunc(spec, seeds)
    assert gs.series_coefficients(gf, 15) == gs.generate(spec, seeds, 15)


# zeros are drawn often, so zero seeds, a0 = 0 and all-zero tails occur
RATIONALS = st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
INTEGERS = st.just(Fraction(0)) | st.integers(-4, 4).map(Fraction)


def _series_reference(numerator, tail, count):
    """c_k = t_k + sum_i r_i c_{k-i} in plain Fractions."""
    out = []
    for k in range(count):
        c = Fraction(numerator[k]) if k < len(numerator) else Fraction(0)
        for i in range(1, min(k, len(tail) - 1) + 1):
            c += Fraction(tail[i]) * out[k - i]
        out.append(c)
    return out


def _assert_series_equals_reference(gf, count):
    got = gs.series_coefficients(gf, count)
    expected = _series_reference(gf.numerator, gf.denominator_tail, count)
    assert got == expected
    assert repr(got) == repr(expected)
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 8),
    values=st.sampled_from((INTEGERS, RATIONALS)),
    direct=st.booleans(),
    data=st.data(),
)
def test_series_equals_fraction_reference(degree, values, direct, data):
    # series_coefficients runs on ints over E*D^k; the reference does not
    if direct:  # any T, even longer than R, and R possibly all zero
        numerator = data.draw(st.lists(values, max_size=degree + 4))
        tail = [0] + data.draw(st.lists(values, max_size=degree))
        gf = GeneratingFunction(tuple(numerator), tuple(tail))
    else:
        coeffs = data.draw(st.lists(values, min_size=degree, max_size=degree))
        seeds = data.draw(st.lists(values, min_size=degree, max_size=degree))
        gf = gs.build_genfunc(gs.make_spec(coeffs), gs.make_seeds(seeds))
    count = data.draw(st.integers(0, degree + 2) | st.integers(degree + 3, 200))
    _assert_series_equals_reference(gf, count)


@pytest.mark.parametrize(
    "numerator, tail, count",
    [
        ((), (), 60),  # 0 / 1
        ((Fraction(1, 3), 0, Fraction(-2, 5), 0, 7), (0,), 60),  # a polynomial
        ((1, Fraction(1, 2), 0, 0, Fraction(-3, 4), 1), (0, Fraction(2, 3), 0, 1), 700),
        ((0, 0, Fraction(5, 6)), (0, 0, 0, Fraction(-1, 2)), 1100),
        ((1, Fraction(1, 3)), (0, Fraction(2, 3), Fraction(1, 3)), 900),  # every coefficient 1
        ((Fraction(2, 49), 1), (0, Fraction(1, 5), Fraction(-3, 7)), 250),
        ((1, Fraction(1, 2**40)), (0, 1, Fraction(1, 2**40)), 60),
        ((Fraction(1, 65537), 0, 1), (0, 1, Fraction(-1, 2), Fraction(3, 65537)), 120),  # large primes in D,
        ((1, 0), (0, 1, Fraction(1, 2**61 - 1)), 60),  # reduced by gcds with E*D
        ((Fraction(1, 2), 1), (0, Fraction(1, 3), Fraction(2, 65537 * 65539)), 60),  # without factoring it
        ((0, 0, 1), (0, 0, 0, Fraction(1, 7)), 600),  # runs of two zero coefficients
        ((1, Fraction(-1, 6)), (0, Fraction(1, 6)), 400),  # zero from z^1 on
        ((Fraction(1, 2**1100), Fraction(1, 3**700)), (0, 1, 1), 200),  # D = 1 and E past the switch
        ((Fraction(1, 2**1100), Fraction(1, 3**700)), (0, 2, 2), 200),  # and coefficients that share ever more powers of 2 with E
    ],
)
def test_direct_series_edge_cases_equal_fraction_reference(numerator, tail, count):
    # the last count takes the running denominator E*D^k past
    # recurrence._GCD_BITS, except where R has integer coefficients and E
    # is short
    gf = GeneratingFunction(numerator, tail)
    for short in (0, 1, 2, 5, 8, count):
        _assert_series_equals_reference(gf, short)
