"""Exact sequence engine: generation, fast single terms, symbolic forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.errors import InvalidSpecError, SeedMismatchError

FIB = gs.make_spec([1, 1])
FIB_SEEDS = gs.make_seeds([0, 1])


def test_fibonacci_first_terms():
    assert gs.generate(FIB, FIB_SEEDS, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_lucas_first_terms():
    spec = gs.make_spec([1, 1])
    seeds = gs.make_seeds([2, 1])
    assert gs.generate(spec, seeds, 6) == [2, 1, 3, 4, 7, 11]


def test_pell_first_terms():
    spec = gs.make_spec([1, 2])  # x_{k+2} = 2 x_{k+1} + x_k
    seeds = gs.make_seeds([0, 1])
    assert gs.generate(spec, seeds, 7) == [0, 1, 2, 5, 12, 29, 70]


def test_tribonacci_first_terms():
    spec = gs.make_spec([1, 1, 1])
    seeds = gs.make_seeds([0, 1, 1])
    assert gs.generate(spec, seeds, 11) == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]


def test_generate_count_shorter_than_degree():
    assert gs.generate(FIB, FIB_SEEDS, 0) == []
    assert gs.generate(FIB, FIB_SEEDS, 1) == [0]


def test_generate_negative_count_rejected():
    with pytest.raises(ValueError):
        gs.generate(FIB, FIB_SEEDS, -1)


def test_term_at_known_values():
    # classic checkpoints, also reproduced by the iterative path below
    assert gs.term_at(FIB, FIB_SEEDS, 50) == 12586269025
    assert gs.term_at(FIB, FIB_SEEDS, 100) == 354224848179261915075


@pytest.mark.parametrize(
    "coeffs,seeds",
    [
        ([1, 1], [0, 1]),
        ([1, 2], [0, 1]),
        ([1, 1, 1], [0, 1, 1]),
        ([Fraction(1, 2), Fraction(1, 2)], [1, 2]),
        ([-1, 0], [0, 1]),
        ([0, 0], [3, 5]),
    ],
)
def test_term_at_agrees_with_generate(coeffs, seeds):
    spec = gs.make_spec(coeffs)
    vec = gs.make_seeds(seeds)
    terms = gs.generate(spec, vec, 25)
    for k in range(25):
        assert gs.term_at(spec, vec, k) == terms[k]


def test_term_at_rejects_negative_index():
    with pytest.raises(ValueError):
        gs.term_at(FIB, FIB_SEEDS, -1)


def test_rational_arithmetic_is_exact():
    spec = gs.make_spec(["1/3", "2/3"])
    seeds = gs.make_seeds([1, 1])
    terms = gs.generate(spec, seeds, 6)
    # x_2 = (2/3)*1 + (1/3)*1 = 1, x_3 = (2/3)*1 + (1/3)*1 = 1, ...
    assert terms == [1, 1, 1, 1, 1, 1]


def test_make_spec_rejects_floats_and_empty():
    with pytest.raises(InvalidSpecError):
        gs.make_spec([1.5, 1])
    with pytest.raises(InvalidSpecError):
        gs.make_spec([])
    with pytest.raises(InvalidSpecError):
        gs.make_spec(["banana"])


def test_make_seeds_rejects_floats_and_empty():
    with pytest.raises(SeedMismatchError):
        gs.make_seeds([0.25])
    with pytest.raises(SeedMismatchError):
        gs.make_seeds([])


def test_seed_length_must_match_degree():
    with pytest.raises(SeedMismatchError):
        gs.generate(FIB, gs.make_seeds([1, 2, 3]), 5)


def test_spec_properties():
    assert FIB.degree == 2
    assert not FIB.degenerate
    assert gs.make_spec([0, 1]).degenerate


def test_string_rationals_accepted():
    spec = gs.make_spec(["1", "-3/2"])
    assert spec.coeffs == (Fraction(1), Fraction(-3, 2))


def test_symbolic_term_is_unit_vector_below_degree():
    spec = gs.make_spec([1, 1, 1])
    assert gs.symbolic_term(spec, 0).seed_coeffs == (1, 0, 0)
    assert gs.symbolic_term(spec, 2).seed_coeffs == (0, 0, 1)


def test_symbolic_term_fibonacci_shape():
    # x_k = F_{k-1} x_0 + F_k x_1 for the Fibonacci recurrence
    form = gs.symbolic_term(FIB, 10)
    assert form.seed_coeffs == (34, 55)
    assert form.evaluate(gs.make_seeds([2, 1])) == 123  # Lucas x_10


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    data=st.data(),
    k=st.integers(0, 30),
)
def test_symbolic_term_evaluates_to_term_at(coeffs, data, k):
    spec = gs.make_spec(coeffs)
    seeds = gs.make_seeds(
        data.draw(
            st.lists(
                st.integers(-9, 9),
                min_size=spec.degree,
                max_size=spec.degree,
            )
        )
    )
    assert gs.symbolic_term(spec, k).evaluate(seeds) == gs.term_at(spec, seeds, k)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=8
    ),
    zero_a0=st.booleans(),
    data=st.data(),
    k=st.integers(0, 200),
)
def test_term_at_and_symbolic_term_match_generate(coeffs, zero_a0, data, k):
    # generate is the plain forward loop; term_at and symbolic_term reduce x^k mod p(x)
    if zero_a0:
        coeffs[0] = Fraction(0)
    spec = gs.make_spec(coeffs)
    seeds = gs.make_seeds(
        data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=spec.degree,
                max_size=spec.degree,
            )
        )
    )
    expected = gs.generate(spec, seeds, k + 1)[k]
    assert gs.term_at(spec, seeds, k) == expected
    assert gs.symbolic_term(spec, k).evaluate(seeds) == expected
