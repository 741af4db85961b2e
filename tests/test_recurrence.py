"""Exact sequence engine: generation, fast single terms, symbolic forms."""

import math
import pickle
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.errors import InvalidSpecError, SeedMismatchError
from goldenseq import recurrence
from goldenseq.recurrence import _coprime

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


def test_symbolic_term_refuses_the_wrong_number_of_seeds():
    form = gs.symbolic_term(FIB, 10)
    with pytest.raises(SeedMismatchError, match="linear form has 2 coefficients, got 3 seeds"):
        form.evaluate(gs.make_seeds([2, 1, 0]))


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


# zeros are drawn often, so a0 = 0, zero seeds and the all-zero spec occur
RATIONALS = st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
INTEGERS = st.just(Fraction(0)) | st.integers(-4, 4).map(Fraction)


def _generate_reference(coeffs, seeds, count):
    """The forward loop in plain Fractions."""
    n = len(coeffs)
    terms = [Fraction(s) for s in seeds[:count]]
    while len(terms) < count:
        terms.append(sum((Fraction(a) * terms[j - n] for j, a in enumerate(coeffs)), Fraction(0)))
    return terms


def _power_mod_reference(coeffs, k):
    """x^k mod p(x) in plain Fractions, one multiplication by x at a time."""
    form = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for _ in range(k):
        top = form.pop()  # x * x^(n-1) = x^n = sum a_j x^j
        form = [top * Fraction(coeffs[0])] + [f + top * Fraction(a) for f, a in zip(form, coeffs[1:])]
    return form


def _assert_same_fractions(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)
    assert all(type(v) is Fraction for v in got)


def _check_against_reference(coeffs, seeds, count, k):
    spec, vec = gs.make_spec(coeffs), gs.make_seeds(seeds)
    _assert_same_fractions(gs.generate(spec, vec, count), _generate_reference(coeffs, seeds, count))
    form = _power_mod_reference(coeffs, k)
    term = gs.symbolic_term(spec, k)
    assert term.k == k
    _assert_same_fractions(list(term.seed_coeffs), form)
    value = sum((c * Fraction(s) for c, s in zip(form, seeds)), Fraction(0))
    _assert_same_fractions([gs.term_at(spec, vec, k)], [value])


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 8),
    values=st.sampled_from((INTEGERS, RATIONALS)),
    data=st.data(),
)
def test_exact_core_equals_fraction_reference(degree, values, data):
    # generate runs on ints over S*D^k and symbolic_term/term_at on the
    # scaled polynomial y = D*x; the reference uses neither
    coeffs = data.draw(st.lists(values, min_size=degree, max_size=degree))
    seeds = data.draw(st.lists(values, min_size=degree, max_size=degree))
    count = data.draw(st.integers(0, degree + 2) | st.integers(degree + 3, 200))
    k = data.draw(st.integers(0, degree + 2) | st.integers(degree + 3, 400))
    _check_against_reference(coeffs, seeds, count, k)


# Denominators with large prime factors: past the switch the kernel
# reduces their prefixes by gcds with S*D, without factoring it.
MERSENNE_61 = 2**61 - 1
TWO_PRIMES = 65537 * 65539


@pytest.mark.parametrize(
    "coeffs, seeds, count",
    [
        ([0, 0, 0], ["1/2", -1, 3], 150),  # all-zero spec; its denominator never grows
        (["1/2", "-1/3", 2], [0, 0, 0], 400),  # zero seeds
        ([0, "3/4", "-2/5"], ["2/3", 0, -1], 400),  # a0 = 0
        (["1/3", "2/3"], [1, 1], 900),  # rational spec, integer terms: high 3-adic valuations
        (["-7/6"], ["5/9"], 500),
        (["1/5", "-3/7"], [1, "2/49"], 250),
        (["2/49", "1/7", "-1/5"], ["1/5", 0, 1], 250),
        ([f"1/{2**40}", 1], [1, "1/2"], 60),
        (["3/65537", "-1/2", 1], [1, 0, "1/65537"], 120),
        ([f"1/{MERSENNE_61}", 1], [1, 1], 60),
        ([f"2/{TWO_PRIMES}", "1/3"], ["1/2", 1], 60),
        (["1/7", 0, 0], [0, 0, 1], 600),  # runs of two zero terms
        ([0, "1/6"], [1, 0], 400),  # zero from k = 1 on
        ([0, 0], [f"1/{2**1030}", 3], 40),  # all-zero spec, zero from k = 2 on, its seeds past the switch
        ([1, 1], [f"1/{2**1100}", f"1/{3**700}"], 200),  # D = 1 and S past the switch: the kernel runs from k = n
        ([2, 2], [f"1/{2**1100}", f"1/{3**700}"], 200),  # and terms that share ever more powers of 2 with S
    ],
)
def test_exact_core_edge_cases_equal_fraction_reference(coeffs, seeds, count):
    # each count but the first takes the running denominator S*D^k past
    # recurrence._GCD_BITS, where generate switches to its windowed kernel
    for short in range(len(coeffs) + 4):
        _check_against_reference(coeffs, seeds, short, short)
    _check_against_reference(coeffs, seeds, count, 333)


def _peak_over_result(run):
    """tracemalloc peak of run() over the size of what it returns and keeps."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 3000
    return (peak - base) / (current - base)


def test_long_prefixes_peak_near_their_result():
    # Guards exact-far's peak_rss_mb: generate and series_coefficients
    # turn their ints into Fractions in place below the size switch and
    # keep only a window of ints past it, so the peak stays at the result;
    # holding all the ints and the Fractions in two lists at once reads
    # about 1.7x.  Every term of the second spec is 1, while x_k scaled to
    # S*D^k = 3^k is a k-bit int: holding all those ints peaked at 6.3x.
    for coeffs, seeds in (
        (["1/2", -1, "1/2", 1], [1, "1/2", -2, "3/2"]),
        (["1/3", "2/3"], [1, 1]),
    ):
        spec, vec = gs.make_spec(coeffs), gs.make_seeds(seeds)
        gf = gs.build_genfunc(spec, vec)
        assert _peak_over_result(lambda: gs.generate(spec, vec, 3000)) <= 1.25
        assert _peak_over_result(lambda: gs.series_coefficients(gf, 3000)) <= 1.25


@pytest.mark.parametrize("kind", ["generate", "series_coefficients"])
def test_window_division_keeps_the_kernels_gcds_short(monkeypatch, kind):
    # Every term of coeffs 1/3,2/3 with seeds 1,1 is 1.  Below the switch
    # each term 3^k / 3^k takes one gcd of at most _GCD_BITS bits; the
    # switch's gcd, the first one past them, takes the window's content
    # out of S*D^k; from then on dividing the window's common content out
    # at every term keeps the running denominator at 3 or 9, so every
    # later gcd sees short ints.  Without that division the ints would
    # grow as 3^k.
    seen = []

    def gcd(*ns):
        seen.append(max(abs(v).bit_length() for v in ns))
        return math.gcd(*ns)

    spec, vec = gs.make_spec(["1/3", "2/3"]), gs.make_seeds([1, 1])
    gf = gs.build_genfunc(spec, vec)
    monkeypatch.setattr(recurrence, "math", types.SimpleNamespace(**{**vars(math), "gcd": gcd}))
    terms = gs.generate(spec, vec, 1500) if kind == "generate" else gs.series_coefficients(gf, 1500)
    assert [(t.numerator, t.denominator) for t in terms] == [(1, 1)] * 1500
    switch = next(i for i, bits in enumerate(seen) if bits > recurrence._GCD_BITS)
    assert len(seen) - switch > 800
    assert max(seen[switch + 1 :]) < 8


def _assert_is_fraction(got, expected):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert got == expected and hash(got) == hash(expected) and repr(got) == repr(expected)
    again = pickle.loads(pickle.dumps(got))
    assert type(again) is Fraction and (again.numerator, again.denominator) == (got.numerator, got.denominator)
    assert got + Fraction(1, 3) == expected + Fraction(1, 3)


@pytest.mark.parametrize(
    "num, den",
    [
        (0, 1), (1, 1), (-3, 7), (5, 2**40), (3**500, 2**600 * 5**9), (-(7**300), MERSENNE_61**20),
        (0, 9), (0, 2**600), (-5, 1), (2**600 + 1, 1), (-(3**400), 1),
        (6, 4), (-6, 4), (2**600, 2**600), (-(2**601), 3 * 2**600),
        (10 * 3**500, 9 * 2**600 * 5**9), (-11 * 7**300, 11 * MERSENNE_61**20),
    ],
)
def test_gcd_free_fraction_is_the_constructors(num, den):
    # recurrence._fraction and _coprime skip Fraction.__new__ and set its
    # slots themselves; on shared factors, zero, den 1, negative numerators
    # and 600-bit ints they must build the same value
    expected = Fraction(num, den)
    _assert_is_fraction(recurrence._fraction(num, den), expected)
    _assert_is_fraction(_coprime(expected.numerator, expected.denominator), expected)


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(-(2**700), 2**700),
    den=st.integers(1, 2**700),
    common=st.sampled_from([1, 2, 6, 3**40, MERSENNE_61]) | st.integers(1, 2**90),
)
def test_lowest_terms_constructor_on_random_ints(num, den, common):
    _assert_is_fraction(recurrence._fraction(num * common, den * common), Fraction(num * common, den * common))
