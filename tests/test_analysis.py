"""Ratio convergence diagnostics and root identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenseq as gs
from goldenseq.analysis import _ratio_report
from goldenseq.errors import PremiseError

GOLDEN = 1.618033988749895


def _conv(coeffs, seeds, **kwargs):
    return gs.ratio_convergence(gs.make_spec(coeffs), gs.make_seeds(seeds), **kwargs)


def test_fibonacci_ratios_reach_golden_ratio():
    report = _conv([1, 1], [0, 1], k_max=60)
    assert report.converged
    assert report.hypothesis_met
    assert report.final_estimate == pytest.approx(GOLDEN, abs=1e-10)
    assert report.abs_error <= 1e-8
    assert report.reason is None
    assert report.k_used == 60


def test_ratios_are_exactly_formed():
    report = _conv([1, 1], [0, 1], k_max=5)
    # x_1/x_0 undefined (x_0 = 0); usable ratios start at k = 1
    assert report.ratios == (1.0, 2.0, 1.5, 5 / 3, 1.6)


def test_tied_dominance_is_diagnosed():
    report = _conv([-1, 0], [0, 1])  # x^2 = -1, roots +-i
    assert not report.converged
    assert not report.hypothesis_met
    assert "tie" in report.reason
    assert abs(report.target) == pytest.approx(1.0, abs=1e-12)


def test_zero_dominant_weight_is_diagnosed():
    # roots are 2 and -1; these seeds select the pure (-1)^k solution
    report = _conv([2, 1], [1, -1])
    assert not report.converged
    assert not report.hypothesis_met
    assert "zero weight" in report.reason
    assert report.final_estimate == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("precision", gs.PRECISIONS)
def test_ratios_converge_where_the_weights_are_refused(precision):
    # x^3 = 3x + 2 has roots 2, -1, -1: solve_weights refuses the double
    # root, and without weights the ratios still reach the simple root 2
    spec, seeds = gs.make_spec([2, 3, 0]), gs.make_seeds([0, 1, 1])
    with pytest.raises(gs.DegenerateSpectrumError):
        gs.solve_weights(spec, seeds, gs.solve_roots(spec, precision))
    report = _conv([2, 3, 0], [0, 1, 1], precision=precision)
    assert (report.converged, report.hypothesis_met, report.reason) == (True, True, None)
    assert report.final_estimate == 2.0


def test_weights_past_the_float_range_are_refused_not_taken_as_met():
    # x^2 = 3x - 2 has roots 2 and 1, and equal seeds give a constant
    # sequence: the dominant weight is exactly 0 and every ratio is 1.
    # Standard precision cannot hold the seeds 10^400, so the weight test
    # refuses rather than assume its premise; extended reads the zero
    spec, seeds = [-2, 3], [10**400, 10**400]
    with pytest.raises(PremiseError, match="^value outside the float range of standard precision$"):
        _conv(spec, seeds)
    report = _conv(spec, seeds, precision="extended")
    assert (report.converged, report.hypothesis_met) == (False, False)
    assert "zero weight" in report.reason


def test_all_zero_seeds_rejected():
    with pytest.raises(ValueError):
        _conv([1, 1], [0, 0])


def test_k_max_validation():
    with pytest.raises(ValueError):
        _conv([1, 1], [0, 1], k_max=0)


def test_zero_terms_are_skipped_not_divided():
    # x_{k+2} = x_k with seeds (0, 1): every even-indexed term is zero
    report = _conv([1, 0], [0, 1])
    assert report.ratios == (0.0,) * len(report.ratios)
    assert not report.converged  # roots +-1 tie anyway
    assert not report.hypothesis_met


def test_no_usable_ratio_is_diagnosed():
    # the first k_max + 2 = 3 terms of this degree-6 sequence are all zero
    report = _conv([1] * 6, [0, 0, 0, 0, 0, 1], k_max=1)
    assert report.ratios == ()
    assert report.final_estimate is None and report.abs_error is None
    assert report.k_used is None
    assert not report.converged
    assert not report.hypothesis_met
    assert report.reason == "no nonzero term produced a usable ratio"


def test_golden_identities_hold_on_fibonacci():
    spec = gs.make_spec([1, 1])
    rootset = gs.solve_roots(spec)
    defining = gs.golden_identity_check(spec, rootset)
    assert (defining.matches, defining.first_mismatch) == (True, None)
    assert defining.max_error <= defining.tolerance
    assert defining.note == "r^n = sum of a_j r^j at every root"
    inverse = gs.golden_inverse_check(spec, rootset)
    assert (inverse.matches, inverse.first_mismatch) == (True, None)
    assert inverse.note == "1/r = (r - a_1)/a_0 at both roots"


def test_golden_identities_name_the_first_wrong_root():
    spec = gs.make_spec([1, 1])
    rootset = gs.solve_roots(spec)
    wrong = rootset.replace(roots=(rootset.roots[0], rootset.roots[1] + 0.5))
    for check in (gs.golden_identity_check, gs.golden_inverse_check):
        report = check(spec, wrong)
        assert not report.matches
        assert report.first_mismatch == 1
        assert report.max_error > report.tolerance


def test_inverse_identity_refuses_a_zero_constant_coefficient():
    spec = gs.make_spec([0, 1])  # constant coefficient 0
    rootset = gs.solve_roots(spec)
    assert gs.golden_identity_check(spec, rootset).matches
    with pytest.raises(ValueError, match="divides by zero"):
        gs.golden_inverse_check(spec, rootset)


def test_absent_premises_raise_premise_errors():
    # an identically zero sequence and a_0 = 0 are absent premises, which
    # verify reports as skipped rows; every PremiseError is a ValueError
    with pytest.raises(PremiseError, match="all seeds are zero"):
        _conv([1, 1, 1], [0, 0, 0])
    spec = gs.make_spec([0, 1])
    with pytest.raises(PremiseError, match="divides by zero"):
        gs.golden_inverse_check(spec, gs.solve_roots(spec))
    assert issubclass(PremiseError, ValueError)
    for error in (gs.DegenerateSpectrumError, gs.UnitRootError):
        assert issubclass(error, PremiseError)
        assert issubclass(error, ValueError)
    # a degree other than 2 is a misuse, not an absent premise
    with pytest.raises(ValueError, match="degree 2") as misuse:
        gs.golden_inverse_check(gs.make_spec([1, 1, 1]), gs.solve_roots(gs.make_spec([1, 1, 1])))
    assert not isinstance(misuse.value, PremiseError)


def test_inverse_identity_is_quadratic_only():
    spec = gs.make_spec([1, 1, 1])
    rootset = gs.solve_roots(spec)
    report = gs.golden_identity_check(spec, rootset)
    assert report.matches
    assert report.first_mismatch is None
    with pytest.raises(ValueError, match="degree 2"):
        gs.golden_inverse_check(spec, rootset)


def test_identity_degree_mismatch_rejected():
    spec2 = gs.make_spec([1, 1])
    rs3 = gs.solve_roots(gs.make_spec([1, 1, 1]))
    with pytest.raises(ValueError):
        gs.golden_identity_check(spec2, rs3)
    with pytest.raises(ValueError):
        gs.golden_inverse_check(spec2, rs3)


def test_recover_cubic_conjugates_from_ratio_limit():
    spec = gs.make_spec([1, 1, 1])
    seeds = gs.make_seeds([0, 1, 1])
    limit = gs.ratio_convergence(spec, seeds).final_estimate
    pair = gs.recover_cubic_conjugates(1, 1, limit)
    rs = gs.solve_roots(spec)
    others = [z for i, z in enumerate(rs.roots) if i != rs.dominant_index]
    direct = max(abs(pair[0] - others[0]), abs(pair[1] - others[1]))
    swapped = max(abs(pair[0] - others[1]), abs(pair[1] - others[0]))
    assert min(direct, swapped) <= 1e-6


def test_recover_cubic_conjugates_real_case():
    # x^3 = 6x^2 - 11x + 6 has roots 3, 2, 1; feed the true dominant root
    pair = gs.recover_cubic_conjugates(6, 6, 3.0)
    values = sorted([pair[0].real, pair[1].real])
    assert values[0] == pytest.approx(1, abs=1e-9)
    assert values[1] == pytest.approx(2, abs=1e-9)


def test_recover_rejects_zero_limit():
    with pytest.raises(ValueError):
        gs.recover_cubic_conjugates(1, 1, 0.0)


_TERMS = st.lists(
    st.one_of(
        st.integers(-5, 5).map(Fraction),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        # far past the float range either way
        st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
    ),
    min_size=2,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(terms=_TERMS)
def test_ratios_are_the_floats_of_the_fraction_quotients(terms):
    # signed zero included: a zero x_{k+1} over a negative x_k is 0.0
    rootset = gs.solve_roots(gs.make_spec([1, 1]))

    def report():
        return _ratio_report(terms, len(terms) - 2, rootset, lambda: None)

    try:
        expected = [float(Fraction(b) / a) for a, b in zip(terms, terms[1:]) if a]
    except OverflowError:
        with pytest.raises(OverflowError):
            report()
        return
    assert [repr(r) for r in report().ratios] == [repr(r) for r in expected]
