"""The report and value records behave as frozen value objects.

For one fixed instance of each of the 11 record classes: the exact
repr, equality within the class only, equal hashes for equal
instances, no assignment or deletion, the defaults, the validation in
__post_init__, positional match patterns, pickle and deepcopy round
trips, and `replace`.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from goldenseq import (
    BinetWeights,
    ConvergenceReport,
    FormulaCheck,
    GeneratingFunction,
    InvalidSpecError,
    Preset,
    RecurrenceSpec,
    RootSet,
    SeedVector,
    SymbolicTerm,
    Trapezoid,
    VerificationCheck,
)

ONE_ONE = (F(1), F(1))


def _records():
    """(factory, field names, repr) for one instance of each class; the
    factory builds a new, equal instance on every call."""
    return [
        (
            lambda: RecurrenceSpec(ONE_ONE),
            ("coeffs",),
            "RecurrenceSpec(coeffs=(Fraction(1, 1), Fraction(1, 1)))",
        ),
        (
            lambda: SeedVector((F(0), F(1))),
            ("values",),
            "SeedVector(values=(Fraction(0, 1), Fraction(1, 1)))",
        ),
        (
            lambda: SymbolicTerm(5, (F(3), F(5))),
            ("k", "seed_coeffs"),
            "SymbolicTerm(k=5, seed_coeffs=(Fraction(3, 1), Fraction(5, 1)))",
        ),
        (
            lambda: GeneratingFunction((1,), (0, 1, 1)),
            ("numerator", "denominator_tail"),
            "GeneratingFunction(numerator=(Fraction(1, 1),), "
            "denominator_tail=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)))",
        ),
        (
            lambda: Preset("fib", ONE_ONE, (F(0), F(1))),
            ("name", "coeffs", "seeds", "description"),
            "Preset(name='fib', coeffs=(Fraction(1, 1), Fraction(1, 1)), "
            "seeds=(Fraction(0, 1), Fraction(1, 1)), description='')",
        ),
        (
            lambda: FormulaCheck(False, (2, 1), 0.5, 0.0, "entry"),
            ("matches", "first_mismatch", "max_error", "tolerance", "note"),
            "FormulaCheck(matches=False, first_mismatch=(2, 1), max_error=0.5, "
            "tolerance=0.0, note='entry')",
        ),
        (
            lambda: VerificationCheck("series", "pass", 0.0, "ok", {"k": 3}),
            ("check", "status", "residual", "detail", "inputs"),
            "VerificationCheck(check='series', status='pass', residual=0.0, "
            "detail='ok', inputs={'k': 3})",
        ),
        (
            lambda: Trapezoid(((F(1),),), RecurrenceSpec(ONE_ONE), SeedVector(ONE_ONE), "expansion"),
            ("rows", "spec", "seeds", "method"),
            "Trapezoid(rows=((Fraction(1, 1),),), "
            "spec=RecurrenceSpec(coeffs=(Fraction(1, 1), Fraction(1, 1))), "
            "seeds=SeedVector(values=(Fraction(1, 1), Fraction(1, 1))), method='expansion')",
        ),
        (
            lambda: RootSet((2.0, -1.0), (0.0, 1e-16), 0, True),
            ("roots", "residuals", "dominant_index", "dominance_unique", "precision"),
            "RootSet(roots=(2.0, -1.0), residuals=(0.0, 1e-16), dominant_index=0, "
            "dominance_unique=True, precision='standard')",
        ),
        (
            lambda: BinetWeights((0.5, -0.5, 0.0), 2, "standard"),
            ("weights", "degree", "precision"),
            "BinetWeights(weights=(0.5, -0.5, 0.0), degree=2, precision='standard')",
        ),
        (
            lambda: ConvergenceReport((1.0, 2.0), 2.0, 2.0, 0.0, True, 2, None),
            (
                "ratios", "final_estimate", "target", "abs_error", "converged",
                "k_used", "reason", "hypothesis_met",
            ),
            "ConvergenceReport(ratios=(1.0, 2.0), final_estimate=2.0, target=2.0, "
            "abs_error=0.0, converged=True, k_used=2, reason=None, hypothesis_met=True)",
        ),
    ]


RECORDS = _records()
IDS = [make().__class__.__name__ for make, _, _ in RECORDS]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def test_all_eleven_classes_are_covered():
    assert len({make().__class__ for make, _, _ in RECORDS}) == 11


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_repr_fields_and_match_args(make, names, text):
    record = make()
    assert repr(record) == text
    assert type(record).__match_args__ == names


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_equality_is_within_one_class(make, names, text):
    record = make()
    assert record == make()
    assert not record != make()
    assert record != _values(record, names)
    assert record != list(_values(record, names))
    for other_make, _, _ in RECORDS:
        other = other_make()
        if type(other) is not type(record):
            assert record != other and other != record


@pytest.mark.parametrize(
    "values, classes",
    [
        ((ONE_ONE,), (RecurrenceSpec, SeedVector)),
        (((F(1),), (F(0), F(1))), (SymbolicTerm, GeneratingFunction)),
        (("a", ONE_ONE, ONE_ONE, "b"), (Preset, Trapezoid)),
        ((True, None, 0.0, 0.0, "x"), (FormulaCheck, VerificationCheck, RootSet)),
    ],
)
def test_classes_holding_the_same_values_differ(values, classes):
    records = [cls(*values) for cls in classes]
    for i, left in enumerate(records):
        assert _values(left, type(left).__match_args__) == values
        for right in records[i + 1:]:
            assert left != right and right != left


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_equal_instances_hash_equal(make, names, text):
    if isinstance(make(), VerificationCheck):
        with pytest.raises(TypeError):  # its inputs dict is unhashable
            hash(make())
        assert hash(VerificationCheck("a", "pass", None, inputs=())) == hash(
            VerificationCheck("a", "pass", None, inputs=())
        )
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_records_are_frozen(make, names, text):
    record = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == text


def test_defaults():
    assert FormulaCheck(True, None, 0.0, 0.0).note == ""
    assert VerificationCheck("c", "skipped", None).detail == ""
    assert Preset("p", (1,), (0,)).description == ""
    assert RootSet((1.0,), (0.0,), 0, True).precision == "standard"
    report = ConvergenceReport((), None, 1.0, None, False, None, "no ratios")
    assert report.hypothesis_met is True
    first, second = VerificationCheck("a", "pass", 0.0), VerificationCheck("a", "pass", 0.0)
    assert first.inputs == {} and second.inputs == {}
    assert first.inputs is not second.inputs
    first.inputs["k"] = 1
    assert second.inputs == {} and VerificationCheck("b", "pass", 0.0).inputs == {}


def test_constructor_arguments():
    assert FormulaCheck(matches=True, first_mismatch=None, max_error=0.0, tolerance=0.0) == (
        FormulaCheck(True, None, 0.0, 0.0, "")
    )
    assert RootSet((1.0,), (0.0,), 0, True, precision="extended").precision == "extended"
    for call in (
        lambda: FormulaCheck(True, None, 0.0),  # missing tolerance
        lambda: FormulaCheck(True, None, 0.0, 0.0, "", "extra"),
        lambda: FormulaCheck(True, None, 0.0, 0.0, colour="red"),
        lambda: FormulaCheck(True, None, 0.0, 0.0, matches=False),
    ):
        with pytest.raises(TypeError):
            call()


def test_post_init_validates_and_normalises():
    with pytest.raises(InvalidSpecError):
        RecurrenceSpec(())
    gf = GeneratingFunction([1, F(1, 2)], [])
    assert gf.numerator == (F(1), F(1, 2))
    assert gf.denominator_tail == (F(0),)
    assert all(type(c) is F for c in gf.numerator + gf.denominator_tail)
    assert GeneratingFunction((), (0,)).numerator == (F(0),)
    with pytest.raises(ValueError):
        GeneratingFunction((1,), (1, 1))


def test_positional_match_patterns():
    match RecurrenceSpec(ONE_ONE):
        case RecurrenceSpec((a0, a1)):
            assert (a0, a1) == ONE_ONE
        case _:
            pytest.fail("RecurrenceSpec did not match")
    match FormulaCheck(False, 7, 2.0, 0.0):
        case FormulaCheck(True):
            pytest.fail("matched the wrong verdict")
        case FormulaCheck(False, position, error, _, note):
            assert (position, error, note) == (7, 2.0, "")
    match ConvergenceReport((1.0,), 1.0, 1.0, 0.0, True, 1, None):
        case ConvergenceReport(_, _, _, _, converged, _, _, hypothesis):
            assert (converged, hypothesis) == (True, True)
        case _:
            pytest.fail("ConvergenceReport did not match")
    match VerificationCheck("series", "fail", 1.0, inputs={"k": 2}):
        case VerificationCheck(name, "fail", residual, inputs={"k": k}):
            assert (name, residual, k) == ("series", 1.0, 2)
        case _:
            pytest.fail("VerificationCheck did not match")


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(make, names, text):
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, names[0], None)
    if isinstance(record, VerificationCheck):
        assert copy.deepcopy(record).inputs is not record.inputs


@pytest.mark.parametrize("make, names, text", RECORDS, ids=IDS)
def test_replace_returns_a_new_record(make, names, text):
    record = make()
    assert record.replace() == record
    last = names[-1]
    changed = record.replace(**{last: getattr(record, last)})
    assert changed == record and changed is not record
    with pytest.raises(TypeError):
        record.replace(not_a_field=1)
    assert repr(record) == text


def test_replace_runs_post_init():
    check = FormulaCheck(True, None, 0.0, 0.0)
    noted = check.replace(note="closed form")
    assert noted == FormulaCheck(True, None, 0.0, 0.0, "closed form")
    assert check.note == ""
    with pytest.raises(InvalidSpecError):
        RecurrenceSpec(ONE_ONE).replace(coeffs=())
    assert GeneratingFunction((1,), (0, 1)).replace(numerator=[2]).numerator == (F(2),)
