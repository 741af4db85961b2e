"""Small shared report records and `compare`, the one scan that checks
computed values against an oracle (no heavy imports)."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FormulaCheck:
    """Outcome of evaluating a closed formula against its oracle.

    first_mismatch is the first divergent position: an index k for
    sequence formulas, an (i, j) pair for trapezoid entries, None when
    everything matched.
    """

    matches: bool
    first_mismatch: object
    max_error: float
    tolerance: float
    note: str = ""


@dataclass(frozen=True)
class VerificationCheck:
    """One line of a verification report; field names are stable."""

    check: str
    status: str  # "pass" | "fail" | "skipped"
    residual: float | None
    detail: str = ""
    inputs: dict = field(default_factory=dict)


def compare(values, oracle, error=lambda a, b: 0 if a == b else abs(a - b), tolerance=0.0):
    """FormulaCheck of (position, value) pairs against the oracle values.

    error(value, expected) defaults to the exact |a - b|, skipping the
    subtraction and its gcd when the values are equal.  The first
    position whose error exceeds tolerance is the mismatch; max_error is
    the largest error over all positions.  The caller writes the note.
    """
    first_bad = None
    max_err = 0.0
    for (position, value), expected in zip(values, oracle):
        err = error(value, expected)
        max_err = max(max_err, float(err))
        if err > tolerance and first_bad is None:
            first_bad = position
    return FormulaCheck(first_bad is None, first_bad, max_err, tolerance)
