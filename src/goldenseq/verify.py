"""Cross-verification battery: every identity checked against an
independent computation of the same quantity.

`verify_all` computes three inputs once and shares them between the
checks: the root set with the seeds' Binet weights, the exact terms, and
the generating function with its trapezoid expansion.  Sharing them
joins no oracle pair; these pairs stay independent: roots vs.
coefficients (symmetric relations, defining identity), weights and roots
vs. exact terms (round trip), the closed Binet forms (which solve their
own radical roots, once per check) vs. exact terms, series vs. exact
terms, per-entry closed forms (built once per check) vs. the expansion,
its diagonal sums vs. exact terms, and exact term ratios vs. the
dominant root.  The row sums T(1)*R(1)^i share gf's T and R with the
expansion, so they check its products; series and diagonals check T.
The round trip and both Binet-form rows share one exact evaluator,
binet._roundtrip: it is checker code, like `compare`, and what each row
tests is what it passes in, the solved weights and roots or the closed
form's (weight, root) terms.

The rows are one ordered table of (name, degree, row): a row applies to
every degree or to the one given, and returns (verdict, residual,
detail), which one loop turns into VerificationChecks.  A check that
does not apply to the given input — repeated roots, degenerate specs,
degrees without closed forms, values past the float range, roots that
cannot be solved — is refused by the module that decides it, with a
PremiseError (or the roots' own RootConvergenceError), and the loop's
one try, which reads only those two base types, reports its row as
"skipped" with the refusal's message, never a fake pass.  Both ratio
rows read one ratio report, made by whichever runs first.
"""

import math
from functools import cache

from .analysis import (
    _check_nonzero,
    _ratio_report,
    golden_identity_check,
    golden_inverse_check,
    recover_cubic_conjugates,
)
from .binet import _closed_form, _cubic_note, _roundtrip, solve_weights
from .errors import PremiseError, RootConvergenceError
from .genfunc import build_genfunc, series_coefficients
from .numerics import STANDARD, arithmetic
from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _fraction, _scale, generate
from .reports import FormulaCheck, VerificationCheck, compare
from .roots import solve_roots, verify_symmetric_relations
from .trapezoid import (
    _expand,
    _row_sum_form,
    check_closed_form,
    check_row_recurrence,
    diagonal_sum,
)

TOL_RECOVERY = 1e-6
_STATUS = {True: "pass", False: "fail", None: "skipped"}


def _checked(check: FormulaCheck):
    """(verdict, residual, detail) of a check that wrote its own note."""
    return check.matches, check.max_error, check.note


def _compared(check: FormulaCheck, note="", at="k =", residual=True):
    """(verdict, residual, detail) of a `compare` result: the note while
    it matches, else where it first diverged."""
    if not check.matches:
        note = "first divergence at %s %d" % (at, check.first_mismatch)
    return check.matches, check.max_error if residual else None, note


def verify_all(
    spec: RecurrenceSpec,
    seeds: SeedVector,
    k_max: int = 40,
    rows: int = 8,
    precision: str = STANDARD,
) -> list:
    """Run every applicable cross-check; returns VerificationCheck rows.

    Statuses: "pass", "fail", "skipped" (with the reason in detail).
    The shared inputs are one `solve_roots`, one `solve_weights`, one
    `generate` of max(k_max, 60) + 2 terms (at least `rows`), one
    `build_genfunc`, whose series is checked and whose expansion of `rows`
    rows is the trapezoid, and one ratio report.  A row that needs a
    refused input is skipped with the refusal; a ValueError other than a
    PremiseError is a bug, and propagates.
    """
    _check_seeds(spec, seeds)
    arithmetic(precision)  # rejects an unknown precision up front
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if rows < 2:
        raise ValueError("rows must be >= 2 (row checks need adjacent pairs)")

    conv_k = max(k_max, 60)
    terms = generate(spec, seeds, max(conv_k + 2, rows))
    rootset = weights = None
    try:
        rootset = solve_roots(spec, precision)
        weights = solve_weights(spec, seeds, rootset)
    except (RootConvergenceError, PremiseError) as exc:
        refusal = exc  # raised again by each row that needs what is missing
    gf = build_genfunc(spec, seeds)
    trap = _expand(gf, spec, seeds, rows)

    def roots():
        if rootset is None:
            raise refusal
        return rootset

    def solved_weights():
        if weights is None:
            raise refusal
        return weights

    def inverse():
        check = golden_inverse_check(spec, roots())
        # a root at exactly 0 has an unbounded error, which JSON cannot hold
        residual = None if check.max_error == math.inf else check.max_error
        return check.matches, residual, check.note

    def constant_weight():
        # the probe is the residual x_n - sum of w_i r_i^n, the one
        # equation the weights were not fitted to; solve_weights refuses
        # a probe over its bound, so it passes here
        probe = float(abs(solved_weights().weights[-1]))
        return True, probe, "constant probe weight w_{n+1} must vanish"

    def roundtrip():
        trip = _roundtrip(solved_weights().weights[:-1], rootset.roots, terms[: k_max + 1])
        return _compared(trip, "exact terms vs. root-power evaluation for k <= %d" % k_max)

    def closed_binet(span):
        span = min(k_max, span)
        closed_weights, closed_roots = zip(*_closed_form(spec, seeds, precision))
        check = _roundtrip(closed_weights, closed_roots, terms[: span + 1])
        return _checked(_cubic_note(check, span)) if spec.degree == 3 else _compared(check)

    def series():
        check = compare(enumerate(series_coefficients(gf, k_max + 1)), terms)
        return _compared(check, "series of %s vs. the recurrence (exact)" % gf.display())

    def row_recurrence():
        violations = check_row_recurrence(trap)
        if violations:
            note = "first violation at (i, j) = (%d, %d)" % violations[0][:2]
            return False, float(len(violations)), note
        return True, 0.0, "every adjacent row pair"

    def row_sums():
        check = compare(
            enumerate(map(_row_sum_form(gf), range(rows))),
            (_fraction(sum(ints), den) for ints, den in map(_scale, trap.rows)),
        )
        note = "closed-form row sums vs. direct sums (exact)"
        return _compared(check, note, "row", residual=False)

    def diagonals():
        check = compare(((i, diagonal_sum(trap, i)) for i in range(rows)), terms)
        note = "diagonal sums reproduce the sequence (exact)"
        return _compared(check, note, "diagonal", residual=False)

    @cache
    def report():  # the ratio report both ratio rows read
        _check_nonzero(seeds)
        return _ratio_report(terms, conv_k, roots(), solved_weights)

    def ratios():
        conv = report()
        if not conv.hypothesis_met:  # then non-convergence is expected
            raise PremiseError(conv.reason, conv.abs_error)
        return conv.converged, conv.abs_error, conv.reason or "ratios reach the dominant root"

    def recovery():
        conv = report()
        if not conv.converged:
            raise PremiseError("needs a converged ratio limit and a solved root set")
        gamma, _, alpha = spec.coeffs
        pair = recover_cubic_conjugates(alpha, gamma, conv.final_estimate, precision)
        others = [z for j, z in enumerate(rootset.roots) if j != rootset.dominant_index]
        direct_err = max(abs(pair[0] - others[0]), abs(pair[1] - others[1]))
        swapped_err = max(abs(pair[0] - others[1]), abs(pair[1] - others[0]))
        err = float(min(direct_err, swapped_err))
        return err <= TOL_RECOVERY, err, "non-dominant roots recovered from the ratio limit"

    # (name, the one degree it applies to or None for every degree, row), in report order
    table = (
        ("symmetric_relations", None, lambda: _checked(verify_symmetric_relations(roots(), spec))),
        ("golden_identity_defining", None, lambda: _checked(golden_identity_check(spec, roots()))),
        ("golden_identity_inverse", 2, inverse),
        ("binet_constant_weight", None, constant_weight),
        ("recurrence_binet_roundtrip", None, roundtrip),
        ("binet_quadratic_closed_matches", 2, lambda: closed_binet(30)),
        ("binet_cubic_closed_matches", 3, lambda: closed_binet(20)),
        ("genfunc_series_roundtrip", None, series),
        ("trapezoid_closed_form", None, lambda: _checked(check_closed_form(trap))),
        ("trapezoid_row_recurrence", None, row_recurrence),
        ("trapezoid_row_sums", None, row_sums),
        ("trapezoid_diagonal_sums", None, diagonals),
        ("ratio_convergence", None, ratios),
        ("cubic_ratio_root_recovery", 3, recovery),
    )
    echo = {
        "coeffs": [str(c) for c in spec.coeffs],
        "seeds": [str(s) for s in seeds],
        "k_max": k_max,
        "rows": rows,
        "precision": precision,
    }
    checks = []
    for name, degree, row in table:
        if degree not in (None, spec.degree):
            continue
        try:
            verdict, residual, detail = row()
        except RootConvergenceError as exc:
            verdict, residual, detail = None, None, "roots unavailable: %s" % exc
        except PremiseError as exc:
            verdict, residual, detail = None, exc.residual, str(exc)
        checks.append(VerificationCheck(name, _STATUS[verdict], residual, detail, dict(echo)))
    return checks


def has_failures(checks) -> bool:
    return any(c.status == "fail" for c in checks)
