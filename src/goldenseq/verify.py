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
Checks that do not apply to the given input — repeated roots, degenerate
specs, degrees without closed forms, roots that cannot be solved —
report status "skipped" with the reason, never a fake pass.
"""

import math
from fractions import Fraction

from .analysis import (
    _check_nonzero,
    _ratio_report,
    golden_identity_check,
    golden_inverse_check,
    recover_cubic_conjugates,
)
from .binet import _closed_form, _cubic_note, _roundtrip, _scan, solve_weights
from .errors import DegenerateSpectrumError, RootConvergenceError, UnitRootError
from .genfunc import build_genfunc, series_coefficients
from .numerics import STANDARD, arithmetic
from .recurrence import RecurrenceSpec, SeedVector, _check_seeds, _scale, generate
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


def _quadratic_note(check: FormulaCheck, k_max: int) -> FormulaCheck:
    if check.matches:
        return check
    return check.replace(note="first divergence at k = %d" % check.first_mismatch)


# degree: (row name, largest k scanned, note writer) of the closed Binet row
_CLOSED_BINET = {
    2: ("binet_quadratic_closed_matches", 30, _quadratic_note),
    3: ("binet_cubic_closed_matches", 20, _cubic_note),
}


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
    `generate` of max(k_max, 60) + 2 terms (at least `rows`) and one
    `build_genfunc`, whose series is checked and whose expansion of `rows`
    rows is the trapezoid.  When the roots cannot be solved,
    every row that needs them is skipped with "roots unavailable: ...".
    """
    _check_seeds(spec, seeds)
    arithmetic(precision)  # rejects an unknown precision up front
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if rows < 2:
        raise ValueError("rows must be >= 2 (row checks need adjacent pairs)")

    echo = {
        "coeffs": [str(c) for c in spec.coeffs],
        "seeds": [str(s) for s in seeds],
        "k_max": k_max,
        "rows": rows,
        "precision": precision,
    }
    checks: list = []

    def add(name, ok, residual=None, detail=""):
        status = {True: "pass", False: "fail", None: "skipped"}[ok]
        checks.append(VerificationCheck(name, status, residual, detail, dict(echo)))

    def add_check(name, check):
        add(name, check.matches, check.max_error, check.note)

    def add_scan(name, check, note, at="k =", residual=True):
        if not check.matches:
            note = "first divergence at %s %d" % (at, check.first_mismatch)
        add(name, check.matches, check.max_error if residual else None, note)

    conv_k = max(k_max, 60)
    terms = generate(spec, seeds, max(conv_k + 2, rows))
    rootset = weights = None
    try:
        rootset = solve_roots(spec, precision)
    except RootConvergenceError as exc:
        root_note = weight_note = "roots unavailable: %s" % exc
    else:
        try:
            weights = solve_weights(spec, seeds, rootset)
        except DegenerateSpectrumError as exc:
            weight_note = str(exc)

    # --- root-level identities -------------------------------------
    if rootset is None:
        for name in ("symmetric_relations", "golden_identity_defining"):
            add(name, None, detail=root_note)
        if spec.degree == 2:
            add("golden_identity_inverse", None, detail=root_note)
    else:
        add_check("symmetric_relations", verify_symmetric_relations(rootset, spec))
        add_check("golden_identity_defining", golden_identity_check(spec, rootset))
        if spec.degree == 2:
            try:
                check = golden_inverse_check(spec, rootset)
            except ValueError as exc:
                note = "reciprocal identity skipped: %s" % exc
                add("golden_identity_inverse", None, detail=note)
            else:
                # a root at exactly 0 has an unbounded error, which JSON cannot hold
                residual = None if check.max_error == math.inf else check.max_error
                add("golden_identity_inverse", check.matches, residual, check.note)

    # --- Binet weights and round trip -------------------------------
    if weights is None:
        for name in ("binet_constant_weight", "recurrence_binet_roundtrip"):
            add(name, None, detail=weight_note)
    else:
        # the probe is the residual x_n - sum of w_i r_i^n, the one
        # equation the weights were not fitted to; solve_weights refuses
        # a probe over its bound, so it passes here
        add(
            "binet_constant_weight",
            True,
            float(abs(weights.weights[-1])),
            "constant probe weight w_{n+1} must vanish",
        )
        trip = _roundtrip(weights, rootset.roots, terms[: k_max + 1], precision)
        note = "exact terms vs. root-power evaluation for k <= %d" % k_max
        add_scan("recurrence_binet_roundtrip", trip, note)

    # --- closed Binet forms -----------------------------------------
    if spec.degree in _CLOSED_BINET:
        name, span, write_note = _CLOSED_BINET[spec.degree]
        span = min(k_max, span)
        try:
            at, closed_roots = _closed_form(spec, seeds, precision)
        except (DegenerateSpectrumError, UnitRootError) as exc:
            add(name, None, detail=str(exc))
        else:
            check = _scan(at, closed_roots, terms[: span + 1], precision)
            add_check(name, write_note(check, span))

    # --- generating function ----------------------------------------
    gf = build_genfunc(spec, seeds)
    series = compare(enumerate(series_coefficients(gf, k_max + 1)), terms)
    note = "series of %s vs. the recurrence (exact)" % gf.display()
    add_scan("genfunc_series_roundtrip", series, note)

    # --- trapezoid ----------------------------------------------------
    trap = _expand(gf, spec, seeds, rows)
    if spec.degree in (2, 3):
        add_check("trapezoid_closed_form", check_closed_form(trap))
    else:
        add(
            "trapezoid_closed_form",
            None,
            detail="per-entry closed forms exist only for degrees 2 and 3",
        )
    violations = check_row_recurrence(trap)
    add(
        "trapezoid_row_recurrence",
        not violations,
        float(len(violations)),
        "every adjacent row pair"
        if not violations
        else "first violation at (i, j) = (%d, %d)" % violations[0][:2],
    )
    sums = compare(
        enumerate(map(_row_sum_form(gf), range(rows))),
        (Fraction(sum(ints), den) for ints, den in map(_scale, trap.rows)),
    )
    note = "closed-form row sums vs. direct sums (exact)"
    add_scan("trapezoid_row_sums", sums, note, "row", residual=False)
    diagonals = compare(((i, diagonal_sum(trap, i)) for i in range(rows)), terms)
    note = "diagonal sums reproduce the sequence (exact)"
    add_scan("trapezoid_diagonal_sums", diagonals, note, "diagonal", residual=False)

    # --- convergence and root recovery -------------------------------
    conv = None
    try:
        _check_nonzero(seeds)
    except ValueError as exc:
        add("ratio_convergence", None, detail=str(exc))
    else:
        if rootset is None:
            add("ratio_convergence", None, detail=root_note)
        else:
            conv = _ratio_report(terms, conv_k, rootset, lambda: weights)
            add(
                "ratio_convergence",
                conv.converged if conv.hypothesis_met else None,  # else non-convergence is expected
                conv.abs_error,
                conv.reason or "ratios reach the dominant root",
            )
    if spec.degree == 3:
        if conv is not None and conv.converged:
            gamma, _, alpha = spec.coeffs
            pair = recover_cubic_conjugates(alpha, gamma, conv.final_estimate, precision)
            others = [
                z
                for j, z in enumerate(rootset.roots)
                if j != rootset.dominant_index
            ]
            direct_err = max(abs(pair[0] - others[0]), abs(pair[1] - others[1]))
            swapped_err = max(abs(pair[0] - others[1]), abs(pair[1] - others[0]))
            err = float(min(direct_err, swapped_err))
            add(
                "cubic_ratio_root_recovery",
                err <= TOL_RECOVERY,
                err,
                "non-dominant roots recovered from the ratio limit",
            )
        else:
            add(
                "cubic_ratio_root_recovery",
                None,
                detail=root_note
                if rootset is None
                else "needs a converged ratio limit and a solved root set",
            )
    return checks


def has_failures(checks) -> bool:
    return any(c.status == "fail" for c in checks)
