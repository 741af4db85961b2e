"""Acceptance gate: the eight properties the package promises, each with
pinned values, pinned tolerances, and a runtime budget.

Every test wraps its body in the `criterion` fixture (tests/conftest.py),
which prints one PASS/FAIL line per criterion in the terminal summary.
"""

import random
from fractions import Fraction

import goldenseq.trapezoid as trapezoid_module
from goldenseq import (
    binet_eval,
    build_closed_form,
    build_expansion,
    build_genfunc,
    check_closed_form,
    check_row_recurrence,
    diagonal_sum,
    generate,
    load_presets,
    make_seeds,
    make_spec,
    nearest_integer,
    ratio_convergence,
    row_sum,
    series_coefficients,
    solve_roots,
    solve_weights,
    term_at,
)
from goldenseq.errors import (
    DegenerateSpectrumError,
    RootConvergenceError,
    UnitRootError,
)


def _preset(name):
    preset = load_presets()[name]
    return make_spec(preset.coeffs), make_seeds(preset.seeds)


def test_criterion_1_sequence_reproduction(criterion):
    with criterion(1, "presets reproduce their opening terms byte-exactly", 1.0):
        pinned = {
            "fibonacci": "0 1 1 2 3 5",
            "lucas": "2 1 3 4 7 11",
            "tribonacci": "0 1 1 2 4 7 13 24 44 81 149",
        }
        for name, expected in pinned.items():
            spec, seeds = _preset(name)
            terms = generate(spec, seeds, len(expected.split()))
            assert " ".join(str(t) for t in terms) == expected, name


def test_criterion_2_golden_numbers(criterion):
    with criterion(2, "characteristic roots hit the pinned golden numbers", 1.0):
        golden = solve_roots(make_spec((1, 1)))
        assert abs(golden.roots[0] - 1.6180339887) <= 1e-9

        silver = solve_roots(make_spec((1, 2)))
        assert abs(silver.roots[0] - 2.414213562) <= 1e-8

        tri = solve_roots(make_spec((1, 1, 1)))
        assert abs(tri.roots[0] - 1.839286755) <= 1e-8
        below, above = sorted(tri.roots[1:], key=lambda z: z.imag)
        assert abs(above.real - (-0.4196433776)) <= 1e-8
        assert abs(above.imag - 0.6062907292) <= 1e-8
        assert abs(below.real - (-0.4196433776)) <= 1e-8
        assert abs(below.imag - (-0.6062907292)) <= 1e-8


# The four six-row tables the expansion must reproduce entry-for-entry.
TRAPEZOID_TABLES = {
    "fibonacci": [
        [0, 1],
        [0, 1, 1],
        [0, 1, 2, 1],
        [0, 1, 3, 3, 1],
        [0, 1, 4, 6, 4, 1],
        [0, 1, 5, 10, 10, 5, 1],
    ],
    "lucas": [
        [2, -1],
        [2, 1, -1],
        [2, 3, 0, -1],
        [2, 5, 3, -1, -1],
        [2, 7, 8, 2, -2, -1],
        [2, 9, 15, 10, 0, -3, -1],
    ],
    "pell": [
        [0, 1],
        [0, 2, 1],
        [0, 4, 4, 1],
        [0, 8, 12, 6, 1],
        [0, 16, 32, 24, 8, 1],
        [0, 32, 80, 80, 40, 10, 1],
    ],
    "tribonacci": [
        [0, 1, 0],
        [0, 1, 1, 1, 0],
        [0, 1, 2, 3, 2, 1, 0],
        [0, 1, 3, 6, 7, 6, 3, 1, 0],
        [0, 1, 4, 10, 16, 19, 16, 10, 4, 1, 0],
        [0, 1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1, 0],
    ],
}


def test_criterion_3_trapezoid_tables(criterion):
    with criterion(3, "expansion rebuilds all four pinned trapezoid tables", 1.0):
        for name, expected in TRAPEZOID_TABLES.items():
            spec, seeds = _preset(name)
            trapezoid = build_expansion(spec, seeds, 6)
            got = [[int(v) for v in row] for row in trapezoid.rows]
            assert got == expected, name


def test_criterion_4_closed_form_oracle_equivalence(criterion, monkeypatch):
    with criterion(4, "per-entry closed forms agree with the expansion", 10.0):
        rng = random.Random(42)
        for _ in range(200):
            coeffs = [
                Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2)))
                for _ in range(2)
            ]
            seeds = [Fraction(rng.randrange(-6, 7)) for _ in range(2)]
            rows = rng.randrange(2, 9)
            spec, sv = make_spec(coeffs), make_seeds(seeds)
            assert build_closed_form(spec, sv, rows).rows == \
                build_expansion(spec, sv, rows).rows

        spec, sv = _preset("tribonacci")
        report = check_closed_form(build_expansion(spec, sv, 8))
        assert report.matches, "cubic per-entry formula diverged: %s" % report.note

        # a divergence, when forced, must be named by its first (i, j) --
        # silent absorption would defeat the whole cross-check
        real = trapezoid_module._closed_form

        def crooked(spec, seeds):
            entry = real(spec, seeds)
            return lambda i, j: entry(i, j) + ((i, j) == (4, 2))

        monkeypatch.setattr(trapezoid_module, "_closed_form", crooked)
        forced = check_closed_form(build_expansion(spec, sv, 8))
        assert not forced.matches
        assert forced.first_mismatch == (4, 2)
        assert "(4, 2)" in forced.note


def test_criterion_5_binet_properties(criterion):
    with criterion(5, "probe weight vanishes and rounding recovers terms", 10.0):
        rng = random.Random(5)
        solved = attempts = 0
        while solved < 100:
            attempts += 1
            assert attempts < 2000, "solvable instances should be plentiful"
            degree = rng.randrange(2, 5)
            coeffs = [rng.randrange(-3, 4) for _ in range(degree)]
            seedvals = [rng.randrange(-3, 4) for _ in range(degree)]
            if all(s == 0 for s in seedvals):
                continue
            spec, seeds = make_spec(coeffs), make_seeds(seedvals)
            try:
                rootset = solve_roots(spec)
                weights = solve_weights(spec, seeds, rootset)
            except (
                DegenerateSpectrumError,
                UnitRootError,
                RootConvergenceError,
            ):
                continue
            assert abs(weights.weights[-1]) <= 1e-9
            solved += 1

        # 1e15-scale terms need more headroom than a double: the rounding
        # guarantee holds in the extended mode (exact well past k = 40)
        for name in ("fibonacci", "lucas", "pell", "tribonacci"):
            spec, seeds = _preset(name)
            rootset = solve_roots(spec, "extended")
            weights = solve_weights(spec, seeds, rootset)
            for k in range(41):
                value = binet_eval(weights, rootset, k)
                assert nearest_integer(value) == term_at(spec, seeds, k), (name, k)

        spec, seeds = _preset("lucas")
        w = solve_weights(spec, seeds, solve_roots(spec)).weights
        assert abs(w[0] - 1) <= 1e-9
        assert abs(w[1] - 1) <= 1e-9
        assert abs(w[2]) <= 1e-9


def test_criterion_6_genfunc_round_trip(criterion):
    with criterion(6, "generating-function series equal the recurrence", 5.0):
        rng = random.Random(6)
        for _ in range(200):
            degree = rng.randrange(2, 6)
            coeffs = [
                Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 1, 2)))
                for _ in range(degree)
            ]
            seeds = [Fraction(rng.randrange(-5, 6)) for _ in range(degree)]
            spec, sv = make_spec(coeffs), make_seeds(seeds)
            gf = build_genfunc(spec, sv)
            assert list(series_coefficients(gf, 20)) == list(generate(spec, sv, 20))

        fib = build_genfunc(*_preset("fibonacci"))
        assert fib.display() == "z/(1 - z - z^2)"


def test_criterion_7_trapezoid_identity_suite(criterion):
    with criterion(7, "row recurrence, row sums, and diagonal sums hold", 20.0):
        rng = random.Random(7)
        for _ in range(100):
            degree = rng.randrange(2, 6)
            coeffs = [Fraction(rng.randrange(-4, 5)) for _ in range(degree)]
            seeds = [Fraction(rng.randrange(-5, 6)) for _ in range(degree)]
            rows = rng.randrange(2, 11)
            spec, sv = make_spec(coeffs), make_seeds(seeds)
            trapezoid = build_expansion(spec, sv, rows)
            assert check_row_recurrence(trapezoid) == []
            for i in range(rows):
                assert row_sum(i, spec, sv) == sum(trapezoid.rows[i], Fraction(0))
                assert diagonal_sum(trapezoid, i) == term_at(spec, sv, i)

        spec, sv = _preset("fibonacci")
        for i in range(11):
            assert row_sum(i, spec, sv) == 2**i


def test_criterion_8_ratio_convergence(criterion):
    with criterion(8, "term ratios reach the dominant root by k = 60", 1.0):
        targets = {
            "fibonacci": 1.618033988749895,
            "lucas": 1.618033988749895,
            "pell": 2.414213562373095,
            "tribonacci": 1.8392867552141611,
        }
        for name, target in targets.items():
            spec, seeds = _preset(name)
            report = ratio_convergence(spec, seeds, 60)
            assert report.converged, name
            assert report.k_used <= 60
            assert abs(report.final_estimate - target) <= 1e-8, name

        tied = ratio_convergence(make_spec((-1, 0)), make_seeds((1, 1)), 60)
        assert not tied.converged
        assert not tied.hypothesis_met
        assert "tie" in tied.reason
