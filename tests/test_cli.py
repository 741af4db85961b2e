"""End-to-end command-line tests driven through main()."""

import csv
import io
import json
import sys

import pytest

import goldenseq as gs
from goldenseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- seq/term


def test_seq_text(capsys):
    code, out, err = run(capsys, "seq", "--preset", "fibonacci", "--count", "6")
    assert code == 0
    assert err == ""
    assert out == "0\n1\n1\n2\n3\n5\n"


def test_seq_count_zero_prints_nothing(capsys):
    code, out, err = run(capsys, "seq", "--preset", "fibonacci", "--count", "0")
    assert code == 0
    assert out == ""


def test_seq_csv(capsys):
    code, out, _ = run(
        capsys, "seq", "--preset", "lucas", "--count", "6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["2", "1", "3", "4", "7", "11"]]


def test_seq_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "seq", "--preset", "tribonacci", "--count", "11", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1", "1", "1"]
    assert payload["seeds"] == ["0", "1", "1"]
    assert payload["terms"] == [
        "0", "1", "1", "2", "4", "7", "13", "24", "44", "81", "149",
    ]


def test_seq_explicit_rational_coeffs(capsys):
    code, out, _ = run(
        capsys, "seq", "--coeffs", "1/2,1/2", "--seeds", "1,2", "--count", "4"
    )
    assert code == 0
    assert out.splitlines() == ["1", "2", "3/2", "7/4"]


def test_term_large_index_exact(capsys):
    code, out, _ = run(capsys, "term", "--preset", "fibonacci", "--k", "50")
    assert code == 0
    assert out == "12586269025\n"


def test_term_json(capsys):
    code, out, _ = run(
        capsys, "term", "--preset", "fibonacci", "--k", "100", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["k"] == 100
    assert payload["term"] == "354224848179261915075"


@pytest.fixture
def int_str_limit():
    """Python's default limit on int-to-str digits, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_term_prints_exact_values_of_any_length(capsys, int_str_limit):
    # F_30000 has 6,270 digits, past the limit
    code, out, err = run(capsys, "term", "--preset", "fibonacci", "--k", "30000")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == int_str_limit
    assert len(out) == 6271
    value = gs.term_at(gs.make_spec([1, 1]), gs.make_seeds([0, 1]), 30000)
    sys.set_int_max_str_digits(0)  # to print the reference; the fixture restores the limit
    assert out == "%s\n" % value


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("term", "--preset", "fibonacci", "--k", "-3"), 2),
        (("seq", "--preset", "nope"), 2),
        (("verify", "--preset", "tribonacci"), 1),
    ],
)
def test_main_leaves_the_int_str_limit_as_it_found_it(capsys, int_str_limit, argv, expected):
    assert run(capsys, *argv)[0] == expected
    assert sys.get_int_max_str_digits() == int_str_limit


# ----------------------------------------------------------------- roots


def test_roots_text_marks_dominant(capsys):
    code, out, _ = run(capsys, "roots", "--coeffs", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert "1.618033988749895" in lines[0]
    assert "<- dominant" in lines[0]
    assert lines[-1] == "dominance: unique"


def test_roots_text_reports_tie(capsys):
    code, out, _ = run(capsys, "roots", "--coeffs=-1,0")
    assert code == 0
    assert "tied largest modulus" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--preset", "tribonacci", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["dominant_index"] == 0
    assert payload["dominance_unique"] is True
    assert payload["roots"][0]["re"] == pytest.approx(1.8392867552141611, abs=1e-12)
    assert payload["roots"][0]["im"] == 0.0
    assert all(r < 1e-9 for r in payload["residuals"])


def test_roots_extended_json_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "roots", "--coeffs", "1,1", "--precision", "extended",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["precision"] == "extended"
    dominant = payload["roots"][0]["re"]
    assert isinstance(dominant, str)
    assert dominant.startswith("1.6180339887498948482")


# ----------------------------------------------------------------- binet


def test_binet_text_rounds_to_term(capsys):
    code, out, _ = run(capsys, "binet", "--preset", "fibonacci", "--k", "10")
    assert code == 0
    assert "rounded = 55" in out
    assert "constant probe" in out


def test_binet_json(capsys):
    code, out, _ = run(
        capsys, "binet", "--preset", "lucas", "--k", "9", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["rounded"] == "76"
    assert payload["weights"][0]["re"] == pytest.approx(1.0, abs=1e-9)
    assert payload["weights"][1]["re"] == pytest.approx(1.0, abs=1e-9)
    assert abs(payload["constant"]["re"]) < 1e-9


def test_binet_unit_root_prints_its_weights(capsys):
    # x^2 = x has the distinct roots 1 and 0: x_k = 1^k - 0^k
    code, out, err = run(capsys, "binet", "--coeffs", "0,1", "--seeds", "0,1", "--k", "5")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "w[0] = 1.0",
        "w[1] = -1.0",
        "constant probe = 0.0",
        "value(k=5) = 1.0",
        "rounded = 1",
    ]


# ----------------------------------------------------------------- genfunc


def test_genfunc_text_display(capsys):
    code, out, _ = run(capsys, "genfunc", "--preset", "fibonacci")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f(z) = z/(1 - z - z^2)"
    assert lines[1] == "series: 0, 1, 1, 2, 3, 5, 8, 13"


def test_genfunc_json(capsys):
    code, out, _ = run(
        capsys, "genfunc", "--preset", "lucas", "--count", "5", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["display"] == "(2 - z)/(1 - z - z^2)"
    assert payload["series"] == ["2", "1", "3", "4", "7"]


# ----------------------------------------------------------------- trapezoid


def test_trapezoid_text_rows(capsys):
    code, out, _ = run(capsys, "trapezoid", "--preset", "pell", "--rows", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "0 1"
    assert lines[-1] == "0 8 12 6 1"


def test_trapezoid_closed_method_agrees(capsys):
    code, expansion, _ = run(
        capsys, "trapezoid", "--preset", "tribonacci", "--rows", "5"
    )
    assert code == 0
    code, closed, _ = run(
        capsys, "trapezoid", "--preset", "tribonacci", "--rows", "5",
        "--method", "closed",
    )
    assert code == 0
    assert closed == expansion


def test_trapezoid_json(capsys):
    code, out, _ = run(
        capsys, "trapezoid", "--preset", "fibonacci", "--rows", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "expansion"
    assert payload["rows"] == [["0", "1"], ["0", "1", "1"], ["0", "1", "2", "1"]]


# ----------------------------------------------------------------- rowsum


def test_rowsum_text_doubles_for_fibonacci(capsys):
    code, out, _ = run(capsys, "rowsum", "--preset", "fibonacci", "--rows", "5")
    assert code == 0
    assert out.splitlines() == [
        "row 0: 1", "row 1: 2", "row 2: 4", "row 3: 8", "row 4: 16",
    ]


def test_rowsum_csv(capsys):
    code, out, _ = run(
        capsys, "rowsum", "--preset", "lucas", "--rows", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 and len(rows[0]) == 4


# ----------------------------------------------------------------- converge


def test_converge_text_fibonacci(capsys):
    code, out, _ = run(capsys, "converge", "--preset", "fibonacci")
    assert code == 0
    assert "converged = yes" in out
    assert "1.618033988749" in out


def test_converge_text_tied_dominance(capsys):
    code, out, _ = run(capsys, "converge", "--coeffs=-1,0", "--seeds", "1,1")
    assert code == 0
    assert "converged = no" in out
    assert "tie" in out


def test_converge_json(capsys):
    code, out, _ = run(
        capsys, "converge", "--preset", "pell", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["converged"] is True
    assert payload["hypothesis_met"] is True
    assert payload["final_estimate"] == pytest.approx(2.414213562373095, abs=1e-8)


# ----------------------------------------------------------------- verify


def test_verify_fibonacci_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "fibonacci")
    assert code == 0
    assert "fail" not in out


def test_verify_tribonacci_flags_cubic_formula(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "tribonacci")
    assert code == 1
    failing = [
        line for line in out.splitlines() if line.startswith("fail")
    ]
    assert len(failing) == 1
    assert "binet_cubic_closed_matches" in failing[0]


def test_verify_json_statuses(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "fibonacci", "--format", "json"
    )
    checks = json.loads(out)
    assert code == 0
    assert {c["status"] for c in checks} <= {"pass", "skipped"}
    names = [c["check"] for c in checks]
    assert "symmetric_relations" in names
    assert "trapezoid_diagonal_sums" in names


# ----------------------------------------------------------------- presets


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert "fibonacci" in out
    assert "[builtin]" in out


def test_presets_json(capsys):
    code, out, _ = run(capsys, "presets", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload) == 4
    assert all(entry["builtin"] for entry in payload)


def test_presets_file_flows_through(capsys, tmp_path):
    path = tmp_path / "extra.conf"
    path.write_text("[quadranacci]\ncoeffs = 1, 1, 1, 1\nseeds = 0, 1, 1, 2\n")
    code, out, _ = run(
        capsys, "seq", "--preset", "quadranacci", "--presets-file", str(path),
        "--count", "8",
    )
    assert code == 0
    assert out.splitlines() == ["0", "1", "1", "2", "4", "8", "15", "29"]


# ----------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--coeffs", "1,x", "--seeds", "0,1"),
        ("seq", "--coeffs", "1,1"),  # missing seeds
        ("seq", "--coeffs", "1,1", "--seeds", "0,1,2"),  # length mismatch
        ("seq", "--preset", "nope"),
        ("seq", "--preset", "fibonacci", "--coeffs", "1,1"),
        ("seq", "--preset", "fibonacci", "--count", "-1"),
        ("term", "--preset", "fibonacci", "--k", "-3"),
        ("binet", "--coeffs=-1,2", "--seeds", "1,1"),  # repeated root
        ("trapezoid", "--coeffs", "1,1,1,1", "--seeds", "0,1,1,2", "--method", "closed"),
        ("verify", "--preset", "fibonacci", "--k", "0"),
        ("converge", "--coeffs", "0,0", "--seeds", "0,0"),
        # float(Fraction) overflows on these specs; that is a domain error,
        # not verify's "a check failed"
        ("roots", "--coeffs=%d,1" % 10**400, "--seeds", "0,1"),
        ("binet", "--coeffs=%d,1" % 10**400, "--seeds", "0,1"),
        ("converge", "--coeffs=%d,1" % 10**700, "--seeds", "0,1", "--precision", "extended"),
    ],
)
def test_domain_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_extended_radical_roots_past_the_gate_exit_2(capsys):
    # x^2 = x + 10^400: |p| at the roots, about 10^200, is past the float range
    code, out, err = run(capsys, "roots", "--coeffs=%d,1" % 10**400, "--precision", "extended")
    assert (code, out, err) == (2, "", "error: root residuals exceed tolerance inf\n")


def test_verify_skips_the_rows_of_refused_radical_roots(capsys):
    # x^2 = x + 10^700: the shared roots and the closed form's own roots are
    # refused by the residual gate, so their rows are skipped, exit 0
    argv = ("verify", "--coeffs=%d,1" % 10**700, "--seeds", "0,1", "--precision", "extended")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    rows = {line.split()[1]: line for line in out.splitlines()}
    for name in (
        "symmetric_relations",
        "golden_identity_defining",
        "golden_identity_inverse",
        "binet_constant_weight",
        "recurrence_binet_roundtrip",
        "binet_quadratic_closed_matches",
        "ratio_convergence",
    ):
        assert rows.pop(name) == "skipped %s  roots unavailable: root residuals exceed tolerance inf" % name
    assert all(line.startswith("pass ") for line in rows.values())


def test_verify_skips_the_rows_past_the_float_range(capsys):
    # x^2 = x + 10^400 in standard: complex() refuses 10^400 where the shared
    # roots and the closed form's own roots form it, so their rows are
    # skipped with that refusal, exit 0
    code, out, err = run(capsys, "verify", "--coeffs=%d,1" % 10**400, "--seeds", "0,1")
    assert (code, err) == (0, "")
    rows = {line.split()[1]: line for line in out.splitlines()}
    for name in (
        "symmetric_relations",
        "golden_identity_defining",
        "golden_identity_inverse",
        "binet_constant_weight",
        "recurrence_binet_roundtrip",
        "binet_quadratic_closed_matches",
        "ratio_convergence",
    ):
        assert rows.pop(name) == "skipped %s  value outside the float range of standard precision" % name
    assert all(line.startswith("pass ") for line in rows.values())


def test_standard_cubic_discriminant_past_the_float_range_exits_2(capsys):
    # x^3 = 10^120 x + 1: the exact discriminant, about -1.1e362, has no float
    code, out, err = run(capsys, "roots", "--coeffs=1,%d,0" % 10**120)
    assert (code, out, err) == (2, "", "error: value outside the float range of standard precision\n")


@pytest.mark.parametrize("precision", ("standard", "extended"))
@pytest.mark.parametrize("command", (["roots"], ["binet", "--seeds=0,0,0,1", "--k", "5"]))
def test_overflowed_roots_exit_2(capsys, command, precision):
    # the root iteration overflows on this spec; nothing may be printed
    coeffs = "--coeffs=%d,0,0,1" % 10**80
    code, out, err = run(capsys, command[0], coeffs, *command[1:], "--precision", precision)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("precision, shown", [("standard", "1e+100"), ("extended", "1.0e+100")])
def test_roots_past_the_float_range_of_the_gate_are_printed(capsys, precision, shown):
    # x^4 = 10^100 x^3: the roots 10^100, 0, 0, 0 are exact, and the gate
    # 1e-10 * (10^100)^4 is past the float range, so it is inf, not an error
    coeffs = "--coeffs=0,0,0,%d" % 10**100
    code, out, err = run(capsys, "roots", coeffs, "--precision", precision)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "root[0] = %s  (residual 0.000e+00)  <- dominant" % shown


@pytest.mark.parametrize("precision, shown", [("standard", "1e+200"), ("extended", "1.0e+200")])
def test_zero_roots_beside_a_root_past_the_float_range_are_printed(capsys, precision, shown):
    # x^4 = 10^200 x^3: |p| = |z|^3 |q| at the root 10^200, and |q| = 0
    # there, so the residual is 0 without forming (10^200)^3 in floats
    coeffs = "--coeffs=0,0,0,%d" % 10**200
    code, out, err = run(capsys, "roots", coeffs, "--precision", precision)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "root[0] = %s  (residual 0.000e+00)  <- dominant" % shown


def test_unknown_preset_lists_known_names(capsys):
    code, _, err = run(capsys, "seq", "--preset", "nope")
    assert code == 2
    assert "fibonacci" in err and "tribonacci" in err


def test_shadowing_presets_file_exits_2(capsys, tmp_path):
    path = tmp_path / "shadow.conf"
    path.write_text("[lucas]\ncoeffs = 1, 1\nseeds = 2, 1\n")
    code, _, err = run(
        capsys, "seq", "--preset", "lucas", "--presets-file", str(path)
    )
    assert code == 2
    assert "shadow" in err


def test_usage_error_exits_2(capsys):
    assert run(capsys, "seq", "--format", "yaml")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "not-a-command")[0] == 2


def test_seeds_without_coeffs_exit_2(capsys):
    code, out, err = run(capsys, "seq", "--seeds", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: give --coeffs (plus --seeds) or --preset\n"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "goldenseq 0.1.0"


# ----------------------------------------------------------------- invariants


JSON_COMMANDS = [
    ("seq", "--preset", "fibonacci", "--format", "json"),
    ("term", "--preset", "lucas", "--k", "7", "--format", "json"),
    ("roots", "--preset", "tribonacci", "--format", "json"),
    ("binet", "--preset", "fibonacci", "--k", "12", "--format", "json"),
    ("genfunc", "--preset", "pell", "--format", "json"),
    ("trapezoid", "--preset", "pell", "--rows", "4", "--format", "json"),
    ("rowsum", "--preset", "fibonacci", "--rows", "6", "--format", "json"),
    ("converge", "--preset", "fibonacci", "--format", "json"),
    ("verify", "--preset", "fibonacci", "--format", "json"),
    ("presets", "--format", "json"),
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: a[0])
def test_every_command_emits_parseable_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--coeffs", "1,1,1", "--format", "json"),
        ("verify", "--preset", "tribonacci", "--format", "json"),
        ("seq", "--preset", "pell", "--count", "20"),
    ],
    ids=("roots", "verify", "seq"),
)
def test_repeat_runs_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
