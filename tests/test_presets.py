"""Preset catalog and the sectioned key-value file format."""

from fractions import Fraction
from pathlib import Path

import pytest

import goldenseq as gs
from goldenseq.errors import PresetError
from goldenseq.presets import parse_preset_file, parse_rational_list


def test_builtin_catalog():
    catalog = gs.load_presets()
    assert sorted(catalog) == ["fibonacci", "lucas", "pell", "tribonacci"]
    assert catalog["fibonacci"].coeffs == (1, 1)
    assert catalog["fibonacci"].seeds == (0, 1)
    assert catalog["lucas"].seeds == (2, 1)
    assert catalog["pell"].coeffs == (1, 2)  # x_{k+2} = 2 x_{k+1} + x_k
    assert catalog["tribonacci"].coeffs == (1, 1, 1)


def test_parse_rational_accepts_exact_forms():
    assert gs.parse_rational("42") == 42
    assert gs.parse_rational("-7/2") == Fraction(-7, 2)
    assert gs.parse_rational("+3/9") == Fraction(1, 3)
    assert gs.parse_rational("  5 ") == 5


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "x", "3/0", "1/ 2", "--3"])
def test_parse_rational_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        gs.parse_rational(bad)


def test_parse_rational_list():
    assert parse_rational_list("1, -2, 3/4") == (1, -2, Fraction(3, 4))
    with pytest.raises(ValueError):
        parse_rational_list("1,,2")
    with pytest.raises(ValueError):
        parse_rational_list("")


def test_file_presets_extend_catalog(tmp_path):
    path = tmp_path / "extra.conf"
    path.write_text(
        "# quartic family\n"
        "[quadranacci]\n"
        "coeffs = 1, 1, 1, 1\n"
        "seeds = 0, 1, 1, 2\n"
        "description = degree-4 analogue\n"
    )
    catalog = gs.load_presets(path)
    assert len(catalog) == 5
    assert catalog["quadranacci"].coeffs == (1, 1, 1, 1)
    assert catalog["quadranacci"].seeds == (0, 1, 1, 2)
    assert catalog["quadranacci"].description == "degree-4 analogue"


def test_repo_sample_file_parses():
    sample = Path(__file__).resolve().parent.parent / "presets.sample.conf"
    catalog = gs.load_presets(sample)
    assert "jacobsthal" in catalog
    assert catalog["half-weighted"].coeffs == (Fraction(1, 2), Fraction(1, 2))


def test_shadowing_builtin_rejected(tmp_path):
    path = tmp_path / "shadow.conf"
    path.write_text("[fibonacci]\ncoeffs = 1, 1\nseeds = 0, 1\n")
    with pytest.raises(PresetError) as err:
        gs.load_presets(path)
    assert "shadow" in str(err.value)


def test_missing_file_is_an_error():
    with pytest.raises(PresetError):
        gs.load_presets("/nonexistent/nope.conf")


def test_bad_rational_error_carries_line_and_column():
    text = "[broken]\ncoeffs = 1, 0.5\nseeds = 0, 1\n"
    with pytest.raises(PresetError) as err:
        parse_preset_file(text)
    assert err.value.line == 2
    assert err.value.column == 13  # the '0' of '0.5'
    assert "line 2, column 13" in str(err.value)


def test_malformed_section_header():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[no closing\ncoeffs = 1\n")
    assert err.value.line == 1


def test_key_outside_section():
    with pytest.raises(PresetError) as err:
        parse_preset_file("coeffs = 1, 1\n")
    assert "outside" in str(err.value)


def test_line_without_equals_inside_a_section():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1, 1\n  seeds 0, 1\n")
    assert (err.value.line, err.value.column) == (3, 3)  # the 's' of 'seeds'
    assert str(err.value) == "expected 'key = value' (line 3, column 3)"


def test_unknown_and_duplicate_keys():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncolor = red\n")
    assert "unknown key" in str(err.value)
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1\ncoeffs = 2\n")
    assert "duplicate key" in str(err.value)
    assert err.value.line == 3


def test_duplicate_section_rejected():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1\nseeds = 1\n[a]\ncoeffs = 2\nseeds = 2\n")
    assert err.value.line == 4


def test_missing_required_key():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1, 1\n")
    assert "missing" in str(err.value)


def test_length_mismatch_rejected():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1, 1\nseeds = 0, 1, 1\n")
    assert "2 coefficients but 3 seeds" in str(err.value)


def test_comments_and_blank_lines_ignored():
    text = (
        "\n# leading comment\n; alt comment\n"
        "[ok]\n"
        "coeffs = 2, 1\n"
        "\n"
        "seeds = 1, 1\n"
    )
    presets = parse_preset_file(text)
    assert presets["ok"].coeffs == (2, 1)
    assert presets["ok"].description == ""


def test_empty_list_entry_is_located():
    with pytest.raises(PresetError) as err:
        parse_preset_file("[a]\ncoeffs = 1, , 2\nseeds = 0, 1, 2\n")
    assert err.value.line == 2
    assert "empty list entry" in str(err.value)
