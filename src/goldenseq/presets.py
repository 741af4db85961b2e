"""Named recurrence presets: a builtin catalog plus user preset files.

The file format is a small sectioned key-value dialect:

    # comment
    [padovan]
    coeffs = 0, 1, 1
    seeds = 1, 1, 1
    description = plastic-number recurrence

Values are exact rationals (42, -7, 355/113); floats are rejected on
purpose because every exact layer downstream would silently degrade.
Errors carry line and column so a typo in a 50-preset file is findable.
User files may add presets but never redefine a builtin name.

configparser was deliberately not used here: it cannot report column
positions, accepts bare keys and other INI laxities we want to reject,
and its interpolation rules are a trap for values containing '%'.
"""

import re
from fractions import Fraction

from .errors import PresetError
from .reports import Record

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_][A-Za-z0-9_-]*)\]$")
_KEYS = ("coeffs", "seeds", "description")


class Preset(Record):
    """A named (coeffs, seeds) pair; lengths always agree."""

    name: str
    coeffs: tuple
    seeds: tuple
    description: str = ""


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly; floats and empty strings are errors."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(
            "not an exact rational: %r (use integers or p/q, not decimals)" % token
        )
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % token) from None


def parse_rational_list(text: str) -> tuple:
    """Parse a comma-separated list of exact rationals."""
    parts = text.split(",")
    if parts == [""]:
        raise ValueError("empty list")
    return tuple(parse_rational(p) for p in parts)


BUILTIN_PRESETS = {
    "fibonacci": Preset(
        "fibonacci",
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        "x_{k+2} = x_{k+1} + x_k with seeds 0, 1",
    ),
    "lucas": Preset(
        "lucas",
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
        "Fibonacci recurrence with seeds 2, 1",
    ),
    "pell": Preset(
        "pell",
        (Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1)),
        "x_{k+2} = 2 x_{k+1} + x_k with seeds 0, 1 (silver-number family)",
    ),
    "tribonacci": Preset(
        "tribonacci",
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        "x_{k+3} = x_{k+2} + x_{k+1} + x_k with seeds 0, 1, 1",
    ),
}


def _first_content_column(line: str) -> int:
    return len(line) - len(line.lstrip()) + 1


def parse_preset_file(text: str) -> dict:
    """Parse preset file text into an ordered {name: Preset} dict.

    Raises PresetError with 1-based line/column positions for malformed
    headers, keys outside sections, unknown or duplicate keys, bad
    rational tokens, missing fields, and length mismatches.
    """
    sections: dict = {}
    current: dict | None = None
    current_name = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        col = _first_content_column(line)
        if stripped.startswith("["):
            match = _SECTION_RE.match(stripped)
            if not match:
                raise PresetError(
                    "malformed section header %r" % stripped, lineno, col
                )
            current_name = match.group(1)
            if current_name in sections:
                raise PresetError(
                    "duplicate preset section %r" % current_name, lineno, col
                )
            current = {}
            sections[current_name] = (lineno, current)
            continue
        if "=" not in stripped:
            raise PresetError("expected 'key = value'", lineno, col)
        if current is None:
            raise PresetError(
                "key/value pair outside any [section]", lineno, col
            )
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        if key not in _KEYS:
            raise PresetError(
                "unknown key %r (expected one of %s)" % (key, ", ".join(_KEYS)),
                lineno,
                col,
            )
        if key in current:
            raise PresetError("duplicate key %r" % key, lineno, col)
        # column where the raw value begins (just after the '=')
        current[key] = (value_part.strip(), lineno, len(key_part) + 2, value_part)

    presets: dict = {}
    for name, (header_line, fields) in sections.items():
        for required in ("coeffs", "seeds"):
            if required not in fields:
                raise PresetError(
                    "preset %r is missing the %r key" % (name, required),
                    header_line,
                    1,
                )
        coeffs = _parse_field_list(name, fields["coeffs"])
        seeds = _parse_field_list(name, fields["seeds"])
        if len(coeffs) != len(seeds):
            raise PresetError(
                "preset %r has %d coefficients but %d seeds"
                % (name, len(coeffs), len(seeds)),
                fields["seeds"][1],
                fields["seeds"][2],
            )
        description = fields.get("description", ("", 0, 0, ""))[0]
        presets[name] = Preset(name, coeffs, seeds, description)
    return presets


def _parse_field_list(name: str, field) -> tuple:
    _, lineno, value_start, raw_value = field
    values = []
    offset = 0
    for part in raw_value.split(","):
        token = part.strip()
        token_col = value_start + offset + (len(part) - len(part.lstrip()))
        if not token:
            raise PresetError(
                "in preset %r: empty list entry" % name, lineno, token_col
            )
        try:
            values.append(parse_rational(token))
        except ValueError as exc:
            raise PresetError(
                "in preset %r: %s" % (name, exc), lineno, token_col
            ) from None
        offset += len(part) + 1
    return tuple(values)


def load_presets(path=None) -> dict:
    """Builtin presets merged with an optional preset file.

    A file preset redefining a builtin (or appearing twice) is an error,
    not an override: silent shadowing of 'fibonacci' would be a footgun.
    """
    catalog = dict(BUILTIN_PRESETS)
    if path is None:
        return catalog
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PresetError("cannot read preset file %s: %s" % (path, exc)) from exc
    for name, preset in parse_preset_file(text).items():
        if name in BUILTIN_PRESETS:
            raise PresetError(
                "preset %r would shadow the builtin preset of the same name" % name
            )
        catalog[name] = preset
    return catalog
