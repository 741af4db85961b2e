"""Golden CLI snapshots: every command, format and preset, in both precisions.

`cli_snapshots.json` maps each case (its argv, with the sample preset
file written as SAMPLE) to the exit code, stdout and stderr the CLI
produced when the snapshot was taken.  Standard-precision cases hold the
output of the code before the numeric layer moved to mpmath contexts;
extended cases hold that code's output when it ran with the global mpmath
precision at 40 digits throughout, i.e. without any of its 15-digit
leaks, except the extended `roots`, `binet` and `verify` cases whose
residuals, weights or repeated roots moved when extended precision began
to evaluate p, p' and N exactly at the root (numerics.horner); those were
regenerated then, after a comparison with the previous code confirmed
that every other root was unchanged, and the extended `verify` cases
whose recurrence_binet_roundtrip residual moved when that round trip
became exact (binet._roundtrip); only that line changed in them.  Any
change to what the CLI prints shows up here as a diff.

After an intended output change, rewrite the file with
`PYTHONPATH=src python tests/test_cli_snapshots.py` and review the diff.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from goldenseq.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = str(ROOT / "presets.sample.conf")
DATA = Path(__file__).resolve().parent / "cli_snapshots.json"

PRESETS = ("fibonacci", "lucas", "pell", "tribonacci", "jacobsthal", "padovan", "half-weighted")
FORMATS = ("text", "csv", "json")
COMMANDS = {
    "seq": [],
    "term": ["--k", "100"],
    "roots": [],
    "binet": ["--k", "100"],
    "genfunc": [],
    "trapezoid": [],
    "rowsum": [],
    "converge": [],
    "verify": [],
}
# no preset has degree 4 or more, so these specs are the cases that reach
# the Aberth iteration; the second has a double zero root, and the third
# a double root at -1 whose sweeps stop on the noise-floor clause
SPECS = (
    "--coeffs 1,1,1,1 --seeds 0,0,0,1",
    "--coeffs 0,0,1,1,1 --seeds 0,0,0,1,1",
    "--coeffs 0,-1,-1,0,-1 --seeds 1,2/3,-1,2/3,2",
)


def cases():
    """Case ids (argv joined by spaces, SAMPLE for the preset file)."""
    ids = []
    for command, extra in COMMANDS.items():
        for preset in PRESETS:
            for fmt in FORMATS:
                for precision in ("standard", "extended"):
                    argv = [command, "--preset", preset, "--presets-file", "SAMPLE",
                            "--format", fmt, "--precision", precision] + extra
                    ids.append(" ".join(argv))
    for command in ("roots", "binet", "verify"):
        for spec in SPECS:
            for fmt in FORMATS:
                for precision in ("standard", "extended"):
                    ids.append(" ".join([command, spec, "--format", fmt, "--precision", precision]
                                        + COMMANDS[command]))
    for fmt in FORMATS:
        ids.append("presets --presets-file SAMPLE --format %s" % fmt)
    return ids


def run_case(case):
    argv = [SAMPLE if arg == "SAMPLE" else arg for arg in case.split(" ")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.lru_cache(maxsize=None)
def _snapshots():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case():
    assert sorted(_snapshots()) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_cli_output_matches_snapshot(case):
    assert run_case(case) == _snapshots()[case]


if __name__ == "__main__":
    snapshots = {case: run_case(case) for case in cases()}
    DATA.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d cases to %s" % (len(snapshots), DATA), file=sys.stderr)
