"""The import boundary: exact work never loads the floating layer.

Importing goldenseq or goldenseq.cli, and running an exact subcommand,
must not import mpmath, numerics or the root-finding module; the
floating commands load numerics and the root-finding module on first use
and print what they printed before, and only the extended-precision ones
load mpmath.  No import
and no command loads dataclasses or inspect, and the commands that need
only the recurrence core (seq, term, presets, usage errors) load neither
genfunc nor trapezoid.  Text output never loads the json or csv module:
only their renderers import them.  Each check runs in a fresh
interpreter, because this process has imported all of these.
"""

import contextlib
import io
import json

import pytest

import goldenseq as gs
from goldenseq.cli import main

# what `from goldenseq import *` binds: the eager names and the lazy ones
PUBLIC_NAMES = set("""
BUILTIN_PRESETS BinetWeights ConvergenceReport DegenerateSpectrumError EXTENDED
FormulaCheck GeneratingFunction InvalidSpecError Preset PresetError
PRECISIONS RecurrenceSpec RootConvergenceError RootSet STANDARD SeedMismatchError
SeedVector SymbolicTerm Trapezoid
UnitRootError VerificationCheck binet_cubic_closed binet_eval binet_quadratic_closed
build_closed_form build_expansion build_genfunc check_closed_form
check_cubic_closed_form check_row_recurrence coeff_cubic coeff_quadratic cubic_roots
diagonal_sum dominant_root format_polynomial general_roots generate
golden_identity_check golden_inverse_check has_failures load_presets make_seeds make_spec
nearest_integer parse_rational pseudo_sign_combine quadratic_roots ratio_convergence
recover_cubic_conjugates row_length row_sum series_coefficients solve_roots
solve_weights symbolic_term term_at unit_function verify_all verify_symmetric_relations
""".split())

FLOATING_MODULES = {
    "standard": {"goldenseq.numerics", "goldenseq.roots"},
    "extended": {"goldenseq.numerics", "goldenseq.roots", "mpmath"},
}
LAZY_EXACT_MODULES = {"goldenseq.genfunc", "goldenseq.trapezoid"}

# Imports goldenseq, then goldenseq.cli, then runs main() on each argv in
# the JSON list argv[1]; prints which of the watched modules are loaded
# after each step, with each command's exit code and stdout.
RUN_COMMANDS = """
import contextlib, io, json, sys

WATCHED = ("dataclasses", "inspect", "mpmath", "goldenseq.genfunc", "goldenseq.numerics",
           "goldenseq.roots", "goldenseq.trapezoid")

def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)

steps = []
import goldenseq
steps.append(["import goldenseq", None, "", loaded()])
import goldenseq.cli
steps.append(["import goldenseq.cli", None, "", loaded()])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = goldenseq.cli.main(argv)
    steps.append([argv, code, out.getvalue(), loaded()])
print(json.dumps(steps))
"""

EXACT_COMMANDS = [
    [command, "--preset", preset, "--format", fmt]
    for command, preset in (
        ("seq", "fibonacci"),
        ("genfunc", "pell"),
        ("trapezoid", "tribonacci"),
        ("rowsum", "lucas"),
    )
    for fmt in ("text", "csv", "json")
] + [
    ["term", "--preset", "tribonacci", "--k", "300"],
    ["term", "--coeffs", "1/2,3", "--seeds", "1,2", "--k", "40", "--format", "json"],
    ["trapezoid", "--preset", "tribonacci", "--method", "closed", "--rows", "5"],
    ["presets"],
    ["presets", "--format", "json"],
    ["presets", "--format", "csv"],
]
# the exact commands that need only the recurrence core
CORE_COMMANDS = [argv for argv in EXACT_COMMANDS if argv[0] in ("seq", "term", "presets")]
EXACT_USAGE_ERRORS = [
    ["term", "--preset", "nosuch", "--k", "3"],
    ["seq", "--coeffs", "1,x", "--seeds", "0,1"],
    ["seq", "--format", "yaml"],
    ["trapezoid", "--coeffs", "1,1,1,1", "--seeds", "0,1,1,2", "--method", "closed"],
]
# floating commands that fail before any arithmetic: they may import their
# modules, but not mpmath
FLOATING_USAGE_ERRORS = [
    ["roots", "--coeffs", "1.5,1"],
    ["binet", "--preset", "nosuch"],
    ["verify", "--preset", "fibonacci", "--k", "0"],
]
FLOATING_COMMANDS = [
    ["roots", "--preset", "tribonacci"],
    ["roots", "--coeffs", "1,1,1,1", "--precision", "extended", "--format", "json"],
    ["binet", "--preset", "fibonacci", "--k", "100", "--precision", "extended"],
    ["binet", "--preset", "pell", "--k", "30", "--format", "csv"],
    ["converge", "--preset", "lucas"],
    ["verify", "--preset", "pell"],
    ["verify", "--preset", "pell", "--format", "json", "--precision", "extended"],
]

# every exact command, and one floating command, in the text format
TEXT_COMMANDS = [
    argv for argv in EXACT_COMMANDS if "--format" not in argv or argv[-1] == "text"
] + [FLOATING_COMMANDS[0]]

# Runs main() on each argv in the list literal argv[1] and prints which of
# json and csv are loaded afterwards.  It reads its input with ast, since
# json is one of the modules it looks for.
RUN_TEXT_COMMANDS = """
import ast, contextlib, io, sys
import goldenseq.cli
codes = []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(goldenseq.cli.main(argv))
print(codes, sorted(m for m in ("json", "csv") if m in sys.modules))
"""


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _run_fresh(fresh_python, argvs):
    return json.loads(fresh_python(RUN_COMMANDS, json.dumps(argvs)))


def test_exact_commands_never_load_the_floating_layer(fresh_python):
    argvs = EXACT_COMMANDS + EXACT_USAGE_ERRORS
    steps = _run_fresh(fresh_python, argvs)
    assert [step[0] for step in steps[:2]] == ["import goldenseq", "import goldenseq.cli"]
    for what, _, _, loaded in steps[:2]:
        assert loaded == [], what
    for what, _, _, loaded in steps[2:]:
        assert set(loaded) <= LAZY_EXACT_MODULES, what
    for argv, code, stdout, _ in steps[2:]:
        assert (code, stdout) == _in_process(argv), argv
    assert [code for _, code, _, _ in steps[2:]] == [0] * len(EXACT_COMMANDS) + [2] * len(
        EXACT_USAGE_ERRORS
    )


def test_core_commands_load_neither_genfunc_nor_trapezoid(fresh_python):
    assert {argv[0] for argv in CORE_COMMANDS} == {"seq", "term", "presets"}
    steps = _run_fresh(fresh_python, CORE_COMMANDS + EXACT_USAGE_ERRORS)
    assert len(steps) == 2 + len(CORE_COMMANDS) + len(EXACT_USAGE_ERRORS)
    for what, _, _, loaded in steps:
        assert loaded == [], what
    assert [code for _, code, _, _ in steps[2:]] == [0] * len(CORE_COMMANDS) + [2] * len(
        EXACT_USAGE_ERRORS
    )


def test_floating_usage_errors_do_not_load_mpmath(fresh_python):
    steps = _run_fresh(fresh_python, FLOATING_USAGE_ERRORS)
    for argv, code, _, loaded in steps[2:]:
        assert code == 2, argv
        assert "mpmath" not in loaded, argv
        assert not {"dataclasses", "inspect"} & set(loaded), argv


@pytest.mark.parametrize("argv", FLOATING_COMMANDS, ids=" ".join)
def test_floating_commands_load_the_floating_layer_and_work(fresh_python, argv):
    ((_, code, stdout, loaded),) = _run_fresh(fresh_python, [argv])[2:]
    precision = "extended" if "extended" in argv else "standard"
    assert set(loaded) - LAZY_EXACT_MODULES == FLOATING_MODULES[precision]
    assert code == 0
    assert stdout
    assert (code, stdout) == _in_process(argv)


def test_text_output_loads_neither_json_nor_csv(fresh_python):
    assert {argv[0] for argv in TEXT_COMMANDS} == {
        "seq", "term", "genfunc", "trapezoid", "rowsum", "presets", "roots"
    }
    printed = fresh_python(RUN_TEXT_COMMANDS, repr(TEXT_COMMANDS))
    assert printed == "%s []\n" % ([0] * len(TEXT_COMMANDS))


def test_star_import_binds_the_public_names(fresh_python):
    script = (
        "import json, sys\n"
        "namespace = {}\n"
        "exec('from goldenseq import *', namespace)\n"
        "import goldenseq\n"
        "print(json.dumps([sorted(set(namespace) - {'__builtins__'}),\n"
        "                  sorted(set(goldenseq.__all__) - set(dir(goldenseq)))]))\n"
    )
    star, missing_from_dir = json.loads(fresh_python(script))
    assert set(star) == PUBLIC_NAMES
    assert set(gs.__all__) == PUBLIC_NAMES
    assert missing_from_dir == []


def test_floating_names_resolve_to_their_modules():
    from goldenseq import analysis, binet, genfunc, roots, trapezoid, verify

    modules = (analysis, binet, genfunc, roots, trapezoid, verify)
    assert {module.__name__.rsplit(".", 1)[1] for module in modules} == set(gs._LAZY)
    for module in modules:
        for name in gs._LAZY[module.__name__.rsplit(".", 1)[1]]:
            assert getattr(gs, name) is getattr(module, name), name
    assert gs.solve_roots is roots.solve_roots
    assert gs.roots is roots
    assert gs.build_genfunc is genfunc.build_genfunc
    assert gs.Trapezoid is trapezoid.Trapezoid
    assert gs.trapezoid is trapezoid
    for name in gs.__all__:
        assert getattr(gs, name) is not None, name
    assert not hasattr(gs, "no_such_name")
