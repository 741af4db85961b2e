"""Extended precision is self-contained: exact rounding far out, and
results that do not depend on the global mpmath precision."""

import contextlib
import io
import json
import random

import mpmath
import pytest

import goldenseq as gs
from goldenseq.cli import main
from goldenseq.numerics import arithmetic

BUILTINS = ("fibonacci", "lucas", "pell", "tribonacci")
# degree 4, so its roots come from the iteration rather than a closed form
QUARTIC = {"tetranacci": ("1,1,1,1", "0,0,0,1")}


def _preset(name):
    if name in QUARTIC:
        coeffs, seeds = QUARTIC[name]
        return gs.make_spec(coeffs.split(",")), gs.make_seeds(seeds.split(","))
    preset = gs.BUILTIN_PRESETS[name]
    return gs.make_spec(preset.coeffs), gs.make_seeds(preset.seeds)


def _cli_spec(name):
    if name in QUARTIC:
        coeffs, seeds = QUARTIC[name]
        return [f"--coeffs={coeffs}", f"--seeds={seeds}"]
    return ["--preset", name]


@pytest.mark.parametrize("name", BUILTINS)
def test_extended_binet_rounding_is_exact_through_k_90(name):
    spec, seeds = _preset(name)
    rootset = gs.solve_roots(spec, gs.EXTENDED)
    weights = gs.solve_weights(spec, seeds, rootset)
    terms = gs.generate(spec, seeds, 91)
    for k, term in enumerate(terms):
        assert gs.nearest_integer(gs.binet_eval(weights, rootset, k)) == term, (name, k)


def test_nearest_integer_agrees_with_round_on_floats():
    rng = random.Random(2016)
    values = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 2.0**52 + 1, -(2.0**60), 0.49999999999999994]
    values += [rng.uniform(-1e6, 1e6) for _ in range(2000)]
    values += [rng.randint(-(10**6), 10**6) + 0.5 for _ in range(500)]
    values += [rng.uniform(-1, 1) * 2.0 ** rng.randint(0, 80) for _ in range(500)]
    for x in values:
        assert gs.nearest_integer(complex(x, 0.0)) == round(x), x


def test_standard_context_computes_what_mpmath_fp_computes():
    # standard precision no longer imports mpmath; its context must give
    # the same float or complex, bit for bit, as mpmath.fp did
    ctx = arithmetic(gs.STANDARD).ctx
    rng = random.Random(16)
    values = [3, -3, 0, 0.0, -0.0, 2.5, -2.5, 1e-300, -1e300, float("inf")]
    values += [rng.uniform(-1e6, 1e6) for _ in range(500)]
    values += [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(500)]
    values += [complex(rng.uniform(-5, 5), sign * 0.0) for sign in (1, -1) for _ in range(100)]
    for name in ("sqrt", "cbrt"):
        for x in values:
            ours, theirs = getattr(ctx, name)(x), getattr(mpmath.fp, name)(x)
            assert (type(ours), repr(ours)) == (type(theirs), repr(theirs)), (name, x)
    for x in [1e-15, 0.4] + [rng.uniform(-10, 10) for _ in range(500)]:
        assert repr(ctx.expj(x)) == repr(mpmath.fp.expj(x)), x
    assert (ctx.pi, ctx.mpf, ctx.mpc) == (mpmath.fp.pi, mpmath.fp.mpf, mpmath.fp.mpc)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_nearest_integer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="inf or nan"):
        gs.nearest_integer(complex(value, 0.0))


def test_unknown_precision_is_rejected():
    spec, seeds = _preset("fibonacci")
    with pytest.raises(ValueError, match="precision must be one of"):
        gs.solve_roots(spec, "quad")
    with pytest.raises(ValueError, match="precision must be one of"):
        gs.verify_all(spec, seeds, precision="quad")


def _library_results(name):
    spec, seeds = _preset(name)
    rootset = gs.solve_roots(spec, gs.EXTENDED)
    weights = gs.solve_weights(spec, seeds, rootset)
    values = [gs.binet_eval(weights, rootset, k) for k in (0, 40, 100, 150)]
    return (
        rootset,
        weights,
        values,
        [gs.nearest_integer(v) for v in values],
        gs.ratio_convergence(spec, seeds, 60, gs.EXTENDED),
        gs.golden_identity_check(spec, rootset),
        gs.verify_all(spec, seeds, precision=gs.EXTENDED),
    )


def _cli_argvs(name):
    return [
        argv + _cli_spec(name) + ["--precision", "extended"]
        for argv in (
            ["roots", "--format", "json"],
            ["roots"],
            ["binet", "--k", "100"],
            ["binet", "--k", "100", "--format", "csv"],
            ["converge"],
            ["verify", "--format", "json"],
        )
    ]


def _cli_outputs(name):
    outputs = []
    for argv in _cli_argvs(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        outputs.append((code, out.getvalue()))
    return outputs


@pytest.mark.parametrize("name", BUILTINS + tuple(QUARTIC))
def test_extended_results_ignore_global_precision(name):
    reference = _library_results(name), _cli_outputs(name)
    for dps in (5, 60):
        with mpmath.workdps(dps):
            assert (_library_results(name), _cli_outputs(name)) == reference, dps


# Runs main() on each argv of the JSON list argv[2] inside
# mpmath.workdps(argv[1]) in a fresh interpreter, so the extended context
# is built there, on the first floating call; prints [code, stdout] pairs.
FIRST_USE_UNDER_WORKDPS = """
import contextlib, io, json, sys
import mpmath
from goldenseq.cli import main
from goldenseq.numerics import arithmetic
outputs = []
with mpmath.workdps(int(sys.argv[1])):
    for argv in json.loads(sys.argv[2]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            outputs.append([main(argv), out.getvalue()])
print(json.dumps(outputs))
"""


@pytest.mark.parametrize("dps", (5, 60))
def test_extended_context_built_under_workdps_prints_the_same(fresh_python, dps):
    names = BUILTINS + tuple(QUARTIC)
    argvs = [argv for name in names for argv in _cli_argvs(name)]
    fresh = fresh_python(FIRST_USE_UNDER_WORKDPS, str(dps), json.dumps(argvs))
    reference = [list(output) for name in names for output in _cli_outputs(name)]
    assert json.loads(fresh) == reference
