"""Command-line front end.

Exit codes: 0 success, 1 verification found failures, 2 usage or domain
errors (bad rationals, mismatched seeds, unknown presets, parse errors,
numeric breakdowns, values outside the float range).  A usage error is
a ValueError, as the library's domain errors are, and main prints every
one as "error: ..." on stderr.

Output formats: text (human-readable), csv, json.  Exact integers and
rationals are emitted as strings in JSON so arbitrarily large terms
survive the trip through parsers that would otherwise round them.
Floating values are JSON numbers in standard precision and decimal
strings in extended precision (they do not fit a double).

Each command is a function of its parsed arguments that returns an
Output: the JSON value, the CSV rows and the text lines of one result.
It prints nothing; main renders the view that --format names, and only
the json and csv renderers import their modules, when they run.  The
floating commands (roots, binet, converge, verify) import their modules
when they run, and mpmath only in extended precision; the exact commands
never load either.  genfunc, trapezoid and rowsum import genfunc or
trapezoid the same way, so seq, term, presets and usage errors load only
the recurrence core.
"""

import argparse
import io
import sys
from typing import NamedTuple

from . import __version__
from .errors import RootConvergenceError
from .presets import BUILTIN_PRESETS, load_presets, parse_rational_list
from .recurrence import _check_seeds, generate, make_seeds, make_spec, term_at
from .reports import PRECISIONS, STANDARD

_MP_DIGITS = 30  # shown for extended-precision values


class Output(NamedTuple):
    """One command's result in every format, and its exit status."""

    json: object  # the value json.dumps prints
    csv: list  # rows
    text: object  # lines: a list, or a generator where the lines are many
    code: int = 0


# ----------------------------------------------------------------- helpers


def _real(x) -> str:
    """A floating value as text: repr of a double, 30 digits otherwise."""
    if isinstance(x, float):
        return repr(x)
    return x.context.nstr(x, _MP_DIGITS)


def _complex(z) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _real(re)
    sign = "-" if im < 0 else "+"
    return "%s %s %si" % (_real(re), sign, _real(abs(im)))


def _json_real(x):
    return x if isinstance(x, float) else _real(x)


def _json_complex(z):
    return {"re": _json_real(z.real), "im": _json_real(z.imag)}


def _render(out: Output, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(out.json, indent=2))
    elif fmt == "csv":
        import csv

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(out.csv)
        sys.stdout.write(buffer.getvalue())
    else:
        for line in out.text:
            print(line)


def _at_least(value, low, flag):
    if value < low:
        raise ValueError("%s must be >= %d" % (flag, low))
    return value


def _parse_list(text, what):
    try:
        return parse_rational_list(text)
    except ValueError as exc:
        raise ValueError("bad %s: %s" % (what, exc)) from None


def _resolve(args, need_seeds=True):
    """Turn --preset/--coeffs/--seeds into (spec, seeds)."""
    catalog = load_presets(args.presets_file)
    if args.preset is not None:
        if args.coeffs is not None or args.seeds is not None:
            raise ValueError("--preset cannot be combined with --coeffs/--seeds")
        if args.preset not in catalog:
            known = ", ".join(sorted(catalog))
            raise ValueError("unknown preset %r (known: %s)" % (args.preset, known))
        preset = catalog[args.preset]
        return make_spec(preset.coeffs), make_seeds(preset.seeds)
    if args.coeffs is None:
        raise ValueError("give --coeffs (plus --seeds) or --preset")
    spec = make_spec(_parse_list(args.coeffs, "--coeffs"))
    seeds = None
    if args.seeds is not None:
        seeds = make_seeds(_parse_list(args.seeds, "--seeds"))
        _check_seeds(spec, seeds)
    elif need_seeds:
        raise ValueError("--seeds is required alongside --coeffs here")
    return spec, seeds


def _echo(spec, seeds, **fields):
    """The JSON payload: the inputs as strings, then the command's fields."""
    payload = {"coeffs": [str(c) for c in spec.coeffs]}
    if seeds is not None:
        payload["seeds"] = [str(s) for s in seeds]
    payload.update(fields)
    return payload


# ----------------------------------------------------------------- commands


def cmd_seq(args) -> Output:
    spec, seeds = _resolve(args)
    terms = [str(t) for t in generate(spec, seeds, _at_least(args.count, 0, "--count"))]
    return Output(_echo(spec, seeds, terms=terms), [terms], terms)


def cmd_term(args) -> Output:
    spec, seeds = _resolve(args)
    value = str(term_at(spec, seeds, _at_least(args.k, 0, "--k")))
    return Output(_echo(spec, seeds, k=args.k, term=value), [[args.k, value]], [value])


def cmd_roots(args) -> Output:
    from .roots import solve_roots

    spec, _ = _resolve(args, need_seeds=False)
    rootset = solve_roots(spec, args.precision)
    payload = _echo(
        spec,
        None,
        precision=rootset.precision,
        roots=[_json_complex(z) for z in rootset.roots],
        residuals=[float(r) for r in rootset.residuals],
        dominant_index=rootset.dominant_index,
        dominance_unique=rootset.dominance_unique,
    )
    rows, lines = [], []
    for idx, (z, res) in enumerate(zip(rootset.roots, rootset.residuals)):
        rows.append([_json_real(z.real), _json_real(z.imag), res])
        mark = "  <- dominant" if idx == rootset.dominant_index else ""
        lines.append("root[%d] = %s  (residual %.3e)%s" % (idx, _complex(z), res, mark))
    lines.append(
        "dominance: %s" % ("unique" if rootset.dominance_unique else "tied largest modulus")
    )
    return Output(payload, rows, lines)


def cmd_binet(args) -> Output:
    from .binet import binet_eval, nearest_integer, solve_weights
    from .roots import solve_roots

    spec, seeds = _resolve(args)
    rootset = solve_roots(spec, args.precision)
    weights = solve_weights(spec, seeds, rootset)
    *body, constant = weights.weights
    payload = _echo(
        spec,
        seeds,
        precision=args.precision,
        weights=[_json_complex(w) for w in body],
        constant=_json_complex(constant),
    )
    rows = [["w%d" % i, _json_real(w.real), _json_real(w.imag)] for i, w in enumerate(body)]
    rows.append(["constant", _json_real(constant.real), _json_real(constant.imag)])
    lines = ["w[%d] = %s" % (i, _complex(w)) for i, w in enumerate(body)]
    lines.append("constant probe = %s" % _complex(constant))
    if args.k is not None:
        value = binet_eval(weights, rootset, _at_least(args.k, 0, "--k"))
        payload.update(k=args.k, value=_json_complex(value))
        rows.append(["value", _json_real(value.real), _json_real(value.imag)])
        lines.append("value(k=%d) = %s" % (args.k, _complex(value)))
        integral = all(v.denominator == 1 for v in (*spec.coeffs, *seeds))
        try:
            rounded = nearest_integer(value) if integral else None
        except ValueError:
            rounded = None
        if rounded is not None:
            payload["rounded"] = str(rounded)
            lines.append("rounded = %d" % rounded)
    return Output(payload, rows, lines)


def cmd_genfunc(args) -> Output:
    from .genfunc import build_genfunc, series_coefficients

    spec, seeds = _resolve(args)
    count = _at_least(args.count, 0, "--count")
    gf = build_genfunc(spec, seeds)
    numerator = [str(c) for c in gf.numerator]
    tail = [str(c) for c in gf.denominator_tail]
    series = [str(c) for c in series_coefficients(gf, count)]
    display = gf.display()
    payload = _echo(
        spec, seeds, numerator=numerator, denominator_tail=tail, display=display, series=series
    )
    rows, lines = [numerator, tail], ["f(z) = %s" % display]
    if series:
        rows.append(series)
        lines.append("series: %s" % ", ".join(series))
    return Output(payload, rows, lines)


def cmd_trapezoid(args) -> Output:
    spec, seeds = _resolve(args)
    count = _at_least(args.rows, 1, "--rows")
    if args.method == "closed" and spec.degree not in (2, 3):
        raise ValueError(
            "closed-form entries exist only for degrees 2 and 3; use --method expansion"
        )
    from .trapezoid import build_closed_form, build_expansion

    build = build_closed_form if args.method == "closed" else build_expansion
    trapezoid = build(spec, seeds, count)
    rows = [[str(v) for v in row] for row in trapezoid.rows]
    payload = _echo(spec, seeds, method=trapezoid.method, rows=rows)
    # the text lines are joined as they print, not held beside the rows
    return Output(payload, rows, (" ".join(row) for row in rows))


def cmd_rowsum(args) -> Output:
    from .trapezoid import row_sum

    spec, seeds = _resolve(args)
    sums = [str(row_sum(i, spec, seeds)) for i in range(_at_least(args.rows, 1, "--rows"))]
    lines = ["row %d: %s" % (i, s) for i, s in enumerate(sums)]
    return Output(_echo(spec, seeds, sums=sums), [sums], lines)


def cmd_converge(args) -> Output:
    from .analysis import ratio_convergence

    spec, seeds = _resolve(args)
    report = ratio_convergence(spec, seeds, args.k, args.precision)
    target = report.target
    payload = _echo(
        spec,
        seeds,
        k_max=args.k,
        ratios=list(report.ratios),
        final_estimate=report.final_estimate,
        target=_json_complex(target),
        abs_error=report.abs_error,
        converged=report.converged,
        k_used=report.k_used,
        hypothesis_met=report.hypothesis_met,
        reason=report.reason,
    )
    row = [
        report.final_estimate,
        _json_real(target.real),
        _json_real(target.imag),
        report.abs_error,
        report.converged,
        report.k_used,
    ]
    lines = [
        "estimate  = %s" % report.final_estimate,
        "target    = %s" % _complex(target),
        "abs error = %s" % report.abs_error,
        "converged = %s" % ("yes" if report.converged else "no"),
        "k used    = %s" % report.k_used,
    ]
    if report.reason:
        lines.append("reason    = %s" % report.reason)
    return Output(payload, [row], lines)


def cmd_verify(args) -> Output:
    from .verify import has_failures, verify_all

    spec, seeds = _resolve(args)
    k_max = _at_least(args.k, 1, "--k")
    rows = _at_least(args.rows, 2, "--rows")
    checks = verify_all(spec, seeds, k_max=k_max, rows=rows, precision=args.precision)
    payload = [
        {"check": c.check, "status": c.status, "residual": c.residual, "detail": c.detail}
        for c in checks
    ]
    lines = []
    for c in checks:
        residual = "" if c.residual is None else "  residual=%.3e" % c.residual
        detail = "  %s" % c.detail if c.detail else ""
        lines.append("%-7s %s%s%s" % (c.status, c.check, residual, detail))
    return Output(
        payload,
        [[c.check, c.status, c.residual] for c in checks],
        lines,
        1 if has_failures(checks) else 0,
    )


def cmd_presets(args) -> Output:
    catalog = load_presets(args.presets_file)
    payload, rows, lines = [], [], []
    for p in catalog.values():
        coeffs = [str(c) for c in p.coeffs]
        seeds = [str(s) for s in p.seeds]
        builtin = p.name in BUILTIN_PRESETS
        payload.append(
            {
                "name": p.name,
                "coeffs": coeffs,
                "seeds": seeds,
                "description": p.description,
                "builtin": builtin,
            }
        )
        rows.append([p.name, ",".join(coeffs), ",".join(seeds), p.description])
        lines.append(
            "%-12s coeffs = %s;  seeds = %s  [%s] %s"
            % (
                p.name,
                ", ".join(coeffs),
                ", ".join(seeds),
                "builtin" if builtin else "file",
                p.description,
            )
        )
    return Output(payload, rows, lines)


# ----------------------------------------------------------------- wiring


_FORMATS = ("text", "csv", "json")
# (flag, add_argument keywords) of the options every spec-taking command has
_COMMON = (
    ("--coeffs", dict(
        help="ascending recurrence coefficients a0,...,a_{n-1} as exact "
        "rationals (e.g. 1,1 or 1/2,3)",
    )),
    ("--seeds", dict(help="initial terms x_0,...,x_{n-1}")),
    ("--preset", dict(help="use a named preset instead of --coeffs")),
    ("--presets-file", dict(metavar="PATH", help="load extra presets from PATH")),
    ("--format", dict(choices=_FORMATS, default="text", help="output format (default: text)")),
    ("--precision", dict(
        choices=PRECISIONS, default=STANDARD,
        help="floating precision for root-based computations",
    )),
)


def _int(flag, default, help, **extra):
    return flag, dict(type=int, default=default, help=help, **extra)


# name, handler, help line, options; build_parser adds them in this order
_COMMANDS = (
    ("seq", cmd_seq, "list the first terms of a sequence",
     _COMMON + (_int("--count", 10, "how many terms (default 10)"),)),
    ("term", cmd_term, "one exact term x_k, fast for large k",
     _COMMON + (_int("--k", None, "term index", required=True),)),
    ("roots", cmd_roots, "characteristic roots (golden numbers)", _COMMON),
    ("binet", cmd_binet, "closed-form weights and evaluation",
     _COMMON + (_int("--k", None, "also evaluate the closed form at k"),)),
    ("genfunc", cmd_genfunc, "rational generating function and series",
     _COMMON + (_int("--count", 8, "series terms to expand (default 8)"),)),
    ("trapezoid", cmd_trapezoid, "arithmetic trapezoid rows", _COMMON + (
        _int("--rows", 6, "rows to build (default 6)"),
        ("--method", dict(
            choices=("expansion", "closed"), default="expansion",
            help="row construction: series expansion or per-entry closed form",
        )),
    )),
    ("rowsum", cmd_rowsum, "closed-form trapezoid row sums",
     _COMMON + (_int("--rows", 6, "rows to sum (default 6)"),)),
    ("converge", cmd_converge, "term-ratio convergence to the dominant root",
     _COMMON + (_int("--k", 60, "ratios up to k (default 60)"),)),
    ("verify", cmd_verify, "run every cross-check; exit 1 on failure", _COMMON + (
        _int("--k", 40, "terms per check (default 40)"),
        _int("--rows", 8, "trapezoid rows to check (default 8)"),
    )),
    ("presets", cmd_presets, "list available presets",
     (_COMMON[3], ("--format", dict(choices=_FORMATS, default="text")))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldenseq",
        description="Degree-n Fibonacci-type sequences: exact terms, "
        "characteristic roots, closed forms, generating functions, and "
        "arithmetic trapezoids.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, options in _COMMANDS:
        sub = commands.add_parser(name, help=summary)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # print exact values of any length; restored in finally
    try:
        out = args.handler(args)
        _render(out, args.format)
    except (ValueError, OverflowError, RootConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
    return out.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
