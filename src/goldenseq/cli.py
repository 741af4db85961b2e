"""Command-line front end.

Exit codes: 0 success, 1 verification found failures, 2 usage or domain
errors (bad rationals, mismatched seeds, unknown presets, parse errors,
numeric breakdowns).

Output formats: text (human-readable), csv, json.  Exact integers and
rationals are emitted as strings in JSON so arbitrarily large terms
survive the trip through parsers that would otherwise round them.
Floating values are JSON numbers in standard precision and decimal
strings in extended precision (they do not fit a double).

The floating commands (roots, binet, converge, verify) import their
modules, and with them mpmath, when they run; the exact commands never
load either.
"""

import argparse
import io
import sys

from . import __version__
from .errors import RootConvergenceError, SingularSystemError
from .genfunc import build_genfunc, series_coefficients
from .numerics import PRECISIONS, STANDARD
from .presets import BUILTIN_PRESETS, load_presets, parse_rational_list
from .recurrence import _check_seeds, generate, make_seeds, make_spec, term_at
from .trapezoid import build_closed_form, build_expansion, row_sum

_MP_DIGITS = 30  # shown for extended-precision values


class CLIError(Exception):
    """Usage-level problem; prints to stderr and exits 2."""


# ----------------------------------------------------------------- helpers


def _fmt_real(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return x.context.nstr(x, _MP_DIGITS)


def _fmt_complex(z) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_real(re)
    sign = "-" if im < 0 else "+"
    return "%s %s %si" % (_fmt_real(re), sign, _fmt_real(abs(im)))


def _json_real(x):
    if isinstance(x, float):
        return x
    return x.context.nstr(x, _MP_DIGITS)


def _json_complex(z):
    return {"re": _json_real(z.real), "im": _json_real(z.imag)}


def _print_csv(rows) -> None:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buffer.getvalue())


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _parse_list(text, what):
    try:
        return parse_rational_list(text)
    except ValueError as exc:
        raise CLIError("bad %s: %s" % (what, exc)) from None


def _resolve(args, need_seeds=True):
    """Turn --preset/--coeffs/--seeds into (spec, seeds)."""
    catalog = load_presets(args.presets_file)
    if args.preset is not None:
        if args.coeffs is not None or args.seeds is not None:
            raise CLIError("--preset cannot be combined with --coeffs/--seeds")
        if args.preset not in catalog:
            known = ", ".join(sorted(catalog))
            raise CLIError("unknown preset %r (known: %s)" % (args.preset, known))
        preset = catalog[args.preset]
        return make_spec(preset.coeffs), make_seeds(preset.seeds)
    if args.coeffs is None:
        raise CLIError("give --coeffs (plus --seeds) or --preset")
    spec = make_spec(_parse_list(args.coeffs, "--coeffs"))
    seeds = None
    if args.seeds is not None:
        seeds = make_seeds(_parse_list(args.seeds, "--seeds"))
        _check_seeds(spec, seeds)
    elif need_seeds:
        raise CLIError("--seeds is required alongside --coeffs here")
    return spec, seeds


def _echo(spec, seeds):
    payload = {"coeffs": [str(c) for c in spec.coeffs]}
    if seeds is not None:
        payload["seeds"] = [str(s) for s in seeds]
    return payload


# ----------------------------------------------------------------- commands


def cmd_seq(args) -> int:
    spec, seeds = _resolve(args)
    if args.count < 0:
        raise CLIError("--count must be >= 0")
    terms = generate(spec, seeds, args.count)
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["terms"] = [str(t) for t in terms]
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([[str(t) for t in terms]])
    else:
        for t in terms:
            print(t)
    return 0


def cmd_term(args) -> int:
    spec, seeds = _resolve(args)
    if args.k < 0:
        raise CLIError("--k must be >= 0")
    value = term_at(spec, seeds, args.k)
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["k"] = args.k
        payload["term"] = str(value)
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([[args.k, str(value)]])
    else:
        print(value)
    return 0


def cmd_roots(args) -> int:
    from .roots import solve_roots

    spec, _ = _resolve(args, need_seeds=False)
    rootset = solve_roots(spec, args.precision)
    if args.format == "json":
        payload = {"coeffs": [str(c) for c in spec.coeffs]}
        payload["precision"] = rootset.precision
        payload["roots"] = [_json_complex(z) for z in rootset.roots]
        payload["residuals"] = [float(r) for r in rootset.residuals]
        payload["dominant_index"] = rootset.dominant_index
        payload["dominance_unique"] = rootset.dominance_unique
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            [_json_real(z.real), _json_real(z.imag), res]
            for z, res in zip(rootset.roots, rootset.residuals)
        ]
        _print_csv(rows)
    else:
        for idx, (z, res) in enumerate(zip(rootset.roots, rootset.residuals)):
            mark = "  <- dominant" if idx == rootset.dominant_index else ""
            print("root[%d] = %s  (residual %.3e)%s" % (idx, _fmt_complex(z), res, mark))
        print(
            "dominance: %s"
            % ("unique" if rootset.dominance_unique else "tied largest modulus")
        )
    return 0


def cmd_binet(args) -> int:
    from .binet import binet_eval, nearest_integer, solve_weights
    from .roots import solve_roots

    spec, seeds = _resolve(args)
    rootset = solve_roots(spec, args.precision)
    weights = solve_weights(spec, seeds, rootset)
    integral = all(c.denominator == 1 for c in spec.coeffs) and all(
        s.denominator == 1 for s in seeds
    )
    value = rounded = None
    if args.k is not None:
        if args.k < 0:
            raise CLIError("--k must be >= 0")
        value = binet_eval(weights, rootset, args.k)
        if integral:
            try:
                rounded = nearest_integer(value)
            except ValueError:
                rounded = None
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["precision"] = args.precision
        payload["weights"] = [_json_complex(w) for w in weights.weights[:-1]]
        payload["constant"] = _json_complex(weights.weights[-1])
        if args.k is not None:
            payload["k"] = args.k
            payload["value"] = _json_complex(value)
            if rounded is not None:
                payload["rounded"] = str(rounded)
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            ["w%d" % i, _json_real(w.real), _json_real(w.imag)]
            for i, w in enumerate(weights.weights[:-1])
        ]
        rows.append(
            [
                "constant",
                _json_real(weights.weights[-1].real),
                _json_real(weights.weights[-1].imag),
            ]
        )
        if args.k is not None:
            rows.append(["value", _json_real(value.real), _json_real(value.imag)])
        _print_csv(rows)
    else:
        for i, w in enumerate(weights.weights[:-1]):
            print("w[%d] = %s" % (i, _fmt_complex(w)))
        print("constant probe = %s" % _fmt_complex(weights.weights[-1]))
        if args.k is not None:
            print("value(k=%d) = %s" % (args.k, _fmt_complex(value)))
            if rounded is not None:
                print("rounded = %d" % rounded)
    return 0


def cmd_genfunc(args) -> int:
    spec, seeds = _resolve(args)
    if args.count < 0:
        raise CLIError("--count must be >= 0")
    gf = build_genfunc(spec, seeds)
    series = series_coefficients(gf, args.count)
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["numerator"] = [str(c) for c in gf.numerator]
        payload["denominator_tail"] = [str(c) for c in gf.denominator_tail]
        payload["display"] = gf.display()
        payload["series"] = [str(c) for c in series]
        _print_json(payload)
    elif args.format == "csv":
        rows = [
            [str(c) for c in gf.numerator],
            [str(c) for c in gf.denominator_tail],
        ]
        if series:
            rows.append([str(c) for c in series])
        _print_csv(rows)
    else:
        print("f(z) = %s" % gf.display())
        if series:
            print("series: %s" % ", ".join(str(c) for c in series))
    return 0


def cmd_trapezoid(args) -> int:
    spec, seeds = _resolve(args)
    if args.rows < 1:
        raise CLIError("--rows must be >= 1")
    if args.method == "closed":
        if spec.degree not in (2, 3):
            raise CLIError(
                "closed-form entries exist only for degrees 2 and 3; "
                "use --method expansion"
            )
        trapezoid = build_closed_form(spec, seeds, args.rows)
    else:
        trapezoid = build_expansion(spec, seeds, args.rows)
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["method"] = trapezoid.method
        payload["rows"] = [[str(v) for v in row] for row in trapezoid.rows]
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([[str(v) for v in row] for row in trapezoid.rows])
    else:
        for row in trapezoid.rows:
            print(" ".join(str(v) for v in row))
    return 0


def cmd_rowsum(args) -> int:
    spec, seeds = _resolve(args)
    if args.rows < 1:
        raise CLIError("--rows must be >= 1")
    sums = [row_sum(i, spec, seeds) for i in range(args.rows)]
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["sums"] = [str(s) for s in sums]
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([[str(s) for s in sums]])
    else:
        for i, s in enumerate(sums):
            print("row %d: %s" % (i, s))
    return 0


def cmd_converge(args) -> int:
    from .analysis import ratio_convergence

    spec, seeds = _resolve(args)
    report = ratio_convergence(spec, seeds, args.k, args.precision)
    if args.format == "json":
        payload = _echo(spec, seeds)
        payload["k_max"] = args.k
        payload["ratios"] = list(report.ratios)
        payload["final_estimate"] = report.final_estimate
        payload["target"] = _json_complex(report.target)
        payload["abs_error"] = report.abs_error
        payload["converged"] = report.converged
        payload["k_used"] = report.k_used
        payload["hypothesis_met"] = report.hypothesis_met
        payload["reason"] = report.reason
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(
            [
                [
                    report.final_estimate,
                    _json_real(report.target.real),
                    _json_real(report.target.imag),
                    report.abs_error,
                    report.converged,
                    report.k_used,
                ]
            ]
        )
    else:
        print("estimate  = %s" % report.final_estimate)
        print("target    = %s" % _fmt_complex(report.target))
        print("abs error = %s" % report.abs_error)
        print("converged = %s" % ("yes" if report.converged else "no"))
        print("k used    = %s" % report.k_used)
        if report.reason:
            print("reason    = %s" % report.reason)
    return 0


def cmd_verify(args) -> int:
    from .verify import has_failures, verify_all

    spec, seeds = _resolve(args)
    if args.k < 1:
        raise CLIError("--k must be >= 1")
    if args.rows < 2:
        raise CLIError("--rows must be >= 2")
    checks = verify_all(spec, seeds, k_max=args.k, rows=args.rows, precision=args.precision)
    if args.format == "json":
        _print_json(
            [
                {
                    "check": c.check,
                    "status": c.status,
                    "residual": c.residual,
                    "detail": c.detail,
                }
                for c in checks
            ]
        )
    elif args.format == "csv":
        _print_csv([[c.check, c.status, c.residual] for c in checks])
    else:
        for c in checks:
            residual = "" if c.residual is None else "  residual=%.3e" % c.residual
            detail = "  %s" % c.detail if c.detail else ""
            print("%-7s %s%s%s" % (c.status, c.check, residual, detail))
    return 1 if has_failures(checks) else 0


def cmd_presets(args) -> int:
    catalog = load_presets(args.presets_file)
    if args.format == "json":
        _print_json(
            [
                {
                    "name": p.name,
                    "coeffs": [str(c) for c in p.coeffs],
                    "seeds": [str(s) for s in p.seeds],
                    "description": p.description,
                    "builtin": p.name in BUILTIN_PRESETS,
                }
                for p in catalog.values()
            ]
        )
    elif args.format == "csv":
        _print_csv(
            [
                [
                    p.name,
                    ",".join(str(c) for c in p.coeffs),
                    ",".join(str(s) for s in p.seeds),
                    p.description,
                ]
                for p in catalog.values()
            ]
        )
    else:
        for p in catalog.values():
            origin = "builtin" if p.name in BUILTIN_PRESETS else "file"
            print(
                "%-12s coeffs = %s;  seeds = %s  [%s] %s"
                % (
                    p.name,
                    ", ".join(str(c) for c in p.coeffs),
                    ", ".join(str(s) for s in p.seeds),
                    origin,
                    p.description,
                )
            )
    return 0


# ----------------------------------------------------------------- wiring


def _add_common(sub):
    sub.add_argument(
        "--coeffs",
        help="ascending recurrence coefficients a0,...,a_{n-1} as exact "
        "rationals (e.g. 1,1 or 1/2,3)",
    )
    sub.add_argument("--seeds", help="initial terms x_0,...,x_{n-1}")
    sub.add_argument("--preset", help="use a named preset instead of --coeffs")
    sub.add_argument(
        "--presets-file", metavar="PATH", help="load extra presets from PATH"
    )
    sub.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format (default: text)",
    )
    sub.add_argument(
        "--precision", choices=PRECISIONS, default=STANDARD,
        help="floating precision for root-based computations",
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

    sub = commands.add_parser("seq", help="list the first terms of a sequence")
    _add_common(sub)
    sub.add_argument("--count", type=int, default=10, help="how many terms (default 10)")
    sub.set_defaults(handler=cmd_seq)

    sub = commands.add_parser("term", help="one exact term x_k, fast for large k")
    _add_common(sub)
    sub.add_argument("--k", type=int, required=True, help="term index")
    sub.set_defaults(handler=cmd_term)

    sub = commands.add_parser("roots", help="characteristic roots (golden numbers)")
    _add_common(sub)
    sub.set_defaults(handler=cmd_roots)

    sub = commands.add_parser("binet", help="closed-form weights and evaluation")
    _add_common(sub)
    sub.add_argument("--k", type=int, default=None, help="also evaluate the closed form at k")
    sub.set_defaults(handler=cmd_binet)

    sub = commands.add_parser("genfunc", help="rational generating function and series")
    _add_common(sub)
    sub.add_argument("--count", type=int, default=8, help="series terms to expand (default 8)")
    sub.set_defaults(handler=cmd_genfunc)

    sub = commands.add_parser("trapezoid", help="arithmetic trapezoid rows")
    _add_common(sub)
    sub.add_argument("--rows", type=int, default=6, help="rows to build (default 6)")
    sub.add_argument(
        "--method", choices=("expansion", "closed"), default="expansion",
        help="row construction: series expansion or per-entry closed form",
    )
    sub.set_defaults(handler=cmd_trapezoid)

    sub = commands.add_parser("rowsum", help="closed-form trapezoid row sums")
    _add_common(sub)
    sub.add_argument("--rows", type=int, default=6, help="rows to sum (default 6)")
    sub.set_defaults(handler=cmd_rowsum)

    sub = commands.add_parser("converge", help="term-ratio convergence to the dominant root")
    _add_common(sub)
    sub.add_argument("--k", type=int, default=60, help="ratios up to k (default 60)")
    sub.set_defaults(handler=cmd_converge)

    sub = commands.add_parser("verify", help="run every cross-check; exit 1 on failure")
    _add_common(sub)
    sub.add_argument("--k", type=int, default=40, help="terms per check (default 40)")
    sub.add_argument("--rows", type=int, default=8, help="trapezoid rows to check (default 8)")
    sub.set_defaults(handler=cmd_verify)

    sub = commands.add_parser("presets", help="list available presets")
    sub.add_argument("--presets-file", metavar="PATH", help="load extra presets from PATH")
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.set_defaults(handler=cmd_presets)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except CLIError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, SingularSystemError, RootConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
