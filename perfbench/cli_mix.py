"""cli: one process per command, the way a command-line user pays for it.

Why: per-process cost (interpreter start, imports, argument parsing) is
the CLI user's latency and the in-process workloads never see it.  The
mix holds both exact subcommands (seq, term, genfunc, trapezoid, rowsum)
and floating ones (roots, binet --k, converge, in both precisions), plus
verify --format json, presets with the sample file and usage errors that
must exit 2, because lazy imports would move the first kind and not the
second.

No console script is installed, so each command runs as
`python -c "...goldenseq.cli.main..."` with PYTHONPATH=src.  Every cycle
also runs `python -c pass` and `python -c "import goldenseq"` at a seeded
position between the commands: the interpreter floor drifts between
batches, so it is measured in the same run.  Exit codes are checked, and
printed exact values are compared with the library's own results.
"""

import json
import random
from fractions import Fraction

from goldenseq import (
    BUILTIN_PRESETS,
    build_closed_form,
    build_expansion,
    build_genfunc,
    generate,
    load_presets,
    make_seeds,
    make_spec,
    ratio_convergence,
    row_sum,
    series_coefficients,
    solve_roots,
    solve_weights,
    term_at,
    verify_all,
)

import oracles
from harness import (CLI_LAUNCH, DEFECT, FAIL, OK, ROOT, Op, documented_errors, reference_seconds, run_child,
                     scale_factor)

PRESETS_FILE = "presets.sample.conf"
USAGE_ERRORS = (
    ["term", "--preset", "nosuch", "--k", "3"],
    ["seq", "--coeffs", "1,x", "--seeds", "0,1"],
    ["term", "--preset", "fibonacci"],
    ["seq", "--preset", "fibonacci", "--coeffs", "1,1"],
    ["roots", "--coeffs", "1.5,1"],
)
SETUP_COMMAND = ["presets", "--presets-file", PRESETS_FILE]


def _side(kind, args):
    def check(proc):
        if proc.returncode != 0:
            return FAIL, "%s exited %d" % (kind, proc.returncode), {}
        return OK, "", {}

    return Op(kind, lambda tr: tr.call(kind, run_child, args)[1], check, counted=False)


class Workload:
    name = "cli"
    children = True  # peak RSS is that of the command processes

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def measure_setup(self, reps: int):
        """CPU seconds of `reps` fresh `presets --presets-file` processes,
        each scaled by reference kernel times taken just before it."""
        samples = []
        for _ in range(reps):
            refs = [reference_seconds() for _ in range(5)]
            seconds, proc = run_child(["-c", CLI_LAUNCH] + SETUP_COMMAND)
            if proc.returncode != 0:
                raise RuntimeError("cold CLI invocation failed: %s" % proc.stderr[-300:])
            samples.append(seconds * scale_factor(refs))
        return samples

    def prepare(self):
        self.catalog = load_presets(ROOT / PRESETS_FILE)

    def _source(self):
        """A preset (builtin or from the sample file) as CLI args plus spec and seeds."""
        name = self.rng.choice(sorted(self.catalog))
        preset = self.catalog[name]
        args = ["--preset", name]
        if name not in BUILTIN_PRESETS:
            args += ["--presets-file", PRESETS_FILE]
        return args, make_spec(preset.coeffs), make_seeds(preset.seeds)

    def ops(self):
        while True:
            cycle = [
                _side("cli.interp_floor", ["-c", "pass"]),
                _side("cli.import", ["-c", "import goldenseq"]),
                self._seq(), self._term(), self._genfunc(), self._trapezoid(), self._rowsum(),
                self._presets(), self._verify(),
                *(self._usage(args) for args in self.rng.sample(USAGE_ERRORS, 2)),
            ]
            for precision in ("standard", "extended"):
                cycle += [self._roots(precision), self._binet(precision), self._converge(precision)]
            self.rng.shuffle(cycle)
            yield from cycle

    def _command(self, kind, argv, library, expect):
        """Op running `goldenseq <argv>`.

        library() computes the same thing in this process; if it raises a
        documented domain error the command must exit 2, otherwise
        expect(stdout, value) gives (exit code, problem or None).
        """
        shown = " ".join(argv)
        try:
            value = library()
        except documented_errors():
            expect = lambda stdout, value: (2, None)  # noqa: E731
            value = None

        def check(proc):
            code, problem = expect(proc.stdout, value)
            if proc.returncode != code:
                return FAIL, "%s exited %d, expected %d: %s" % (
                    shown, proc.returncode, code, proc.stderr.strip()[-200:]), {"cli.bad_exit": 1}
            if problem:
                outcome = DEFECT if problem.startswith("known defect") else FAIL
                return outcome, "%s: %s" % (shown, problem), {}
            return OK, "", {}

        return Op("cli." + kind, lambda tr: tr.call("cli." + kind, run_child, ["-c", CLI_LAUNCH] + argv)[1], check)

    @staticmethod
    def _lines_equal(stdout, expected):
        got = stdout.splitlines()
        return 0, None if got == expected else "printed %r, library gives %r" % (got[:3], expected[:3])

    def _seq(self):
        src, spec, seeds = self._source()
        count = self.rng.randint(5, 40)
        return self._command(
            "seq", ["seq"] + src + ["--count", str(count)],
            lambda: [str(t) for t in generate(spec, seeds, count)], self._lines_equal)

    def _term(self):
        src, spec, seeds = self._source()
        k = self.rng.randint(10, 2000)
        return self._command(
            "term", ["term"] + src + ["--k", str(k)],
            lambda: [str(term_at(spec, seeds, k))], self._lines_equal)

    def _genfunc(self):
        src, spec, seeds = self._source()
        count = self.rng.randint(4, 16)

        def library():
            gf = build_genfunc(spec, seeds)
            return ["f(z) = %s" % gf.display(),
                    "series: %s" % ", ".join(str(c) for c in series_coefficients(gf, count))]

        return self._command("genfunc", ["genfunc"] + src + ["--count", str(count)], library, self._lines_equal)

    def _trapezoid(self):
        src, spec, seeds = self._source()
        rows = self.rng.randint(3, 10)
        closed = spec.degree in (2, 3) and self.rng.random() < 0.5

        def library():
            trap = (build_closed_form if closed else build_expansion)(spec, seeds, rows)
            return [" ".join(str(v) for v in row) for row in trap.rows]

        args = src + ["--rows", str(rows), "--method", "closed" if closed else "expansion"]
        return self._command("trapezoid", ["trapezoid"] + args, library, self._lines_equal)

    def _rowsum(self):
        src, spec, seeds = self._source()
        rows = self.rng.randint(3, 10)
        return self._command(
            "rowsum", ["rowsum"] + src + ["--rows", str(rows)],
            lambda: ["row %d: %s" % (i, row_sum(i, spec, seeds)) for i in range(rows)], self._lines_equal)

    def _presets(self):
        def expect(stdout, names):
            got = [line.split()[0] for line in stdout.splitlines() if line.strip()]
            return 0, None if got == names else "listed %r, expected %r" % (got, names)

        return self._command("presets", ["presets", "--presets-file", PRESETS_FILE],
                             lambda: list(self.catalog), expect)

    def _verify(self):
        src, spec, seeds = self._source()
        precision = self.rng.choice(("standard", "extended"))

        def expect(stdout, checks):
            code = 1 if any(c.status == "fail" for c in checks) else 0
            try:
                got = [(row["check"], row["status"]) for row in json.loads(stdout)]
            except (ValueError, KeyError, TypeError) as exc:
                return code, "unparsable JSON: %s" % exc
            same = got == [(c.check, c.status) for c in checks]
            return code, None if same else "verdicts differ from verify_all"

        return self._command("verify", ["verify"] + src + ["--format", "json", "--precision", precision],
                             lambda: verify_all(spec, seeds, precision=precision), expect)

    def _roots(self, precision):
        src, spec, _ = self._source()

        def expect(stdout, rootset):
            lines = stdout.splitlines()
            ok = len(lines) == rootset.degree + 1 and all(
                line.startswith("root[%d] = " % i) for i, line in enumerate(lines[:-1])
            ) and lines[-1].startswith("dominance: ")
            return 0, None if ok else "unexpected roots output %r" % lines[:2]

        return self._command("roots", ["roots"] + src + ["--precision", precision],
                             lambda: solve_roots(spec, precision), expect)

    def _binet(self, precision):
        src, spec, seeds = self._source()
        k = self.rng.randint(5, 100)

        def library():
            solve_weights(spec, seeds, solve_roots(spec, precision))
            return term_at(spec, seeds, k)

        def expect(stdout, exact):
            lines = stdout.splitlines()
            if not any(line.startswith("value(k=%d) = " % k) for line in lines):
                return 0, "no value line"
            rounded = [line.split(" = ", 1)[1] for line in lines if line.startswith("rounded = ")]
            if rounded and Fraction(rounded[0]) != exact:
                bound = oracles.binet_error_bound(spec.coeffs, tuple(seeds), k, exact, precision)
                known = "known defect: " if bound >= oracles.HEADROOM else ""
                return 0, "%srounded x_%d printed as %s, exact %s, error bound %.3g" % (
                    known, k, rounded[0], exact, bound)
            return 0, None

        return self._command("binet", ["binet"] + src + ["--k", str(k), "--precision", precision], library, expect)

    def _converge(self, precision):
        src, spec, seeds = self._source()

        def expect(stdout, report):
            line = "estimate  = %s" % report.final_estimate
            return 0, None if line in stdout.splitlines() else "estimate differs from ratio_convergence"

        return self._command("converge", ["converge"] + src + ["--precision", precision],
                             lambda: ratio_convergence(spec, seeds, 60, precision), expect)

    def _usage(self, args):
        return self._command("usage_error", args, lambda: None, lambda stdout, value: (2, None))
