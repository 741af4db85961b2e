"""Fixed probes, one per row of the baseline table in ROADMAP item 1.

Run only in traced runs, after the measured phase, so they never touch
the end-to-end figures.  Each probe reports the median of up to three
calls within about half a CPU second, in CPU time like every other figure.
"""

import statistics

from harness import CLI_LAUNCH, cpu_seconds, run_child

CLI_SEQ = ["-c", CLI_LAUNCH, "seq", "--preset", "fibonacci", "--count", "10"]


def _checked_child(args):
    _, proc = run_child(args)
    if proc.returncode != 0:
        raise RuntimeError("probe process exited %d: %s" % (proc.returncode, proc.stderr[-300:]))


# per-layer metric name -> (the ROADMAP row it reproduces, thunk(goldenseq, fixtures))
PROBES = {
    "probe.term_at.fib_1e5.ms": ("term_at fib k=10^5", lambda g, f: g.term_at(*f["fib"], 10**5)),
    "probe.term_at.fib_1e6.ms": ("term_at fib k=10^6", lambda g, f: g.term_at(*f["fib"], 10**6)),
    "probe.term_at.deg8_1e4.ms": ("term_at degree 8, k=10^4", lambda g, f: g.term_at(*f["deg8"], 10**4)),
    "probe.generate.fib_1e4.ms": ("generate fib 10^4 terms", lambda g, f: g.generate(*f["fib"], 10**4)),
    "probe.build_expansion.trib_60.ms": (
        "build_expansion tribonacci 60 rows", lambda g, f: g.build_expansion(*f["trib"], 60)),
    "probe.build_closed_form.trib_30.ms": (
        "build_closed_form tribonacci 30 rows", lambda g, f: g.build_closed_form(*f["trib"], 30)),
    "probe.solve_roots.trib.standard.ms": (
        "solve_roots tribonacci, standard", lambda g, f: g.solve_roots(f["trib"][0], "standard")),
    "probe.solve_roots.trib.extended.ms": (
        "solve_roots tribonacci, extended", lambda g, f: g.solve_roots(f["trib"][0], "extended")),
    "probe.aberth.deg20.standard.ms": (
        "Aberth degree 20, standard", lambda g, f: g.general_roots(f["deg20"], "standard")),
    "probe.aberth.deg20.extended.ms": (
        "Aberth degree 20, extended", lambda g, f: g.general_roots(f["deg20"], "extended")),
    "probe.verify_all.trib.ms": ("verify_all tribonacci", lambda g, f: g.verify_all(*f["trib"])),
    "probe.cli.seq.ms": ("CLI seq", lambda g, f: _checked_child(CLI_SEQ)),
    "probe.cli.floor.ms": ("CLI floor: python -c pass", lambda g, f: _checked_child(["-c", "pass"])),
}


def run_probes(budget_s: float = 0.5):
    """name -> (ROADMAP row, median ms)."""
    import goldenseq as g

    fixtures = {
        "fib": (g.make_spec((1, 1)), g.make_seeds((0, 1))),
        "trib": (g.make_spec((1, 1, 1)), g.make_seeds((0, 1, 1))),
        "deg8": (g.make_spec((1,) * 8), g.make_seeds((0,) * 7 + (1,))),
        "deg20": g.make_spec((1,) * 20),
    }
    out = {}
    for name, (row, thunk) in PROBES.items():
        samples = []
        while len(samples) < 3 and sum(samples) < budget_s:
            t0 = cpu_seconds()
            thunk(g, fixtures)
            samples.append(cpu_seconds() - t0)
        out[name] = (row, 1000 * statistics.median(samples))
    return out
