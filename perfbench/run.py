"""goldenseq benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact-far --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from the repository root; the package is imported from ./src.  One
caller, one thread: each operation starts when the previous one has
returned and been checked against the benchmark's own oracle (outside
the timed interval).  The seed makes every input.  A run lasts --seconds
of wall time; operations are timed in CPU seconds, scaled to a reference
host speed by a fixed kernel timed before every operation (see
harness.py).  The unscaled CPU and the wall-clock figures go into the
record as well.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps each call the
benchmark makes into a goldenseq module in a span, runs the same
operations again untraced to report the tracing overhead, runs the fixed
ROADMAP probes, and reports the per-layer metrics.  Human-readable lines
go to stdout, then the result as one JSON line; the full record (and the
spans, when traced) is written under perfbench/out/.

error_rate counts every failed operation: wrong values, non-domain
exceptions, `fail` verdicts other than the binet_cubic_closed_matches
quirk, a changed mpmath.mp precision, unexpected CLI exit codes.
Failures that match a ROADMAP-documented defect, inside the regime where
it is documented (wrong Binet rounding where the benchmark's own error
bound reaches the rounding headroom, see spectrum.py; false verify
fails, see verify_fuzz.py) are "known defects": they stay in
error_rate and success_rate (= 1 - error_rate, the form BENCHMARK.json
lists, since error_rate is 0 on two workloads), but not in the JSON
`failed` count, which holds only unexpected failures and decides
`correct`.  Documented refusals are not failures.

Per-layer metrics are mean CPU ms per call, CPU time per unit of output,
or shares of the calls, verdicts or commands they are taken over, so
they do not grow with throughput.  A metric of a layer the workload
never reaches reads 0 in the result line and is listed as not
applicable in the record.  Each run is sized for at least MIN_TAIL
samples beyond p90; a run with fewer says so in its output and record.
"""

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path

from harness import (DEFECT, FAIL, OK, OUT, REFERENCE_S, REFUSED, ROOT, SRC, NullTracer, Recorder, Tracer,
                     closed_loop, environment, latency_summary, measure_setup, peak_rss_mb, replay,
                     scale_factor)
from probes import PROBES, run_probes

WORKLOADS = {
    "exact-far": "exact_far",
    "spectrum": "spectrum",
    "verify-fuzz": "verify_fuzz",
    "cli": "cli_mix",
}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_REPS = 3  # fresh interpreters before and again after the measured phase
MIN_TAIL = 10  # samples wanted beyond p90

CLI_COMMANDS = ("seq", "term", "genfunc", "trapezoid", "rowsum", "roots", "binet",
                "converge", "verify", "presets", "usage_error")

# Per-layer metrics: mean CPU ms per call, time per unit of output, or a
# share of the calls (or verdicts, or commands) they are taken over.
PER_LAYER = {
    "recurrence.term_at.ms": "ms",
    "recurrence.term_at.ns_per_bit": "ns",
    "recurrence.symbolic_term.ms": "ms",
    "recurrence.generate.ms": "ms",
    "recurrence.generate.us_per_term": "us",
    "genfunc.build_genfunc.ms": "ms",
    "genfunc.series_coefficients.ms": "ms",
    "genfunc.series_coefficients.us_per_term": "us",
    "trapezoid.build_expansion.ms": "ms",
    "trapezoid.build_expansion.us_per_entry": "us",
    "trapezoid.build_closed_form.ms": "ms",
    "trapezoid.build_closed_form.us_per_entry": "us",
    "roots.solve_roots.standard.ms": "ms",
    "roots.solve_roots.extended.ms": "ms",
    "roots.refused.share": "share",
    "binet.solve_weights.ms": "ms",
    "binet.binet_eval.ms": "ms",
    "binet.refused.share": "share",
    "binet.round_refused.share": "share",
    "binet.rounded_wrong.share": "share",
    "analysis.ratio_convergence.ms": "ms",
    "verify.verify_all.standard.ms": "ms",
    "verify.verify_all.extended.ms": "ms",
    "verify.verdicts.pass.share": "share",
    "verify.verdicts.fail.share": "share",
    "verify.false_fail.share": "share",
    "cli.interp_floor_ms": "ms",
    "cli.import_ms": "ms",
    **{"cli.%s.ms" % c: "ms" for c in CLI_COMMANDS},
    "cli.bad_exit.share": "share",
    "trace.overhead_pct": "%",
    **{name: "ms" for name in PROBES},
}
# Time per unit of output: metric -> (span, count key, unit in seconds).
PER_UNIT = {
    "recurrence.term_at.ns_per_bit": ("recurrence.term_at", "recurrence.term_at.out_bits", 1e-9),
    "recurrence.generate.us_per_term": ("recurrence.generate", "recurrence.generate.terms", 1e-6),
    "genfunc.series_coefficients.us_per_term": (
        "genfunc.series_coefficients", "genfunc.series_coefficients.terms", 1e-6),
    "trapezoid.build_expansion.us_per_entry": (
        "trapezoid.build_expansion", "trapezoid.build_expansion.entries", 1e-6),
    "trapezoid.build_closed_form.us_per_entry": (
        "trapezoid.build_closed_form", "trapezoid.build_closed_form.entries", 1e-6),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import goldenseq from this checkout's src/ and nowhere else."""
    if not (SRC / "goldenseq" / "__init__.py").is_file():
        sys.exit("perfbench: no goldenseq sources under %s; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import goldenseq

    if Path(goldenseq.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: goldenseq was imported from %s, not %s" % (goldenseq.__file__, SRC))


def layer_values(tracer, rec, overhead_pct, probes):
    """Per-layer metric -> value, or None where this workload never
    exercises the layer (the result line then reports 0 for it).  Times
    are scaled by the run's median reference factor."""
    factor = scale_factor(rec.refs)
    spans = {name: (calls, mean_ms * factor) for name, (calls, mean_ms) in tracer.layer_stats().items()}
    counts = rec.counts

    def calls(*names):
        return sum(spans.get(name, (0, 0.0))[0] for name in names)

    def share(part, whole):
        return part / whole if whole else None

    refused = {k.split("@", 1)[1]: v for k, v in counts.items() if k.startswith("refused@")}
    verdicts = sum(counts.get("verify.verdicts." + v, 0) for v in ("pass", "skipped", "fail"))
    values = {name + ".ms": mean_ms for name, (_, mean_ms) in spans.items()}
    for metric, (span, key, unit) in PER_UNIT.items():
        n_calls, mean_ms = spans.get(span, (0, 0.0))
        values[metric] = share(n_calls * mean_ms / 1000 / unit, counts.get(key, 0))
    solve_roots = ("roots.solve_roots.standard", "roots.solve_roots.extended")
    values.update({
        "roots.refused.share": share(sum(v for k, v in refused.items() if k.startswith("roots.")),
                                     calls(*solve_roots)),
        "binet.refused.share": share(refused.get("binet.solve_weights", 0), calls("binet.solve_weights")),
        "binet.round_refused.share": share(refused.get("binet.nearest_integer", 0),
                                           calls("binet.nearest_integer")),
        "binet.rounded_wrong.share": share(counts.get("binet.rounded_wrong", 0), counts.get("binet.rounded", 0)),
        "verify.verdicts.pass.share": share(counts.get("verify.verdicts.pass", 0), verdicts),
        "verify.verdicts.fail.share": share(counts.get("verify.verdicts.fail", 0), verdicts),
        "verify.false_fail.share": share(counts.get("verify.false_fail", 0), verdicts),
        "cli.interp_floor_ms": values.get("cli.interp_floor.ms"),
        "cli.import_ms": values.get("cli.import.ms"),
        "cli.bad_exit.share": share(counts.get("cli.bad_exit", 0), calls(*("cli.%s" % c for c in CLI_COMMANDS))),
        "trace.overhead_pct": overhead_pct,
    })
    values.update({name: ms * factor for name, (_, ms) in probes.items()})
    return {name: values.get(name) for name in PER_LAYER}


def run_one(args):
    import_package()
    module = importlib.import_module(WORKLOADS[args.workload])
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    wl = module.Workload(args.seed)

    def set_up(reps):
        if hasattr(wl, "measure_setup"):
            return wl.measure_setup(reps)
        return measure_setup(wl.setup_payload(), reps)

    # Set-up is sampled before and after the measured phase, so its median spans the run.
    setup_samples = set_up(SETUP_REPS)
    wl.prepare()
    stream = wl.ops()
    closed_loop(stream, min(0.5, args.seconds / 10), NullTracer(), Recorder())  # warm-up

    rec = Recorder()
    tracer = Tracer() if args.trace else NullTracer()
    overhead_pct, probes = 0.0, {}
    if args.trace:
        closed_loop(stream, args.seconds / 2, tracer, rec)
        untraced = replay(rec.ops, NullTracer())
        overhead_pct = 100 * (sum(rec.scaled()) - untraced) / untraced
        probes = run_probes()
    else:
        closed_loop(stream, args.seconds, tracer, rec)
    if rec.attempted == 0:
        sys.exit("perfbench: no operation completed")
    setup_samples += set_up(SETUP_REPS)
    setup_s = statistics.median(setup_samples)

    latencies = rec.scaled()
    timed = sum(latencies)
    p50, p90, n, beyond = latency_summary(latencies)
    cpu_p50, cpu_p90, _, _ = latency_summary(rec.latencies)
    wall_p50, wall_p90, _, _ = latency_summary(rec.walls)
    factor = scale_factor(rec.refs)
    unexpected = rec.outcomes.get(FAIL, 0)
    known = rec.outcomes.get(DEFECT, 0)
    error_rate = (unexpected + known) / n
    e2e = {
        "ops_per_s": n / timed,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_rate": 1 - error_rate,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=getattr(wl, "children", False)),
    }
    per_layer = layer_values(tracer, rec, overhead_pct, probes)
    not_applicable = [name for name, value in per_layer.items() if value is None]
    tail_ok = beyond >= MIN_TAIL

    print("goldenseq benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env: commit=%s src_sha256=%s python=%s mpmath=%s host=%s nproc=%s"
          % (env["commit"], env["src_sha256"][:12], env["python"], env["mpmath"],
             env["host"], env["nproc"]))
    print("operations: attempted=%d ok=%d refused=%d known_defect=%d unexpected_fail=%d"
          % (n, rec.outcomes.get(OK, 0), rec.outcomes.get(REFUSED, 0), known, unexpected))
    print("  by kind: " + ", ".join("%s=%d" % kv for kv in sorted(rec.kinds.items())))
    print("  times are CPU times scaled to the reference host; median scale factor %.4f" % factor)
    print("  %-15s %12.4f 1/s    (%d ops in %.2f scaled CPU s; unscaled CPU: %.4f 1/s, p50 %.4f ms,"
          " p90 %.4f ms; wall: %.4f 1/s, p50 %.4f ms, p90 %.4f ms)"
          % ("ops_per_s", e2e["ops_per_s"], n, timed, n / sum(rec.latencies), cpu_p50, cpu_p90,
             n / sum(rec.walls), wall_p50, wall_p90))
    print("  %-15s %12.4f ms     (n=%d)" % ("latency_p50_ms", p50, n))
    print("  %-15s %12.4f ms     (n=%d, %d beyond p90)" % ("latency_p90_ms", p90, n, beyond))
    if not tail_ok:
        print("  warning: only %d samples beyond p90 (want %d); run longer for a steady p90" % (beyond, MIN_TAIL))
    print("  %-15s %12.4f share  (%d of %d failed: %d known defect, %d unexpected)"
          % ("error_rate", error_rate, unexpected + known, n, known, unexpected))
    print("  %-15s %12.4f share" % ("success_rate", e2e["success_rate"]))
    print("  %-15s %12.4f s      (median of %d fresh interpreters)" % ("setup_s", setup_s, len(setup_samples)))
    print("  %-15s %12.4f MB" % ("peak_rss_mb", e2e["peak_rss_mb"]))
    if args.trace:
        print("per-layer (traced run, tracing overhead %.2f%%):" % overhead_pct)
        spans = tracer.layer_stats()
        for name, value in per_layer.items():
            if value is not None:
                calls = spans.get(name[:-len(".ms")], (None,))[0] if name.endswith(".ms") else None
                print("  %-40s %14.4f %-5s%s" % (name, value, PER_LAYER[name],
                                                 "  (%d calls)" % calls if calls else ""))
        print("  not applicable to this workload (reported as 0): " + ", ".join(not_applicable))
        print("ROADMAP item 1 table:")
        for name, (row, ms) in probes.items():
            print("  %-40s %12.3f ms  (%s)" % (row, ms, name))
    for note in rec.notes[:8]:
        print("  %s %s: %s" % (note["outcome"], note["kind"], note["note"]))

    record = {
        "env": env,
        "operations": {"attempted": n, "outcomes": rec.outcomes, "by_kind": rec.kinds},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "samples": n} for k, v in e2e.items()},
        "p90_tail": {"samples_beyond": beyond, "wanted": MIN_TAIL, "ok": tail_ok},
        "unscaled_cpu": {"ops_per_s": n / sum(rec.latencies), "latency_p50_ms": cpu_p50,
                         "latency_p90_ms": cpu_p90},
        "wall_clock": {"ops_per_s": n / sum(rec.walls), "latency_p50_ms": wall_p50,
                       "latency_p90_ms": wall_p90},
        "reference": {"kernel_s_reference_host": REFERENCE_S, "median_s": statistics.median(rec.refs),
                      "scale_factor": factor},
        "error_rate": {"value": error_rate, "failed": unexpected + known,
                       "known_defect": known, "unexpected": unexpected, "attempted": n},
        "setup_samples_s": setup_samples,
        "samples": {"kind": [op.kind for op in rec.ops], "cpu_s": rec.latencies, "reference_s": rec.refs,
                    "start_s": [t - rec.starts[0] for t in rec.starts]},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer.items()} if args.trace else None,
        "per_layer_not_applicable": not_applicable if args.trace else None,
        "layer_calls": {name: calls for name, (calls, _) in tracer.layer_stats().items()},
        "layer_counts": rec.counts,
        "roadmap_table": {row: {"ms": ms, "metric": name} for name, (row, ms) in probes.items()},
        "side_probes_ms": {k: [1000 * s for s in v] for k, v in rec.side.items()},
        "notes": rec.notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write(OUT / (stem + ".spans.jsonl"))
    print("record: %s" % (OUT / (stem + ".json")).relative_to(ROOT))

    if args.trace:
        metrics = {k: {"value": v or 0, "unit": PER_LAYER[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": unexpected == 0, "attempted": n, "failed": unexpected, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    import subprocess

    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: workload %s failed" % name)
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
