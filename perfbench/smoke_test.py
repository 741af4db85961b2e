"""Quick smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that
the oracles catch a wrong value, that the reference scaling cancels a
change of host speed, that a wrong rounding or a fail verdict
counts as a known defect only inside its documented regime, that every
workload completes a short run with a well-formed result line, and that
the benchmark refuses to produce a result when the package sources are
missing.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from goldenseq import make_seeds, make_spec  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spectrum  # noqa: E402
import verify_fuzz  # noqa: E402
import harness  # noqa: E402
from harness import DEFECT, FAIL, OK  # noqa: E402


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args, cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_run():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_oracles_catch_wrong_values():
    fib = [Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]
    assert oracles.term(*fib, 100) == oracles.mod(354224848179261915075)
    assert oracles.term(*fib, 100) != oracles.mod(354224848179261915075 + 1)
    half = [Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(2)]
    assert oracles.prefix(*half, 4) == [oracles.mod(v) for v in (1, 2, Fraction(3, 2), Fraction(7, 4))]
    pascal = [[Fraction(v) for v in row] for row in ([0, 1], [0, 1, 1], [0, 1, 2, 1])]
    assert oracles.check_trapezoid(pascal, *fib, 3) is None
    pascal[2][1] += 1
    assert oracles.check_trapezoid(pascal, *fib, 3) is not None


def test_reference_scaling_cancels_a_slower_host():
    ref = harness.REFERENCE_S
    refs = [ref] * 60 + [2 * ref] * 60
    out = harness.scaled([0.01] * 60 + [0.02] * 60, refs, [0.1 * i for i in range(120)])
    assert abs(out[0] - 0.01) < 1e-12 and abs(out[-1] - 0.01) < 1e-12
    assert abs(harness.scale_factor(refs[60:]) - 0.5) < 1e-12


def test_wrong_rounding_is_known_only_past_the_headroom():
    fib = (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))
    x100 = 354224848179261915075
    assert spectrum.rounding_outcome(*fib, 10, 55, "extended", 55)[0] == OK
    assert spectrum.rounding_outcome(*fib, 10, 55, "standard", 56)[0] == FAIL
    assert spectrum.rounding_outcome(*fib, 100, x100, "standard", 354224848179261865984)[0] == DEFECT
    assert spectrum.rounding_outcome(*fib, 100, x100, "extended", 354224848179261931520)[0] == DEFECT


def test_verify_fails_are_known_only_in_the_documented_regime():
    def verdicts(check, standard, extended):
        rows = {p: [SimpleNamespace(check=check, status=status, detail="")]
                for p, status in (("standard", standard), ("extended", extended))}
        return [(p, rows[p], None) for p in ("standard", "extended")]

    fib = [Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]
    slow = [Fraction(5), Fraction(1), Fraction(3), Fraction(2, 3)], [Fraction(1)] + [Fraction(0)] * 3
    wl = verify_fuzz.Workload(1)

    def outcome(spec, rows):
        c, s = spec
        return wl._verify((make_spec(c), make_seeds(s), c, s)).check(rows)[0]

    assert outcome(slow, verdicts("ratio_convergence", "fail", "fail")) == DEFECT
    assert outcome(fib, verdicts("ratio_convergence", "fail", "fail")) == FAIL
    assert outcome(fib, verdicts("symmetric_relations", "fail", "pass")) == DEFECT
    assert outcome(fib, verdicts("genfunc_series_roundtrip", "fail", "pass")) == FAIL
    assert outcome(fib, verdicts("binet_cubic_closed_matches", "fail", "fail")) == OK
    trib = [Fraction(1)] * 3, [Fraction(0), Fraction(1), Fraction(1)]
    repeated_pair = [Fraction(3, 2), Fraction(2), Fraction(-1, 2)], [Fraction(-1), Fraction(-3), Fraction(2, 3)]
    assert outcome(repeated_pair, verdicts("cubic_ratio_root_recovery", "fail", "fail")) == DEFECT
    assert outcome(trib, verdicts("cubic_ratio_root_recovery", "fail", "fail")) == FAIL
    assert outcome(trib, verdicts("ratio_convergence", "fail", "skipped")) == DEFECT


def test_each_workload_runs_and_reports():
    for name in run.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = _bench(["--workload", name, "--seed", "7", "--seconds", "1.5", "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = _bench(["--workload", "exact-far", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
