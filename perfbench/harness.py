"""Measurement plumbing shared by the workloads.

One caller, one thread, closed loop: the next operation starts only when
the previous one has returned and been checked.  Only the library calls
are timed; oracle checks run between operations.

Operations are timed in CPU seconds (this process plus the command
processes it waited for).  Every operation is single-threaded and
CPU-bound, so on an idle machine CPU time and wall time agree; on a
shared host wall time also counts the time the CPU was given to other
tenants, which moved whole runs by 15-40% on a shared two-vCPU virtual
machine.  Wall-clock figures are kept in the run record next to the CPU
ones.

CPU time itself still moves with the host: on that machine the same
work took 10-30% more CPU time for seconds to minutes at a stretch
(cache and hyperthread contention from other tenants, which no clock
subtracts).  So a fixed reference kernel that runs no goldenseq code
(interpreter, big-integer and Fraction, and mpmath work) runs before
every operation, outside its timed interval, and every reported time is
scaled to a host on which that kernel takes REFERENCE_S: an operation's
CPU time is multiplied by REFERENCE_S over the median kernel time taken
within REF_HALF_WINDOW_S of wall time of its start.  The host's speed
changes within seconds, so a window of about 3 s tracked it better than
one factor per run.  Over ten runs per workload on a two-vCPU shared
host, this brought the spread (IQR/median) of ops/s from 0.08-0.24
unscaled to 0.02-0.05, and that of p50 and p90 to at most 0.11.  The
unscaled CPU figures are kept in the run record.
"""

import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# No console script is installed; a CLI process is `python -c CLI_LAUNCH <args>` with src/ on the path.
CLI_LAUNCH = "import sys; from goldenseq.cli import main; sys.exit(main(sys.argv[1:]))"

# Outcome of one operation.  DEFECT is a failure that matches a defect the
# ROADMAP documents (wrong Binet rounding, false verify fails):
# it counts in error_rate but not as an unexpected failure.
OK, REFUSED, DEFECT, FAIL = "ok", "refused", "defect", "fail"
SEVERITY = {OK: 0, REFUSED: 1, DEFECT: 2, FAIL: 3}


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and its waited-for children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


# Median CPU time of reference_kernel() on a quiet two-vCPU host (Python
# 3.11, mpmath with its pure-Python backend); fixed, so that figures taken
# on different days compare.
REFERENCE_S = 0.0036
REF_HALF_WINDOW_S = 1.5
REF_MIN_SAMPLES = 11  # the window widens to REF_MIN_SAMPLES // 2 samples on either side around long operations
_REF_MP = mpmath.MPContext()
_REF_MP.dps = 30
_REF_A = 3**3000 + 12345
_REF_B = 7**2000 + 99


def reference_kernel():
    """Fixed work in roughly equal thirds: interpreter loops, big integers
    and Fractions, mpmath complex arithmetic.  Calls no goldenseq code, so
    a change to the package cannot move it."""
    table, acc = {}, 0
    for i in range(9000):
        acc += i * 3 % 7
        table[i & 127] = acc
    x = _REF_A
    for _ in range(8):
        x = (x * _REF_B) % _REF_A + _REF_B
    q = Fraction(x % 10**40, _REF_B % 10**30)
    for i in range(1, 60):
        q = q * Fraction(i, i + 1) + Fraction(1, i)
    z = _REF_MP.mpc(1.1, 0.3)
    for _ in range(45):
        z = z * _REF_MP.mpc(0.999, 0.01) + 1 / (z + 3)
    return acc, q, z


def reference_seconds() -> float:
    t0 = cpu_seconds()
    reference_kernel()
    return cpu_seconds() - t0


def scale_factor(refs) -> float:
    """REFERENCE_S over the median reference time: CPU seconds measured
    times this factor read as CPU seconds on the reference host."""
    return REFERENCE_S / statistics.median(refs)


def scaled(latencies, refs, starts):
    """Each latency times the scale factor of the reference samples taken
    within REF_HALF_WINDOW_S of its start, widened to at least
    REF_MIN_SAMPLES // 2 samples on either side.  refs[i] was taken just
    before the operation that started at wall time starts[i] and took
    latencies[i]."""
    half = REF_MIN_SAMPLES // 2
    out = []
    for i, value in enumerate(latencies):
        lo = min(bisect.bisect_left(starts, starts[i] - REF_HALF_WINDOW_S), i - half)
        hi = max(bisect.bisect_right(starts, starts[i] + REF_HALF_WINDOW_S), i + half + 1)
        out.append(value * scale_factor(refs[max(0, lo):hi]))
    return out


class NullTracer:
    """Untraced calls; remembers only which call ran last, for refusals."""

    current = None

    def begin_op(self, op_id, kind):
        pass

    def end_op(self):
        pass

    def call(self, name, fn, *args, **kwargs):
        self.current = name
        return fn(*args, **kwargs)

    def layer_stats(self):
        return {}


class Tracer(NullTracer):
    """Spans (name, start, end, parent index, operation id) kept in memory;
    start and end read cpu_seconds()."""

    def __init__(self):
        self.spans = []
        self._op = None
        self._parent = None

    def begin_op(self, op_id, kind):
        self._op = op_id
        self._parent = len(self.spans)
        self.spans.append(["op." + kind, cpu_seconds(), None, None, op_id])

    def end_op(self):
        self.spans[self._parent][2] = cpu_seconds()

    def call(self, name, fn, *args, **kwargs):
        self.current = name
        start = cpu_seconds()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, cpu_seconds(), self._parent, self._op])

    def layer_stats(self):
        """name -> (calls, mean ms) over the library-call spans."""
        acc = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                calls, total = acc.get(name, (0, 0.0))
                acc[name] = (calls + 1, total + end - start)
        return {name: (calls, 1000 * total / calls) for name, (calls, total) in acc.items()}

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op_id})
                    + "\n"
                )


@dataclass
class Op:
    """One operation: `run(tracer)` makes the library calls and is timed;
    `check(result)` returns (outcome, note, counts) and is not."""

    kind: str
    run: object
    check: object
    counted: bool = True  # False for side probes (cli interpreter floor, bare import)


@dataclass
class Recorder:
    latencies: list = field(default_factory=list)  # CPU seconds
    refs: list = field(default_factory=list)  # reference_kernel() CPU seconds, taken before each latency
    starts: list = field(default_factory=list)  # wall time each operation started
    walls: list = field(default_factory=list)  # wall seconds
    outcomes: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    side: dict = field(default_factory=dict)

    def add(self, op, seconds, ref, start, wall, outcome, note, counts):
        if not op.counted:
            self.side.setdefault(op.kind, []).append(seconds)
            if outcome != OK:
                self.notes.append({"kind": op.kind, "outcome": outcome, "note": note})
            return
        self.latencies.append(seconds)
        self.refs.append(ref)
        self.starts.append(start)
        self.walls.append(wall)
        self.ops.append(op)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        if outcome != OK and len(self.notes) < 40:
            self.notes.append({"kind": op.kind, "outcome": outcome, "note": note})

    @property
    def attempted(self):
        return len(self.latencies)

    def scaled(self):
        """Latencies in CPU seconds on the reference host (see scaled())."""
        return scaled(self.latencies, self.refs, self.starts)


def documented_errors():
    """Exception types a well-formed input may raise: errors.py and ValueError."""
    from goldenseq import errors

    return tuple(
        v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
    ) + (ValueError,)


PRECISIONS = ("standard", "extended")


def both_precisions(tracer, fn):
    """Run fn(precision) in standard, then extended precision.

    A documented refusal in one precision does not stop the other.
    Returns [(precision, value, refusal)], refusal being None or
    (span name that raised, message).
    """
    documented = documented_errors()
    out = []
    for precision in PRECISIONS:
        try:
            out.append((precision, fn(precision), None))
        except documented as exc:
            out.append((precision, None, (tracer.current, "%s: %s" % (type(exc).__name__, exc))))
    return out


def combine(results, judge):
    """Outcome of a both-precision operation: the worst of judge(precision,
    value) over the precisions that answered; refusals are counted."""
    outcome, notes, counts = OK, [], {}
    for precision, value, refusal in results:
        if refusal is None:
            got, note, extra = judge(precision, value)
        else:
            got, note, extra = REFUSED, refusal[1], {"refused@" + str(refusal[0]): 1}
        for key, v in extra.items():
            counts[key] = counts.get(key, 0) + v
        if note:
            notes.append("%s: %s" % (precision, note))
        outcome = max(outcome, got, key=SEVERITY.get)
    return outcome, "; ".join(notes), counts


def closed_loop(ops, seconds: float, tracer, rec: Recorder, check=True):
    """Run operations from `ops` until `seconds` of wall time have passed."""
    documented = documented_errors()
    mp = mpmath.mp
    deadline = time.perf_counter() + seconds
    for op_id, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            break
        ref = reference_seconds()
        state = (mp.dps, mp.prec)
        tracer.current = None
        tracer.begin_op(op_id, op.kind)
        w0, t0 = time.perf_counter(), cpu_seconds()
        try:
            result, error = op.run(tracer), None
        except Exception as exc:  # classified below, never swallowed silently
            result, error = None, exc
        elapsed, wall = cpu_seconds() - t0, time.perf_counter() - w0
        tracer.end_op()
        if not check:
            rec.latencies.append(elapsed)
            rec.refs.append(ref)
            rec.starts.append(w0)
            continue
        counts = {}
        if (mp.dps, mp.prec) != state:
            outcome, note = FAIL, "mpmath.mp precision changed from %r to %r" % (state, (mp.dps, mp.prec))
            mp.prec = state[1]
        elif error is None:
            outcome, note, counts = op.check(result)
        elif isinstance(error, documented):
            outcome, note = REFUSED, "%s: %s" % (type(error).__name__, error)
            counts = {"refused@" + str(tracer.current): 1}
        else:
            outcome, note = FAIL, "%s in %s: %s" % (type(error).__name__, tracer.current, error)
        rec.add(op, elapsed, ref, w0, wall, outcome, note, counts)


def replay(ops, tracer):
    """Time the given operations again, unchecked; returns total scaled seconds."""
    rec = Recorder()
    closed_loop(ops, float("inf"), tracer, rec, check=False)
    return sum(rec.scaled())


def latency_summary(latencies):
    ms = sorted(1000 * v for v in latencies)
    n = len(ms)
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 2 else ms[0]
    beyond = sum(1 for v in ms if v > p90)
    return p50, p90, n, beyond


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_child(args, stdin_text=None, timeout=60):
    """Run a fresh interpreter with src/ on its path; returns (CPU seconds, CompletedProcess)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = cpu_seconds()
    proc = subprocess.run(
        [sys.executable] + list(args),
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )
    return cpu_seconds() - t0, proc


def measure_setup(payload: dict, reps: int):
    """Scaled CPU seconds of import + spec building in `reps` fresh
    interpreters (setup_child.py, which also times the reference kernel)."""
    text = json.dumps(payload)
    samples = []
    for _ in range(reps):
        _, proc = run_child([str(HERE / "setup_child.py")], stdin_text=text)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % proc.stderr.strip()[-400:])
        seconds, ref = map(float, proc.stdout.split()[-2:])
        samples.append(seconds * REFERENCE_S / ref)
    return samples


def environment(workload: str, seed: int, seconds: int, trace: int):
    digest = hashlib.sha256()
    for path in sorted((SRC / "goldenseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
