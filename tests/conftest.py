"""Shared pytest wiring for the acceptance-criteria report.

Each acceptance test wraps its body in the `criterion` context manager,
which records the outcome and enforces the runtime budget.  A terminal
summary hook then prints one PASS/FAIL line per criterion so the final
test log shows the acceptance status at a glance.

Every test also checks that the global mpmath precision is the same
after it as before: the package must never change it as a side effect.

`fresh_python` runs a script in a new interpreter with src/ on its path,
for tests that need a process where neither mpmath nor goldenseq has
been imported yet (this one has imported both).
"""

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_criterion_results: dict = {}


@pytest.fixture(autouse=True)
def global_mpmath_precision_unchanged():
    before = mpmath.mp.prec
    yield
    assert mpmath.mp.prec == before, (
        "global mpmath precision changed from %d to %d bits" % (before, mpmath.mp.prec)
    )


@pytest.fixture
def fresh_python():
    def run(script, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture
def criterion():
    @contextlib.contextmanager
    def _criterion(number: int, title: str, budget_seconds: float):
        _criterion_results[number] = (title, False)
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            "criterion %d took %.2fs, over its %.0fs budget"
            % (number, elapsed, budget_seconds)
        )
        _criterion_results[number] = (title, True)

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_results):
        title, passed = _criterion_results[number]
        terminalreporter.write_line(
            "[criterion %d] %s: %s" % (number, title, "PASS" if passed else "FAIL")
        )
