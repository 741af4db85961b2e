"""Set-up probe run in a fresh interpreter by harness.measure_setup.

Reads {"specs": [[coeffs, seeds], ...]} as JSON on stdin, then times
importing goldenseq and building every spec and seed vector, and prints
the CPU seconds taken, then the median CPU time of the benchmark's
reference kernel in this same process, so the caller can scale the
first figure to the reference host.
"""

import json
import statistics
import sys
import time
from pathlib import Path

payload = json.load(sys.stdin)
src = Path(__file__).resolve().parent.parent / "src"

t0 = time.process_time()
import goldenseq  # noqa: E402  (the import is what is being timed)

if Path(goldenseq.__file__).resolve().parent.parent != src:
    sys.exit("goldenseq was not imported from %s" % src)
built = [(goldenseq.make_spec(c), goldenseq.make_seeds(s)) for c, s in payload["specs"]]
elapsed = time.process_time() - t0

from harness import reference_seconds  # noqa: E402  (after the timed part: it imports mpmath)

reference_seconds()  # warm-up
ref = statistics.median(reference_seconds() for _ in range(5))
print(len(built), repr(elapsed), repr(ref))
