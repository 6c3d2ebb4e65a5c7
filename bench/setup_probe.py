"""Time one fresh-interpreter set-up: ``import ewhnexus`` plus config loads.

Usage:  python3 bench/setup_probe.py SRC_DIR [--cli] CONFIG...

Prints one JSON line with ``import_s``, ``config_s`` and ``slowdown``, the
machine's slowdown read from the reference kernel in this same process just
before and after.  Interpreter start-up and the benchmark's own input
generation are outside both timings.
"""

import json
import sys
import time

from reference import NOMINAL_S, reference_kernel

src, args = sys.argv[1], sys.argv[2:]
with_cli = args[:1] == ["--cli"]
sources = args[1:] if with_cli else args
sys.path.insert(0, src)

for _ in range(3):   # warm the kernel's code and allocator in this fresh process
    reference_kernel()
before = [reference_kernel() for _ in range(5)]

t0 = time.perf_counter()
import ewhnexus  # noqa: E402
if with_cli:
    import ewhnexus.cli  # noqa: E402,F401
t1 = time.perf_counter()
for source in sources:
    ewhnexus.load_config(source)
t2 = time.perf_counter()

after = [reference_kernel() for _ in range(5)]
slowdown = sum(before + after) / len(before + after) / NOMINAL_S
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "slowdown": slowdown}))
