"""Set-up time in a fresh interpreter: ``import thetaquartic`` through one warm-up op.

    python3 perfbench/setup_probe.py WORKLOAD PAYLOAD_JSON

Prints the seconds taken and the reference kernel's time in milliseconds,
measured right after.  The payload (a period matrix, or CLI arguments)
is written by ``run.py`` and read with the standard library before timing.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

workload, payload_path = sys.argv[1], sys.argv[2]
with open(payload_path) as fh:
    payload = json.load(fh)

start = time.perf_counter()
import thetaquartic  # noqa: E402,F401

import workloads  # noqa: E402

workloads.run_warmup(workload, payload)
elapsed = time.perf_counter() - start

import reference  # noqa: E402

print(elapsed, reference.kernel_ms(repeats=5))
