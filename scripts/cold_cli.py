"""Cold-start time of the CLI: fresh ``bitangents`` processes, timed from outside.

    python3 scripts/cold_cli.py [-n N]

Runs ``python -m thetaquartic.cli bitangents --tau TAU`` N times, then N
times more with ``--system-index 5``, each in a new interpreter, and
prints the median wall time of each in seconds.  Every run must exit 0.
TAU is ``random-tau --seed 7``, written to a temporary file before
timing; system 5 certifies it.  The package is imported from this
checkout's ``src``.  Standard library only; set
``OPENBLAS_NUM_THREADS=1`` for repeatable numbers.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def time_runs(argv: list, n: int, env: dict) -> list:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="processes per variant (default 5)")
    args = parser.parse_args()
    if args.n < 1:
        parser.error("-n must be at least 1")
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cli = [sys.executable, "-m", "thetaquartic.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        tau = os.path.join(tmp, "tau.json")
        subprocess.run(cli + ["random-tau", "--seed", "7", "--json", tau], env=env, check=True,
                       stderr=subprocess.DEVNULL)
        base = cli + ["bitangents", "--tau", tau]
        for label, argv in (("bitangents", base), ("bitangents --system-index 5", base + ["--system-index", "5"])):
            times = time_runs(argv, args.n, env)
            print(f"{label}: median {statistics.median(times):.3f} s over {args.n} "
                  f"(min {min(times):.3f}, max {max(times):.3f})")


if __name__ == "__main__":
    main()
