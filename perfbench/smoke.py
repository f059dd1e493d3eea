"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` for two seconds, untraced and
traced, and checks that the result line names every declared metric with its
unit.  Then checks that a directory holding only the benchmark (no package
source) makes the benchmark fail without printing a result.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def fail(msg: str) -> None:
    sys.exit(f"smoke: {msg}")


def run(cwd: Path, bench: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, declared: list[dict], label: str) -> None:
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted = {result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{label}: metrics {got} differ from the declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} = {m['value']!r}")
    print(f"smoke: {label} ok ({result['attempted']} ops, {result['failed']} failed)")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            check_result(run(ROOT, bench, w["name"], trace), bench[key], label)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(Path(bare), bench, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("the benchmark ran without the package source")
    print("smoke: without the package source the benchmark fails, as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
