"""Paired benchmark of two checkouts, written as one ``BENCH_*.json`` record.

    python3 scripts/bench_pair.py PARENT CHANGE --workload W [W ...] --pairs N --seconds S --out BENCH_<label>.json

PARENT and CHANGE are the roots of two checkouts (the same directory twice
is allowed).  For each workload W, each of N pairs runs ``perfbench/run.py
--workload W --seed SEED --seconds S`` in both, first with ``--trace 0``
(end-to-end metrics) and then with ``--trace 1`` (per-layer metrics); the
side that runs first alternates from pair to pair.  The JSON object on the
last line of each run's stdout is kept.  Per workload, the record holds
every pair's metrics for both sides and, per metric, each side's median
and quartiles, the ratio of the medians and the number of pairs the change
won, in the direction ``BENCHMARK.json`` declares (ties count for neither).
A run that exits non-zero or reports ``correct: false`` stops the script.
Children get ``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPYCACHEPREFIX`` set to a
fresh empty directory, removed after the run: Python then reads no bytecode
cache that either checkout holds, so both sides compile every module they
import, and the set-up probes of a run read what that run compiled.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        sys.exit(f"{root}: {' '.join(argv[1:])} reported correct: false:\n{proc.stderr}")
    return out


def src_digest(root: Path) -> str:
    """sha256 over the paths and bytes of the checkout's ``src/**/*.py``: which code was measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4)[::2] if len(values) > 1 else [values[0], values[0]]


def summarize(pairs: list, declared: dict) -> dict:
    summary = {}
    for name, spec in declared.items():
        got = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(got["parent"], got["change"]))
        parent, change = statistics.median(got["parent"]), statistics.median(got["change"])
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": parent,
            "change_median": change,
            "parent_quartiles": quartiles(got["parent"]),
            "change_quartiles": quartiles(got["change"]),
            "ratio": change / parent if parent else None,
            "pairs_change_better": wins,
            "pairs": len(pairs),
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(roots["change"] / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {trace: {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]} for trace in (0, 1)}

    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "env": {"PYTHONPYCACHEPREFIX": "a fresh empty directory per run", "OPENBLAS_NUM_THREADS": "1"},
        "src_sha256": {side: src_digest(root) for side, root in roots.items()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = {0: [], 1: []}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for trace in (0, 1):
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, args.seed, args.seconds, trace)
                pairs[trace].append(pair)
            p50 = {side: pairs[0][-1][side]["metrics"]["latency_p50_ms"]["value"] for side in SIDES}
            print(f"{workload} pair {i + 1}/{args.pairs}: p50 {p50['parent']:.4g} -> {p50['change']:.4g} ms",
                  file=sys.stderr)
        record["workloads"][workload] = {
            "end_to_end": summarize(pairs[0], declared[0]),
            "per_layer": summarize(pairs[1], declared[1]),
            "runs": {"trace0": pairs[0], "trace1": pairs[1]},
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, result in record["workloads"].items():
        m = result["end_to_end"]["latency_p50_ms"]
        print(f"{workload} latency_p50_ms: {m['parent_median']:.4g} -> {m['change_median']:.4g} ms, "
              f"change better in {m['pairs_change_better']} of {m['pairs']}", file=sys.stderr)


if __name__ == "__main__":
    main()
