"""Pipeline benchmark: one closed-loop client runs a workload and checks every answer.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A human-readable
summary goes to stderr, and a fuller record (tail percentile and sample count,
failure rate, each failure, worst-case digits) to ``perfbench/out/``.

Run from the root of a checkout; the package is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One BLAS thread, set before numpy loads (set-up probes inherit it).  With
# more, an op's time depends on whether the second core is free, which the
# reference kernel does not see.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import thetaquartic  # noqa: E402

if Path(thetaquartic.__file__).resolve().parent != ROOT / "src" / "thetaquartic":
    sys.exit(f"thetaquartic imported from {thetaquartic.__file__}, not from this checkout's src")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
#: accuracy digits come from this many timed inputs, whatever the run's speed
DIGIT_INPUTS = 64


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def setup_seconds(workload: str, payload_path: str) -> tuple[float, float]:
    """Median set-up time of fresh interpreters, at reference speed and as measured.

    Each probe times ``import thetaquartic`` through one warm-up op, then the
    reference kernel, and is scaled by its own kernel time.
    """
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, payload_path],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        seconds, kernel_ms = (float(x) for x in proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * reference.REF_MS / kernel_ms)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Op:
    number: int  # position in the loop; a traced run has two ops per number
    inp: workloads.Input
    outcome: workloads.Outcome
    seconds: float
    traced: bool
    kernel_ms: float  # reference kernel, timed right after the op


def timed(fn, *args):
    """(result, error, seconds) of one op; a raised error is the op's outcome, not the run's."""
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def closed_loop(work, inputs, seconds: float, tracer=None) -> list[Op]:
    """Run ops back to back for ``seconds``.

    With a tracer, each input runs twice, traced and untraced in alternating
    order, so the tracing overhead is measured on identical work.
    """
    ops = []
    pool = inputs[1:]  # inputs[0] is the warm-up input
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inp = pool[i % len(pool)]
        if tracer is None:
            runs = [(False, work.run, ())]
        else:
            traced = (True, tracer.run, (i, work.run))
            plain = (False, work.run, ())
            runs = [traced, plain] if i % 2 else [plain, traced]
        for is_traced, fn, prefix in runs:
            result, error, latency = timed(fn, *prefix, inp)
            outcome = work.check(inp, result, error)
            if i >= DIGIT_INPUTS or is_traced:
                outcome.record = None
            ops.append(Op(i, inp, outcome, latency, is_traced, reference.kernel_ms()))
        i += 1
    return ops


def digits(err: float) -> float:
    return -math.log10(max(err, np.finfo(float).tiny))


def accuracy_metrics(work, pool, ops) -> tuple[dict, dict]:
    """Digit metrics over those of the first ``DIGIT_INPUTS`` timed inputs that succeed."""
    kept = {}
    for op in ops:
        if op.outcome.record is not None and op.inp.index not in kept:
            kept[op.inp.index] = op.outcome.record
    reached = {op.inp.index for op in ops}
    accs = []
    for inp in pool[:DIGIT_INPUTS]:
        record = kept.get(inp.index)
        if inp.index not in reached:  # a slow run stopped short of it
            result, error, _ = timed(work.run, inp)
            record = work.check(inp, result, error).record
        if record is not None:
            accs.append(work.accuracy(inp, record))
    if not accs:
        raise RuntimeError("no input succeeded, so no accuracy digits")
    fields = {"bitangency_digits": "residual", "k_digits": "k_dev", "det_row_digits": "det_row"}
    # the mean over curves, not the worst curve: worst-curve digits spread by
    # 20-75% of their median from seed to seed, so they go in the record only
    metrics = {name: statistics.fmean(digits(getattr(a, f)) for a in accs) for name, f in fields.items()}
    worst = {name + "_worst": digits(max(getattr(a, f) for a in accs)) for name, f in fields.items()}
    worst["curves"] = len(accs)
    return metrics, worst


def end_to_end(work, ops: list[Op], setup: tuple[float, float]) -> tuple[dict, dict]:
    """Throughput, latency, set-up and memory; times at reference speed (see ``reference``).

    Every finished op counts, whatever its outcome: failures are reported on
    their own, so a fix that stops refusing inputs does not read as a speed-up.
    """
    kernel = np.array([op.kernel_ms for op in ops])
    raw_ms = np.array([op.seconds for op in ops]) * 1e3
    # median of the kernels timed around each op: one slow kernel run does not skew its op
    scale = np.array([reference.REF_MS / np.median(kernel[max(0, i - 2):i + 2]) for i in range(len(ops))])
    lat = raw_ms * scale
    tail = float(np.percentile(lat, work.tail_pct))
    metrics = {
        "ops_per_s": 1e3 * lat.size / lat.sum(),
        "latency_p50_ms": float(np.median(lat)),
        "latency_tail_ms": tail,
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "tail_pct": work.tail_pct,
        "samples": int(lat.size),
        "samples_beyond_tail": int((lat > tail).sum()),
        "kernel_ms_median": float(np.median(kernel)),
        "measured_ops_per_s": 1e3 * raw_ms.size / raw_ms.sum(),
        "measured_latency_p50_ms": float(np.median(raw_ms)),
        "measured_latency_tail_ms": float(np.percentile(raw_ms, work.tail_pct)),
        "measured_setup_s": setup[1],
        "latencies_ms": [round(x, 4) for x in lat],
    }
    return metrics, extra


def per_layer(tracer, ops: list[Op]) -> dict:
    traced = [op for op in ops if op.traced]
    plain = {op.number: op.seconds for op in ops if not op.traced}
    return tracing.per_layer_metrics(
        tracer.spans,
        ok_ops={op.number for op in traced if op.outcome.ok},
        passed=sum(op.outcome.passed for op in traced),
        json_bytes=sum(op.outcome.json_bytes for op in traced if op.outcome.ok),
        overhead_ratios=[op.seconds / plain[op.number] for op in traced],
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = declared_metrics(args.trace)
    work = workloads.make(args.workload)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        try:
            inputs = work.prepare(args.seed, workdir)
            if not args.trace:
                payload = os.path.join(workdir, "warmup.json")
                with open(payload, "w") as fh:
                    json.dump(work.warmup_payload(inputs[0]), fh)
                setup = setup_seconds(args.workload, payload)
            timed(work.run, inputs[0])  # warm-up: lazy imports, lattice box cache
            tracer = tracing.Tracer() if args.trace else None
            ops = closed_loop(work, inputs, args.seconds, tracer)
            record = {"workload": args.workload, "seed": args.seed, "draws_below_margin": work.skipped}
            if args.trace:
                metrics = per_layer(tracer, ops)
                tracer.write(str(OUT / f"spans-{tag}.jsonl"))
            else:
                metrics, record["timing"] = end_to_end(work, ops, setup)
                digit_metrics, record["accuracy"] = accuracy_metrics(work, inputs[1:], ops)
                metrics.update(digit_metrics)
        finally:
            work.close()

    attempted = len(ops)
    failures = [op.outcome.detail for op in ops if not op.outcome.ok]
    correct = not any(op.outcome.wrong for op in ops)
    unknown = set(metrics) ^ {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"computed and declared metrics differ: {sorted(unknown)}")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record.update(out, failure_rate=len(failures) / attempted, failures=failures)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{tag}: {attempted} ops, {len(failures)} failed "
          f"(failure_rate {len(failures) / attempted:.4f}), correct={correct}; "
          f"{work.skipped} draws below the margin skipped", file=sys.stderr)
    for line in failures[:10]:
        print("  " + line, file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if "timing" in record:
        t = record["timing"]
        print(f"  tail is p{t['tail_pct']:g} of {t['samples']} ops, {t['samples_beyond_tail']} beyond it; "
              f"reference kernel {t['kernel_ms_median']:.3f} ms (times above are at {reference.REF_MS} ms); "
              f"as measured: {t['measured_ops_per_s']:.4g} ops/s, p50 {t['measured_latency_p50_ms']:.4g} ms, "
              f"tail {t['measured_latency_tail_ms']:.4g} ms, setup {t['measured_setup_s']:.4g} s",
              file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
