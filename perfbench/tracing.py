"""Spans around calls into the library's layers, recorded from outside the package.

Each traced function is swapped at the module attribute its callers look it
up by: ``weber.even_constant_table`` is the binding ``weber`` calls, separate
from ``thetaeval.even_constant_table``.  Spans (name, layer, start, end,
parent, op) stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from thetaquartic import cli, thetaeval, verify, weber

#: (module, attribute, layer) of every wrapped binding.
TRACED = (
    (thetaeval, "theta", "thetaeval"),
    (thetaeval, "theta_const", "thetaeval"),
    (thetaeval, "grad_theta0", "thetaeval"),
    (thetaeval, "even_constant_table", "thetaeval"),
    (thetaeval, "odd_gradient_table", "thetaeval"),
    (weber, "even_constant_table", "thetaeval"),
    (weber, "odd_gradient_table", "thetaeval"),
    (weber, "vanishing_even_characteristics", "thetaeval"),
    (weber, "weber_coefficients", "weber"),
    (weber, "require_generic", "weber"),
    (weber, "solve_lambda", "weber"),
    (weber, "solve_k", "weber"),
    (weber, "xi_forms", "weber"),
    (weber, "frame_matrix", "weber"),
    (weber, "all_bitangents", "weber"),
    (weber, "riemann_quartic", "weber"),
    (verify, "bitangency_summary", "verify"),
    (verify, "bitangency_check", "verify"),
    (thetaeval, "even_forms", "charalgebra"),
    (thetaeval, "odd_forms", "charalgebra"),
    (thetaeval, "char_sum", "charalgebra"),
    (thetaeval, "reduce_characteristic", "charalgebra"),
    (weber, "arf", "charalgebra"),
    (weber, "char_sum", "charalgebra"),
    (weber, "derived_forms", "charalgebra"),
    (weber, "is_aronhold", "charalgebra"),
    (weber, "is_azygetic_triple", "charalgebra"),
    (weber, "reduce_characteristic", "charalgebra"),
    (cli, "main", "cli"),
)

THETA_EVALS = {"theta", "theta_const", "grad_theta0"}
SOLVES = {"solve_lambda", "solve_k", "xi_forms"}

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Records one root span per op and a child span per call into a traced binding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals = [(m, attr, getattr(m, attr)) for m, attr, _ in TRACED]
        self._wrappers = [
            self._wrap(fn, f"{m.__name__.rsplit('.', 1)[-1]}.{attr}", layer)
            for (m, attr, fn), (_, _, layer) in zip(self._originals, TRACED)
        ]

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter_ns(), 0, stack[-1], self._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter_ns()

        return traced

    def run(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` with every traced binding swapped in."""
        for (module, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(module, attr, wrapper)
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(["op", "op", time.perf_counter_ns(), 0, -1, op_id])
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter_ns()
            for module, attr, original in self._originals:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "layer", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _function(span) -> str:
    """The function a span timed, whichever module binding it was called through."""
    return span[NAME].rsplit(".", 1)[-1]


def per_layer_metrics(spans, ok_ops: set, passed: int, json_bytes: int, overhead_ratios) -> dict:
    """Per-op layer figures from the spans of the traced ops in ``ok_ops``.

    ``ok_ops`` holds the traced ops with the expected outcome.  A refused op
    stops part-way, so averaging over ok ops keeps each count exact, such as
    128 theta evaluations per curve at the seed commit.  The pass ratio is
    over every check made.  ``passed`` is the number of certified lines over
    all traced ops, ``json_bytes`` the bytes of JSON the ok ops wrote, and
    ``overhead_ratios`` the traced/untraced latency ratio of each input.
    """
    if not ok_ops:
        raise RuntimeError("no traced op had the expected outcome")
    ops = len(ok_ops)
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_calls: dict[str, int] = {}
    theta_evals = 0
    all_checks = 0
    for i, s in enumerate(spans):
        fn = _function(s)
        all_checks += fn == "bitangency_check"
        if s[OP] not in ok_ops:
            continue
        dur = s[END] - s[START]
        self_ns[s[LAYER]] = self_ns.get(s[LAYER], 0) + dur - child_ns[i]
        total_ns[fn] = total_ns.get(fn, 0) + dur
        calls[fn] = calls.get(fn, 0) + 1
        layer_calls[s[LAYER]] = layer_calls.get(s[LAYER], 0) + 1
        # theta_const calls theta: count the outermost evaluation only
        if fn in THETA_EVALS and not (s[PARENT] >= 0 and _function(spans[s[PARENT]]) in THETA_EVALS):
            theta_evals += 1
    op_ns = total_ns.get("op", 0)

    def per_op_ms(ns):
        return ns / 1e6 / ops

    return {
        "thetaeval.self_ms_per_op": per_op_ms(self_ns.get("thetaeval", 0)),
        "thetaeval.share": self_ns.get("thetaeval", 0) / op_ns,
        "thetaeval.theta_evals_per_op": theta_evals / ops,
        "thetaeval.even_table_calls_per_op": calls.get("even_constant_table", 0) / ops,
        "thetaeval.odd_table_calls_per_op": calls.get("odd_gradient_table", 0) / ops,
        "weber.self_ms_per_op": per_op_ms(self_ns.get("weber", 0)),
        "weber.solve_ms_per_op": per_op_ms(sum(total_ns.get(n, 0) for n in SOLVES)),
        "weber.frame_matrix_calls_per_op": calls.get("frame_matrix", 0) / ops,
        "weber.riemann_quartic_ms_per_op": per_op_ms(total_ns.get("riemann_quartic", 0)),
        "verify.self_ms_per_op": per_op_ms(self_ns.get("verify", 0)),
        "verify.checks_per_op": calls.get("bitangency_check", 0) / ops,
        "verify.pass_ratio": passed / all_checks if all_checks else 0.0,
        "charalgebra.self_ms_per_op": per_op_ms(self_ns.get("charalgebra", 0)),
        "charalgebra.calls_per_op": layer_calls.get("charalgebra", 0) / ops,
        "cli.self_ms_per_op": per_op_ms(self_ns.get("cli", 0)),
        "cli.json_bytes_per_op": json_bytes / ops,
        "trace.overhead_pct": 100.0 * (statistics.median(overhead_ratios) - 1.0),
    }
