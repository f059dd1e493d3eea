"""Seeded inputs, the op each workload times, and the per-op outcome check.

Every library call goes through a module attribute (``weber.weber_coefficients``
and so on), the same binding the package's own callers use, so the tracer in
``tracing.py`` sees it when it swaps that attribute.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from thetaquartic import charalgebra, cli, thetaeval, verify, weber
from thetaquartic.errors import ThetaQuarticError

#: Inputs generated per run.  A run cycles through them only if it completes
#: more ops than this; the seed commit completes about 550 in 30 s.
POOL = 1024

#: A draw is kept only if its smallest even theta constant is at least this
#: share of its largest.  About a third of the draws fall below it, and on
#: those the pipeline fails for about 3 in 100 at the seed commit (a singular
#: system, an inconsistent scaling, or fewer than 28 certified lines), so a
#: time-bounded run would count a different number of failures on every run.
MARGIN = 1e-2
#: a tail far below the margin is enough to compare the constants
SCREEN_POLICY = thetaeval.TruncationPolicy(target_tail=1e-8)

EXIT_OK = 0
EXIT_SPECIAL_LOCUS = 2
EXIT_INVARIANT = 3


@dataclass(frozen=True)
class Input:
    index: int
    tau: np.ndarray | None = None  # period matrix (generic)
    path: str | None = None  # period-matrix JSON file (cli)
    decomposable: bool = False


@dataclass
class Outcome:
    ok: bool  # the expected outcome for this input
    wrong: bool  # an answer that claims success and does not verify
    passed: int  # certified lines
    detail: str
    json_bytes: int = 0
    record: object = None  # what ``accuracy`` needs, kept until the timed loop ends


@dataclass
class Accuracy:
    residual: float  # worst bitangency certificate residual of the curve
    k_dev: float  # max |k - 1|
    det_row: float  # worst projective residual, frame rows vs determinant ratios


def well_conditioned_draws(rng: np.random.Generator, count: int) -> tuple[list[np.ndarray], int]:
    """``count`` seeded ``random_tau`` draws at least ``MARGIN`` off the special locus, and the number skipped."""
    kept, skipped = [], 0
    while len(kept) < count:
        tau = thetaeval.random_tau(rng)
        table = thetaeval.even_constant_table(thetaeval.PeriodMatrix(tau), SCREEN_POLICY)
        consts = np.abs(list(table.values()))
        if consts.min() >= MARGIN * consts.max():
            kept.append(tau)
        else:
            skipped += 1
    return kept, skipped


def pipeline(tau: np.ndarray):
    """The README's recipe: period matrix -> frame -> quartic -> 28 certified lines."""
    system = charalgebra.REFERENCE_SYSTEM
    pm = thetaeval.PeriodMatrix(tau)
    frame = weber.weber_coefficients(system, pm)
    curve = weber.riemann_quartic(frame.xi)
    lines = weber.all_bitangents(system, pm)
    _, summary = verify.bitangency_summary(curve, lines)
    return pm, frame, summary


def _det_row_residual(system, pm, a) -> float:
    rows = weber.aronhold_coeffs_dets(system, pm)
    return max(weber.ProjLine(tuple(rows[i])).residual_to(a[i]) for i in range(3))


def _failure(inp: Input, error: BaseException) -> Outcome:
    kind = "refusal" if isinstance(error, ThetaQuarticError) else "raw exception"
    return Outcome(False, False, 0, f"input {inp.index}: {kind} {type(error).__name__}: {error}")


class PipelineWorkload:
    """One well-conditioned ``random_tau`` draw per op through the library entry points (``generic``)."""

    def __init__(self, tail_pct: float):
        self.tail_pct = tail_pct
        self.skipped = 0

    def prepare(self, seed: int, workdir: str) -> list[Input]:
        taus, self.skipped = well_conditioned_draws(np.random.default_rng(seed), POOL)
        return [Input(index=i, tau=tau) for i, tau in enumerate(taus)]

    def warmup_payload(self, inp: Input) -> dict:
        return thetaeval.tau_to_json(inp.tau)

    def run(self, inp: Input):
        return pipeline(inp.tau)

    def check(self, inp: Input, result, error) -> Outcome:
        if error is not None:
            return _failure(inp, error)
        summary = result[2]
        ok = summary["pass"] == 28
        detail = "" if ok else f"input {inp.index}: {summary['pass']}/28 certified"
        return Outcome(ok, False, summary["pass"], detail, record=result if ok else None)

    def accuracy(self, inp: Input, record) -> Accuracy:
        pm, frame, summary = record
        return Accuracy(
            residual=summary["max_residual"],
            k_dev=float(np.abs(frame.k - 1).max()),
            det_row=_det_row_residual(charalgebra.REFERENCE_SYSTEM, pm, frame.a),
        )

    def close(self):
        pass


class CliWorkload:
    """One in-process ``bitangents`` CLI call per op on a seeded period-matrix file.

    The CLI uses its default, the reference Aronhold system.  Every eighth
    input is made block-diagonal (a decomposable curve), which the CLI must
    refuse with exit code 2.
    """

    decomposable_every = 8

    def __init__(self, tail_pct: float):
        self.tail_pct = tail_pct
        self.skipped = 0
        self._stderr = None

    def prepare(self, seed: int, workdir: str) -> list[Input]:
        taus, self.skipped = well_conditioned_draws(np.random.default_rng(seed), POOL)
        self.out_path = os.path.join(workdir, "out.json")
        self._stderr = open(os.devnull, "w")
        out = []
        for i, tau in enumerate(taus):
            decomposable = i % self.decomposable_every == self.decomposable_every - 1
            if decomposable:
                tau[0, 1:] = 0
                tau[1:, 0] = 0
            path = os.path.join(workdir, f"tau-{i}.json")
            with open(path, "w") as fh:
                json.dump(thetaeval.tau_to_json(tau), fh)
            out.append(Input(index=i, path=path, decomposable=decomposable))
        return out

    def argv(self, inp: Input) -> list[str]:
        return ["bitangents", "--tau", inp.path, "--json", self.out_path]

    def warmup_payload(self, inp: Input) -> dict:
        return {"argv": self.argv(inp)}

    def run(self, inp: Input):
        with contextlib.redirect_stderr(self._stderr):
            return cli.main(self.argv(inp))

    def check(self, inp: Input, code, error) -> Outcome:
        if error is not None:
            return _failure(inp, error)
        if inp.decomposable:
            if code == EXIT_SPECIAL_LOCUS:
                return Outcome(True, False, 0, "")
            return Outcome(False, code == EXIT_OK, 0,
                           f"input {inp.index}: decomposable tau exited {code}, expected 2")
        if code not in (EXIT_OK, EXIT_INVARIANT):  # only these two write a report
            return Outcome(False, False, 0, f"input {inp.index}: exit code {code}")
        try:
            with open(self.out_path) as fh:
                text = fh.read()
            os.remove(self.out_path)
        except FileNotFoundError:
            return Outcome(False, code == EXIT_OK, 0, f"input {inp.index}: exit {code} without a report")
        report = json.loads(text)
        passed = report["verify"]["summary"]["pass"]
        ok = code == EXIT_OK and passed == 28 and len(report["bitangents"]) == 28
        detail = "" if ok else f"input {inp.index}: exit {code} with {passed}/28 certified"
        return Outcome(ok, code == EXIT_OK and not ok, passed, detail,
                       json_bytes=len(text.encode()), record=report if ok else None)

    def accuracy(self, inp: Input, report) -> Accuracy:
        with open(inp.path) as fh:
            pm = thetaeval.PeriodMatrix(thetaeval.tau_from_json(json.load(fh)))
        a = np.array([[complex(x["re"], x["im"]) for x in row] for row in report["a"]])
        k = np.array([complex(x["re"], x["im"]) for x in report["k"]])
        return Accuracy(
            residual=report["verify"]["summary"]["max_residual"],
            k_dev=float(np.abs(k - 1).max()),
            det_row=_det_row_residual(charalgebra.REFERENCE_SYSTEM, pm, a),
        )

    def close(self):
        if self._stderr is not None:
            self._stderr.close()


WORKLOADS = {
    "generic": lambda: PipelineWorkload(tail_pct=95.0),
    "cli": lambda: CliWorkload(tail_pct=90.0),
}


def make(name: str):
    """The workload called ``name``; KeyError if there is none."""
    return WORKLOADS[name]()


def run_warmup(name: str, payload: dict):
    """Run one op from a ``warmup_payload`` (used by the fresh-interpreter set-up probe)."""
    if name == "cli":
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return cli.main(payload["argv"])
    return pipeline(thetaeval.tau_from_json(payload))
