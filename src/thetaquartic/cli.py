"""Command-line front end.

Machine-readable JSON goes to stdout (or to the file named by
``--json``); human-readable summaries go to stderr.  Each command
builds its report as JSON data (labels from :data:`_LABELS`, pipeline
reports in :func:`_report`), which :func:`_emit` writes in
``json.dumps``'s default layout, one line per report.  Exit codes: 0
success, 1 input error (usage errors included), 2 special-locus
refusal, 3 invariant or verification failure, or a numerical refusal
by :func:`~thetaquartic.verify.reconstruct`, which writes no report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import charalgebra as ca
from . import thetaeval as te
from . import verify as vf
from . import weber as wb
from .errors import (
    InvalidTauError,
    SpecialLocusError,
    ThetaQuarticError,
    TruncationError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SPECIAL_LOCUS = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error; exit code 2 means a special-locus refusal
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # every parser refuses what it does not know, so a subcommand prints its own usage
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


#: argparse settings of every flag; each subcommand declares the ones it reads
_FLAGS = {
    "tau": dict(required=True, help="path to period matrix JSON"),
    "seed": dict(type=int, default=1, help="seed for seeded randomness"),
    "system-index": dict(type=int, default=None, help="index into the canonical list of 288 Aronhold systems "
                         "(default: the classical reference ordering)"),
    "trials": dict(type=int, default=5, help="number of seeded random period matrices, at least 1"),
    "json": dict(dest="json_path", default=None, help="write the JSON report to this file instead of stdout"),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="theta-quartic",
        description="Bitangents and the quartic equation from a genus-3 period matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags + ("json",):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _check_json_target(path: str) -> None:
    """Refuse a --json path that cannot be written, before any work; the file is opened only by :func:`_emit`."""
    if not path:
        raise ValueError("--json needs a file path, got an empty one")
    if os.path.isdir(path):
        raise ValueError(f"--json {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--json {path}: no such directory")


# ---------------------------------------------------------------------------
# JSON output

#: the wire form {"mp", "mpp"} of each of the 64 forms, keyed by its bits m' + m''; shared by every report, never mutated
_LABELS = {q.mp + q.mpp: {"mp": list(q.mp), "mpp": list(q.mpp)} for q in ca.all_forms()}


def _label(q: ca.Characteristic) -> dict:
    return _LABELS[q.mp + q.mpp]


def _emit(obj, args) -> None:
    """Write a report, a tree of JSON data that holds no cycle (so none is checked for), as one line of JSON."""
    text = json.dumps(obj, check_circular=False) + "\n"
    if args.json_path is not None:
        with open(args.json_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _system(args) -> ca.AronholdSystem:
    if args.system_index is None:
        return ca.REFERENCE_SYSTEM
    systems = ca.enumerate_aronhold()
    if not 0 <= args.system_index < len(systems):
        raise ValueError(f"system index must lie in [0, {len(systems)})")
    return systems[args.system_index]


def _load_tau(args) -> te.PeriodMatrix:
    with open(args.tau) as fh:
        obj = json.load(fh)
    return te.PeriodMatrix(te.tau_from_json(obj))


# ---------------------------------------------------------------------------
# commands

def cmd_classify(args) -> int:
    rows = []
    for q in ca.all_forms():
        arf_q = ca.arf(q)
        rows.append({
            "char": _label(q),
            "bracket": q.bracket(),
            "arf": arf_q,
            "parity": "odd" if arf_q else "even",
        })
    even = sum(1 for r in rows if r["parity"] == "even")
    odd = len(rows) - even
    _emit({"characteristics": rows, "even": even, "odd": odd}, args)
    _note(f"{len(rows)} quadratic forms: {even} even, {odd} odd")
    for r in rows:
        _note(f"  {r['bracket']}  arf={r['arf']}  {r['parity']}")
    return EXIT_OK


def cmd_aronhold(args) -> int:
    systems = ca.enumerate_aronhold()
    if args.system_index is None:
        _emit({
            "count": len(systems),
            "systems": [[_label(q) for q in s] for s in systems],
        }, args)
        _note(f"{len(systems)} Aronhold systems")
        return EXIT_OK
    system = _system(args)
    der = ca.derived_forms(system)
    _emit({
        "system": [_label(q) for q in system],
        "q_s": _label(der.q_s),
        "pair_forms": {f"{i}{j}": _label(q) for (i, j), q in sorted(der.pair.items())},
        "triple_forms": {f"{i}{j}{k}": _label(q) for (i, j, k), q in sorted(der.triple.items())},
    }, args)
    _note("system: " + " ".join(q.bracket() for q in system))
    return EXIT_OK


def cmd_random_tau(args) -> int:
    tau = vf.random_admissible_tau(args.seed)
    _emit(te.tau_to_json(tau.tau), args)
    _note(f"admissible period matrix for seed {args.seed} (lam_min={tau.lam_min:.4f})")
    return EXIT_OK


#: the top-level keys of each pipeline command's report, in print order
REPORT_KEYS = {
    "bitangents": ("aronhold", "a", "bitangents", "quartic", "k", "lambda", "verify"),
    "quartic": ("aronhold", "a", "k", "lambda", "xi", "quartic"),
    "verify": ("reports", "summary"),
}


def _report(keys, run: vf.Reconstruction) -> dict:
    """The report of one pipeline run under the given top-level keys, in their order, as JSON data.

    The one place the pipeline's JSON layout is written, and a field is
    built only when its key is asked for.  Each complex field is one
    :func:`~thetaquartic.thetaeval.complex_to_json` call (the 28 lines
    and the 28 contact pairs as stacks, zipped row by row into the
    per-line dicts); labels come from :data:`_LABELS`.  Covectors are
    scaled by :func:`~thetaquartic.weber.unit_pivot`.
    """
    ok, residual, contacts, _ = run.certs
    fields = {
        "aronhold": lambda: [_label(q) for q in run.frame.system],
        "a": lambda: te.complex_to_json(run.frame.a),
        "bitangents": lambda: [{"q": _label(q), "line": row}
                               for q, row in zip(run.labels, te.complex_to_json(wb.unit_pivot(run.covectors)))],
        "quartic": lambda: te.complex_to_json(run.quartic.coeffs),
        "k": lambda: te.complex_to_json(run.frame.k),
        "lambda": lambda: te.complex_to_json(run.frame.lam),
        "xi": lambda: te.complex_to_json(wb.unit_pivot(run.frame.xi)),
        "reports": lambda: [
            {"q": _label(q), "is_bitangent": b, "residual": r, "contacts": x}
            for q, b, r, x in zip(run.labels, ok.tolist(), residual.tolist(), te.complex_to_json(contacts))
        ],
        "summary": lambda: run.summary,
        "verify": lambda: _report(REPORT_KEYS["verify"], run),
    }
    return {key: fields[key]() for key in keys}


def cmd_pipeline(args) -> int:
    """``bitangents``, ``quartic`` and ``verify``: one :func:`~thetaquartic.verify.reconstruct` run.

    Each command prints the report keys :data:`REPORT_KEYS` gives it.  A
    curve counts as reconstructed only if its 28 lines certify; otherwise
    each of the three exits 3 after writing its report.
    """
    run = vf.reconstruct(_load_tau(args), _system(args))
    _note(f"bitangency: {run.summary['pass']}/28 pass, max residual {run.summary['max_residual']:.3e}")
    _emit(_report(REPORT_KEYS[args.command], run), args)
    if run.summary["pass"] != 28:
        return EXIT_INVARIANT
    if args.command == "quartic":
        _note("quartic reconstructed; coefficients normalized to unit max modulus")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest

def cmd_selftest(args) -> int:
    from . import invariants as iv  # here, so that no other command loads the checks
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    taus = [vf.random_admissible_tau(args.seed * 1000 + i) for i in range(args.trials)]
    results = []
    for check in iv.CHECKS:
        try:
            worst = np.max([np.max(check(tau, rng)) for tau in taus])
            ok, detail = check.passes(worst), f"worst {worst:.2e}, tolerance {check.tol:.0e}"
        except ThetaQuarticError as exc:
            ok, detail = False, f"error: {exc}"
        results.append({"name": check.name, "ok": ok, "detail": detail})
        _note(f"{'PASS' if ok else 'FAIL'}  {check.name}: {detail}")
    all_ok = all(r["ok"] for r in results)
    _emit({"ok": all_ok, "results": results}, args)
    return EXIT_OK if all_ok else EXIT_INVARIANT


#: subcommand -> (function, help, the flags it reads besides --json)
COMMANDS = {
    "classify": (cmd_classify, "list the 64 quadratic forms with parity and Arf invariant", ()),
    "aronhold": (cmd_aronhold, "enumerate Aronhold systems (optionally expand one)", ("system-index",)),
    "bitangents": (cmd_pipeline, "full pipeline: 28 bitangents + verification", ("tau", "system-index")),
    "quartic": (cmd_pipeline, "reconstruct the quartic equation", ("tau", "system-index")),
    "verify": (cmd_pipeline, "bitangency certificates for the reconstructed curve", ("tau", "system-index")),
    "selftest": (cmd_selftest, "run the named invariant suite", ("seed", "trials")),
    "random-tau": (cmd_random_tau, "emit a seeded random admissible period matrix", ("seed",)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.json_path is not None:
            _check_json_target(args.json_path)
        return COMMANDS[args.command][0](args)
    except SpecialLocusError as exc:
        _note(f"special locus: {exc}")
        return EXIT_SPECIAL_LOCUS
    except (InvalidTauError, TruncationError, OSError, json.JSONDecodeError, ValueError) as exc:
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except ThetaQuarticError as exc:
        _note(f"error: {exc}")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
