"""Command-line front end.

Machine-readable JSON goes to stdout (or to the file named by
``--json``); human-readable summaries go to stderr.  Exit codes:
0 success, 1 input error (usage errors included), 2 special-locus
refusal, 3 invariant or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import charalgebra as ca
from . import invariants as iv
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


def _parse_eps(text: str):
    try:
        parts = [int(p) for p in text.replace(" ", "").split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("eps must look like +1,+1,-1")
    if len(parts) != 3 or any(p not in (-1, 1) for p in parts):
        raise argparse.ArgumentTypeError("eps must be three signs +-1")
    return tuple(parts)


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error; exit code 2 means a special-locus refusal
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


#: argparse settings of every flag; each subcommand declares the ones it reads
_FLAGS = {
    "tau": dict(required=True, help="path to period matrix JSON"),
    "tail": dict(type=_positive, default=te.DEFAULT_TAIL, help="series tail target"),
    "tol": dict(type=_positive, default=vf.DEFAULT_BITANGENCY_TOL, help="bitangency residual tolerance"),
    "seed": dict(type=int, default=1, help="seed for seeded randomness"),
    "eps": dict(type=_parse_eps, default=(1, 1, 1), help="row signs, e.g. +1,+1,-1"),
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


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=2)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _policy(args) -> te.TruncationPolicy:
    return te.TruncationPolicy(target_tail=args.tail)


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
            "char": q.characteristic.to_json(),
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
            "systems": [[q.characteristic.to_json() for q in s] for s in systems],
        }, args)
        _note(f"{len(systems)} Aronhold systems")
        return EXIT_OK
    system = _system(args)
    der = ca.derived_forms(system)
    _emit({
        "system": [q.characteristic.to_json() for q in system],
        "q_s": der.q_s.characteristic.to_json(),
        "pair_forms": {f"{i}{j}": q.characteristic.to_json() for (i, j), q in sorted(der.pair.items())},
        "triple_forms": {f"{i}{j}{k}": q.characteristic.to_json() for (i, j, k), q in sorted(der.triple.items())},
    }, args)
    _note("system: " + " ".join(q.bracket() for q in system))
    return EXIT_OK


def cmd_random_tau(args) -> int:
    tau = vf.random_admissible_tau(args.seed, _policy(args))
    _emit(te.tau_to_json(tau), args)
    _note(f"admissible period matrix for seed {args.seed} (lam_min={tau.lam_min:.4f})")
    return EXIT_OK


def _pipeline(args):
    tau = _load_tau(args)
    pol = _policy(args)
    system = _system(args)
    frame = wb.weber_coefficients(system, tau, pol, eps=args.eps)
    quartic = wb.riemann_quartic(frame.xi)
    lines = wb.all_bitangents(system, tau, pol)
    return frame, quartic, lines


def _certify(quartic, lines, tol=vf.DEFAULT_BITANGENCY_TOL):
    """The 28 certificates, a summary line on stderr, and the exit code they earn."""
    reports, summary = vf.bitangency_summary(quartic, lines, tol=tol)
    _note(f"bitangency: {summary['pass']}/28 pass, max residual {summary['max_residual']:.3e}")
    return reports, summary, EXIT_OK if summary["pass"] == 28 else EXIT_INVARIANT


def cmd_bitangents(args) -> int:
    frame, quartic, lines = _pipeline(args)
    reports, summary, code = _certify(quartic, lines, args.tol)
    out = wb.frame_to_json(frame, lines, quartic)
    out["verify"] = {"reports": reports, "summary": summary}
    _emit(out, args)
    return code


def cmd_quartic(args) -> int:
    frame, quartic, lines = _pipeline(args)
    # a curve is reported as reconstructed only if its 28 lines certify
    _, _, code = _certify(quartic, lines)
    _emit({
        "aronhold": [q.characteristic.to_json() for q in frame.system],
        "a": [[wb.complex_to_json(x) for x in row] for row in frame.a],
        "k": [wb.complex_to_json(x) for x in frame.k],
        "lambda": [wb.complex_to_json(x) for x in frame.lam],
        "xi": [line.to_json() for line in frame.xi],
        "quartic": quartic.to_json(),
    }, args)
    if code == EXIT_OK:
        _note("quartic reconstructed; coefficients normalized to unit max modulus")
    return code


def cmd_verify(args) -> int:
    _, quartic, lines = _pipeline(args)
    reports, summary, code = _certify(quartic, lines, args.tol)
    _emit({"reports": reports, "summary": summary}, args)
    return code


# ---------------------------------------------------------------------------
# selftest

def cmd_selftest(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    pol = _policy(args)
    rng = np.random.default_rng(args.seed)
    taus = [vf.random_admissible_tau(args.seed * 1000 + i, pol) for i in range(args.trials)]
    results = []
    for check in iv.CHECKS:
        if check is iv.bitangency_28:
            check = iv.Check(check.name, args.tol, check.measure)
        try:
            worst = np.max([np.max(check(tau, rng, pol, args.eps)) for tau in taus])
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
    "bitangents": (cmd_bitangents, "full pipeline: 28 bitangents + verification",
                   ("tau", "tail", "tol", "eps", "system-index")),
    "quartic": (cmd_quartic, "reconstruct the quartic equation", ("tau", "tail", "eps", "system-index")),
    "verify": (cmd_verify, "bitangency certificates for the reconstructed curve",
               ("tau", "tail", "tol", "eps", "system-index")),
    "selftest": (cmd_selftest, "run the named invariant suite", ("tail", "tol", "seed", "eps", "trials")),
    "random-tau": (cmd_random_tau, "emit a seeded random admissible period matrix", ("tail", "seed")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except SpecialLocusError as exc:
        _note(f"special locus: {exc}")
        return EXIT_SPECIAL_LOCUS
    except (InvalidTauError, TruncationError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except ThetaQuarticError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
