"""Command-line front end.

Machine-readable JSON goes to stdout (or to the file named by
``--json``); human-readable summaries go to stderr.  Exit codes:
0 success, 1 input error, 2 special-locus refusal, 3 invariant or
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
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


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-quartic",
        description="Bitangents and the quartic equation from a genus-3 period matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tau=False):
        if tau:
            p.add_argument("--tau", required=True, help="path to period matrix JSON")
        p.add_argument("--tail", type=_positive, default=te.DEFAULT_TAIL, help="series tail target")
        p.add_argument("--tol", type=_positive, default=vf.DEFAULT_BITANGENCY_TOL, help="bitangency residual tolerance")
        p.add_argument("--seed", type=int, default=1, help="seed for seeded randomness")
        p.add_argument("--eps", type=_parse_eps, default=(1, 1, 1), help="row signs, e.g. +1,+1,-1")
        p.add_argument("--system-index", type=int, default=None,
                       help="index into the canonical list of 288 Aronhold systems (default: the classical reference ordering)")
        p.add_argument("--json", dest="json_path", default=None, help="write the JSON report to this file instead of stdout")

    add_common(sub.add_parser("classify", help="list the 64 quadratic forms with parity and Arf invariant"))
    add_common(sub.add_parser("aronhold", help="enumerate Aronhold systems (optionally expand one)"))
    add_common(sub.add_parser("bitangents", help="full pipeline: 28 bitangents + verification", ), tau=True)
    add_common(sub.add_parser("quartic", help="reconstruct the quartic equation"), tau=True)
    add_common(sub.add_parser("verify", help="bitangency certificates for the reconstructed curve"), tau=True)
    st = sub.add_parser("selftest", help="run the named invariant suite")
    add_common(st)
    st.add_argument("--trials", type=int, default=5, help="number of seeded random period matrices")
    add_common(sub.add_parser("random-tau", help="emit a seeded random admissible period matrix"))
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
    return vf.validate_tau(te.tau_from_json(obj))


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
    return tau, frame, quartic, lines


def cmd_bitangents(args) -> int:
    _, frame, quartic, lines = _pipeline(args)
    reports, summary = vf.bitangency_summary(quartic, lines, tol=args.tol)
    out = wb.frame_to_json(frame, lines, quartic)
    out["verify"] = {"reports": reports, "summary": summary}
    _emit(out, args)
    _note(f"bitangency: {summary['pass']}/28 pass, max residual {summary['max_residual']:.3e}")
    return EXIT_OK if summary["pass"] == 28 else EXIT_INVARIANT


def cmd_quartic(args) -> int:
    _, frame, quartic, _ = _pipeline(args)
    _emit({
        "aronhold": [q.characteristic.to_json() for q in frame.system],
        "a": [[wb.complex_to_json(x) for x in row] for row in frame.a],
        "k": [wb.complex_to_json(x) for x in frame.k],
        "lambda": [wb.complex_to_json(x) for x in frame.lam],
        "xi": [line.to_json() for line in frame.xi],
        "quartic": quartic.to_json(),
    }, args)
    _note("quartic reconstructed; coefficients normalized to unit max modulus")
    return EXIT_OK


def cmd_verify(args) -> int:
    _, _, quartic, lines = _pipeline(args)
    reports, summary = vf.bitangency_summary(quartic, lines, tol=args.tol)
    _emit({"reports": reports, "summary": summary}, args)
    _note(f"bitangency: {summary['pass']}/28 pass, max residual {summary['max_residual']:.3e}")
    return EXIT_OK if summary["fail"] == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# selftest

def _raw_theta(m: ca.Characteristic, tau: te.PeriodMatrix, radius: int) -> complex:
    # direct non-reduced lattice sum; independent of the reduction path
    total = 0.0 + 0.0j
    mp = np.array(m.mp, dtype=float)
    mpp = np.array(m.mpp, dtype=float)
    for n in itertools.product(range(-radius, radius + 1), repeat=3):
        p = np.array(n, dtype=float) + mp / 2
        total += np.exp(1j * np.pi * (p @ tau.tau @ p + 2 * p @ (mpp / 2)))
    return total


GOLDEN_PHASES = {
    (1, 1): 1j, (1, 2): 1j, (1, 3): 1j,
    (2, 1): 1j, (2, 2): 1j, (2, 3): 1j,
    (3, 1): -1, (3, 2): 1, (3, 3): 1,
}
GOLDEN_RHO = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1,
    (2, 1): 1, (2, 2): 1, (2, 3): -1,
    (3, 1): 1, (3, 2): 1, (3, 3): -1,
}


def _selftest_checks(args):
    pol = _policy(args)
    system = ca.REFERENCE_SYSTEM
    rng = np.random.default_rng(args.seed)
    taus = [vf.random_admissible_tau(args.seed * 1000 + i, pol) for i in range(args.trials)]

    def check_counts():
        even, odd = len(ca.even_forms()), len(ca.odd_forms())
        return even == 36 and odd == 28, f"{even} even / {odd} odd"

    def check_aronhold():
        systems = ca.enumerate_aronhold()
        has_ref = system.as_set() in [s.as_set() for s in systems]
        return len(systems) == 288 and has_ref, f"{len(systems)} systems, reference present: {has_ref}"

    def check_symbolic():
        for (i, j), want in GOLDEN_PHASES.items():
            entry = wb.weber_symbolic(system, i, j)
            if entry.phase != want or entry.rho != GOLDEN_RHO[(i, j)]:
                return False, f"entry ({i},{j}) phase {entry.phase}, rho {entry.rho}"
        return True, "9 phases and reduction signs match"

    def check_reduction():
        worst = 0.0
        base = ca.Characteristic((1, 0, 1), (1, 0, 1))  # even: nonzero constant
        for tau in taus:
            shift = ca.Characteristic(
                tuple(2 * int(x) for x in rng.integers(0, 2, 3)),
                tuple(2 * int(x) for x in rng.integers(0, 2, 3)),
            )
            m = base + shift
            direct = _raw_theta(m, tau, radius=8)
            via_reduction = te.theta_const(m, tau, pol)
            worst = max(worst, abs(direct - via_reduction) / abs(direct))
        return worst < 1e-10, f"max residual {worst:.2e}"

    def check_parity_vanishing():
        worst_odd = worst_even = 0.0
        for tau in taus:
            consts = te.even_constant_table(tau, pol)
            scale = max(abs(v) for v in consts.values())
            for q in ca.odd_forms():
                worst_odd = max(worst_odd, abs(te.theta_const(q.characteristic, tau, pol)) / scale)
            grads = te.odd_gradient_table(tau, pol)
            gscale = max(np.linalg.norm(g) for g in grads.values())
            for q in ca.even_forms():
                worst_even = max(
                    worst_even, np.linalg.norm(te.grad_theta0(q.characteristic, tau, pol)) / gscale
                )
        ok = worst_odd < 1e-10 and worst_even < 1e-9
        return ok, f"odd consts {worst_odd:.2e}, even grads {worst_even:.2e}"

    def check_gradient_fd():
        worst = 0.0
        h = 1e-5
        for tau in taus:
            q = ca.odd_forms()[int(rng.integers(0, 28))].characteristic
            g = te.grad_theta0(q, tau, pol)
            fd = np.zeros(3, dtype=complex)
            for axis in range(3):
                dz = np.zeros(3)
                dz[axis] = h
                fd[axis] = (te.theta(q, tau, dz, pol) - te.theta(q, tau, -dz, pol)) / (2 * h)
            worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
        return worst < 1e-7, f"max relative deviation {worst:.2e}"

    def check_addition():
        worst = 0.0
        q5, q6, q7 = system[4], system[5], system[6]
        for tau in taus:
            z = rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05
            res = te.addition_formula_residual(
                ca.char_sum(q5, q6, q7), q5.characteristic, q6.characteristic, q7.characteristic,
                None, z, tau, pol,
            )
            worst = max(worst, res)
        return worst < 1e-9, f"max residual {worst:.2e}"

    def check_quasi_periodicity():
        worst = 0.0
        for tau in taus:
            q = ca.all_forms()[int(rng.integers(0, 64))].characteristic
            k = tuple(int(x) for x in rng.integers(0, 2, 3))
            h = tuple(int(x) for x in rng.integers(0, 2, 3))
            z = rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05
            worst = max(worst, te.quasi_periodicity_residual(q, k, h, tau, z, pol))
        return worst < 1e-9, f"max residual {worst:.2e}"

    def check_jacobi():
        worst = 0.0
        quad = system.forms[:4]
        completions = ca.complete_4tuple(*quad)
        for tau in taus:
            values = []
            for comp in completions:
                lhs, rhs = wb.jacobi_ratio(quad, comp, tau, pol)
                values.append(rhs)
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
            worst = max(worst, abs(values[0] - values[1]) / abs(values[0]))
        return worst < 1e-8, f"max residual {worst:.2e}"

    def check_normalization():
        worst = 0.0
        for tau in taus:
            frame = wb.weber_coefficients(system, tau, pol, eps=args.eps)
            worst = max(worst, float(np.abs(frame.k - 1).max()))
        return worst < 1e-8, f"max |k - 1| = {worst:.2e}"

    def check_det_rows():
        worst = 0.0
        for tau in taus:
            frame = wb.weber_coefficients(system, tau, pol, eps=args.eps)
            rows = wb.aronhold_coeffs_dets(system, tau, pol)
            for i in range(3):
                worst = max(worst, wb.ProjLine(tuple(rows[i])).residual_to(frame.a[i]))
        return worst < 1e-8, f"max projective residual {worst:.2e}"

    def check_bitangency():
        worst, n_pass, n_total = 0.0, 0, 0
        for tau in taus[: min(2, len(taus))]:
            frame = wb.weber_coefficients(system, tau, pol, eps=args.eps)
            quartic = wb.riemann_quartic(frame.xi)
            lines = wb.all_bitangents(system, tau, pol)
            _, summary = vf.bitangency_summary(quartic, lines, tol=args.tol)
            worst = max(worst, summary["max_residual"])
            n_pass += summary["pass"]
            n_total += 28
        return n_pass == n_total, f"{n_pass}/{n_total} pass, max residual {worst:.2e}"

    return [
        ("parity-counts", check_counts),
        ("aronhold-count", check_aronhold),
        ("weber-symbolic-table", check_symbolic),
        ("reduction-formula", check_reduction),
        ("parity-vanishing", check_parity_vanishing),
        ("gradient-finite-difference", check_gradient_fd),
        ("addition-formula", check_addition),
        ("quasi-periodicity", check_quasi_periodicity),
        ("jacobi-ratio", check_jacobi),
        ("weber-normalization-k", check_normalization),
        ("determinant-ratio-rows", check_det_rows),
        ("bitangency-28", check_bitangency),
    ]


def cmd_selftest(args) -> int:
    results = []
    all_ok = True
    for name, fn in _selftest_checks(args):
        try:
            ok, detail = fn()
        except ThetaQuarticError as exc:
            ok, detail = False, f"error: {exc}"
        ok = bool(ok)
        all_ok = all_ok and ok
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        _note(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    _emit({"ok": all_ok, "results": results}, args)
    return EXIT_OK if all_ok else EXIT_INVARIANT


COMMANDS = {
    "classify": cmd_classify,
    "aronhold": cmd_aronhold,
    "bitangents": cmd_bitangents,
    "quartic": cmd_quartic,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
    "random-tau": cmd_random_tau,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
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
