"""Compare the outputs of two checkouts, digest by digest: is a change bit-identical?

    python3 scripts/diff_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts (the same directory twice
is allowed).  One child process per checkout imports ``thetaquartic``
from that checkout's ``src`` and runs the same inputs:

- the first 300 ``default_rng(201)`` draws of ``random_tau``;
- ``random_admissible_tau(1..30)``, and each with Re tau + 2B;
- all 288 Aronhold systems at ``random_admissible_tau`` seeds 3, 6, 11 and
  18, and on draw 213 (``tests/data/tau_rng201_draw213.json``);
- ``random_admissible_tau(1..30)`` with ``weber.JACOBIAN_DET_REL_TOL`` at
  inf, so that every frame refuses at the denominator gate with its value;
- the symbolic bookkeeping of all 288 Aronhold systems and the reference
  system: ``charalgebra.derived_forms`` and ``weber._plan`` (the packed
  indices and phases of the nine coefficients, the 28 labels and their
  packed indices);
- ``bitangents``, ``quartic`` and ``verify`` on the three
  ``tests/data/tau_*.json`` files, with the reference system,
  ``--system-index 5`` and ``--system-index 287``, and on
  ``random_admissible_tau(1..30)``, which the child writes with
  ``tau_to_json`` as tau files in its temporary directory, with the
  reference system; and ``classify``, ``aronhold`` and ``aronhold
  --system-index`` 0, 5 and 287; each CLI run once to stdout and once with
  ``--json FILE``.

Per input and system it keeps a sha256 (or the refusal's type and
message) of every array of ``reconstruct``, of the determinant-ratio rows
of ``weber.aronhold_coeffs_dets``, and of every array of the four stages
``weber_coefficients``, ``riemann_quartic``, ``all_bitangents`` and
``bitangency_summary`` called one by one on a fresh ``PeriodMatrix``, as
perfbench's ``generic`` op calls them; on the draws and on the seeds with
and without +2B also of the theta tables.  Per CLI run it keeps a sha256
of stdout, the ``--json`` bytes, stderr and the exit code.  The inputs
are read from the ``tests/data`` beside this script, so both sides see
the same bytes.  The script prints how many digests are equal and
different and the first ``SHOW`` (10) differences, and exits 1 on any
difference.  Children get ``PYTHONDONTWRITEBYTECODE=1`` and
``OPENBLAS_NUM_THREADS=1`` and run side by side.  Outside the children
the script uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
TAU_FILES = ("tau_seed3.json", "tau_seed6.json", "tau_rng201_draw213.json")
DRAWS = 300
SEEDS = range(1, 31)
#: a shift 2B of Re tau whose units i^(m'.B.m') are not all 1
SHIFT_2B = [[2, 0, 2], [0, 0, 2], [2, 2, 2]]
SYSTEM_SEEDS = (3, 6, 11, 18)
COMMANDS = ("bitangents", "quartic", "verify")
SYSTEM_FLAGS = ((), ("--system-index", "5"), ("--system-index", "287"))
#: the commands that read no tau file
TAU_FREE = (("classify",), ("aronhold",), *(("aronhold", "--system-index", i) for i in ("0", "5", "287")))
#: differences printed
SHOW = 10


def _sha(*parts) -> str:
    """sha256 over the dtype, shape and bytes of each array, or the repr of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(f"{part.dtype}{part.shape}".encode() + part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def digest_checkout(root: Path) -> dict:
    """Every digest of the input set, run in this process on the package under ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    import contextlib
    import io
    import tempfile

    import numpy as np

    import thetaquartic
    from thetaquartic import cli, random_admissible_tau, reconstruct, verify, weber
    from thetaquartic.charalgebra import REFERENCE_SYSTEM, derived_forms, enumerate_aronhold
    from thetaquartic.thetaeval import PeriodMatrix, random_tau, tau_from_json, tau_to_json, theta_tables

    if Path(thetaquartic.__file__).resolve().parent != (root / "src" / "thetaquartic").resolve():
        sys.exit(f"imported {thetaquartic.__file__}, not the package under {root / 'src'}")
    out = {}

    def keep(key, compute):
        try:
            out[key] = compute()
        except Exception as exc:  # a refusal is an output too: its type and message are compared
            out[key] = f"{type(exc).__name__}: {exc}"

    def tables(tau):
        t = theta_tables(tau)
        return _sha(t.values, t.grads, t.vanishing)

    def run(tau, system=REFERENCE_SYSTEM):
        r = reconstruct(tau, system)
        f = r.frame
        return _sha(f.a, f.k, f.lam, f.xi, r.quartic.coeffs, r.covectors, *r.certs, r.summary, r.labels)

    def chain(tau, system=REFERENCE_SYSTEM):
        tau = PeriodMatrix(tau.tau)
        frame = weber.weber_coefficients(system, tau)
        quartic = weber.riemann_quartic(frame.xi)
        labels, covectors = weber.all_bitangents(system, tau)
        certs, summary = verify.bitangency_summary(quartic, (labels, covectors))
        return _sha(frame.a, frame.k, frame.lam, frame.xi, quartic.coeffs, covectors, *certs, summary, labels)

    def outputs(name, tau, system=REFERENCE_SYSTEM):
        keep(f"{name} reconstruct", lambda: run(tau, system))
        keep(f"{name} determinant rows", lambda: _sha(weber.aronhold_coeffs_dets(system, tau)))
        keep(f"{name} chain", lambda: chain(tau, system))

    def pipeline(name, tau):
        keep(f"{name} tables", lambda: tables(tau))
        outputs(name, tau)

    rng = np.random.default_rng(201)
    for i in range(DRAWS):
        pipeline(f"rng201 draw {i}", PeriodMatrix(random_tau(rng)))
    shift = np.array(SHIFT_2B)
    for seed in SEEDS:
        tau = random_admissible_tau(seed)
        pipeline(f"seed {seed}", tau)
        pipeline(f"seed {seed} + 2B", PeriodMatrix(tau.tau + shift))
    sweeps = {f"seed {seed}": random_admissible_tau(seed) for seed in SYSTEM_SEEDS}
    sweeps["draw 213"] = PeriodMatrix(tau_from_json(json.loads((DATA / "tau_rng201_draw213.json").read_text())))
    for name, tau in sweeps.items():
        for index, system in enumerate(enumerate_aronhold()):
            outputs(f"{name} system {index}", tau, system)
    # with its tolerance at inf, the Jacobian-denominator gate refuses every frame the condition gate
    # passes, so its message (the denominator to 3 digits) is compared too
    tol, weber.JACOBIAN_DET_REL_TOL = weber.JACOBIAN_DET_REL_TOL, np.inf
    try:
        for seed in SEEDS:
            outputs(f"seed {seed} denominator gate", random_admissible_tau(seed))
    finally:
        weber.JACOBIAN_DET_REL_TOL = tol

    def plan(system):
        p = weber._plan(system)
        return _sha(p.chars, p.phase, p.labels, p.lines)

    for name, system in [("reference", REFERENCE_SYSTEM), *enumerate(enumerate_aronhold())]:
        keep(f"system {name} derived forms", lambda: _sha(derived_forms(system)))
        keep(f"system {name} plan", lambda: plan(system))

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        # (the words of the digest's key, the arguments)
        runs = [((command, file, *flags), (command, "--tau", str(DATA / file), *flags))
                for file in TAU_FILES for command in COMMANDS for flags in SYSTEM_FLAGS]
        for seed in SEEDS:
            path = Path(tmp) / f"tau_admissible_{seed}.json"
            path.write_text(json.dumps(tau_to_json(random_admissible_tau(seed).tau)))
            runs += [((command, f"random_admissible_tau({seed})"), (command, "--tau", str(path)))
                     for command in COMMANDS]
        for name, argv in runs + [(argv, argv) for argv in TAU_FREE]:
            for to_file in (False, True):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([*argv, *(["--json", str(report)] if to_file else [])])
                written = report.read_bytes() if report.exists() else None
                report.unlink(missing_ok=True)
                key = " ".join(["cli", *name, *(["--json"] if to_file else [])])
                out[key] = _sha(code, stdout.getvalue(), written, stderr.getvalue())
    return out


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        json.dump(digest_checkout(Path(sys.argv[2])), sys.stdout)
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    procs = {
        side: subprocess.Popen([sys.executable, __file__, "--child", str(root)], cwd=root, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for side, root in roots.items()
    }
    digests = {}
    for side, proc in procs.items():
        stdout, stderr = proc.communicate()
        if proc.returncode != 0:
            sys.exit(f"{roots[side]}: the digest run exited {proc.returncode}:\n{stderr}")
        digests[side] = json.loads(stdout)
    parent, change = digests["parent"], digests["change"]
    keys = list(parent) + [key for key in change if key not in parent]
    differ = [key for key in keys if parent.get(key) != change.get(key)]
    print(f"{len(keys) - len(differ)} equal, {len(differ)} different")
    for key in differ[:SHOW]:
        print(f"  {key}:\n    parent {parent.get(key)}\n    change {change.get(key)}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
