"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``;
captured output is shown on failure).  Criteria 1-8 run the named
checks of :mod:`thetaquartic.invariants`, which ``theta-quartic
selftest`` also runs, at the seeds fixed here; each check owns its
tolerance.
"""

import json
import time

import numpy as np

from thetaquartic import (
    Characteristic,
    addition_formula_residual,
    enumerate_aronhold,
    even_forms,
    odd_forms,
    random_admissible_tau,
)
from thetaquartic import invariants as iv
from thetaquartic.cli import main
from thetaquartic.thetaeval import tau_to_json

from conftest import genus1_factorization_residual, xor_char

#: seeds for the series-level criteria (3, 4)
SERIES_SEEDS = (1, 2, 3, 5, 6)

#: seeds for the Weber-normalization criteria (6, 7, 8); all are
#: admissible and comfortably away from the special locus
PIPELINE_SEEDS = (1, 2, 3, 5, 6, 7, 8, 9, 10, 11)


def _report(flag: bool, line: str):
    print(("PASS " if flag else "FAIL ") + line)
    assert flag, line


def test_criterion_1_exact_combinatorics():
    t0 = time.time()
    ok = iv.parity_counts.passes(iv.parity_counts()) and iv.aronhold_count.passes(iv.aronhold_count())
    elapsed = time.time() - t0
    _report(
        ok and elapsed < 10,
        f"criterion 1: exact combinatorics (36 even / 28 odd, 288 Aronhold systems, {elapsed:.2f}s)",
    )


def test_criterion_2_symbolic_golden_example():
    ok = iv.weber_symbolic_table.passes(iv.weber_symbolic_table())
    _report(ok, "criterion 2: all nine printed coefficient entries reproduced exactly")


def test_criterion_3_series_engine():
    t0 = time.time()
    worst = dict.fromkeys((iv.reduction_formula, iv.parity_vanishing, iv.gradient_finite_difference), 0.0)
    rng = np.random.default_rng(3)
    for seed in SERIES_SEEDS:
        tau = random_admissible_tau(seed)
        for check in worst:  # the draws interleave per seed: shift, then 3 odd forms
            worst[check] = max(worst[check], check(tau, rng))
    worst_fact = genus1_factorization_residual((odd_forms()[3], even_forms()[5]))
    elapsed = time.time() - t0
    ok = all(check.passes(w) for check, w in worst.items()) and worst_fact < 1e-10
    red, parity, fd = worst.values()
    _report(
        ok and elapsed < 30,
        "criterion 3: series engine "
        f"(reduction {red:.1e}, parity {parity:.1e}, "
        f"fd {fd:.1e}, genus-1 {worst_fact:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_4_addition_formula():
    rng = np.random.default_rng(4)
    worst = max(iv.addition_formula(random_admissible_tau(seed), rng) for seed in SERIES_SEEDS)
    tau = random_admissible_tau(SERIES_SEEDS[0])
    for _ in range(10):
        p1, p2, p3 = (
            Characteristic(tuple(rng.integers(0, 2, 3)), tuple(rng.integers(0, 2, 3)))
            for _ in range(3)
        )
        u = rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05
        v = rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05
        worst = max(worst, addition_formula_residual(p1, p2, p3, xor_char(p1, p2, p3), u, v, tau))
    _report(iv.addition_formula.passes(worst), f"criterion 4: addition formula (max residual {worst:.1e})")


def test_criterion_5_jacobi_identity():
    systems = enumerate_aronhold()
    worst = np.zeros(2)
    for pick in range(10):
        for seed in (1, 2):
            worst = np.maximum(worst, iv.jacobi_ratio(random_admissible_tau(seed), system=systems[29 * pick]))
    _report(
        iv.jacobi_ratio.passes(worst),
        "criterion 5: determinant-ratio identity over 20 samples "
        f"(max residual {worst[0]:.1e}, completion gap {worst[1]:.1e})",
    )


def test_criterion_6_weber_normalization():
    worst = max(iv.weber_normalization_k(random_admissible_tau(seed)) for seed in PIPELINE_SEEDS)
    _report(
        iv.weber_normalization_k.passes(worst),
        f"criterion 6: k = (1,1,1) at 10 seeded tau (max |k-1| {worst:.1e})",
    )


def test_criterion_7_end_to_end_bitangents():
    t0 = time.time()
    residuals = np.concatenate([iv.bitangency_28(random_admissible_tau(seed)) for seed in PIPELINE_SEEDS])
    elapsed = time.time() - t0
    n_pass = int(np.sum(residuals <= iv.bitangency_28.tol))
    _report(
        iv.bitangency_28.passes(residuals) and residuals.size == 280 and elapsed < 120,
        f"criterion 7: end-to-end bitangency {n_pass}/{residuals.size} "
        f"(max residual {residuals.max():.1e}, {elapsed:.1f}s)",
    )


def test_criterion_8_cross_derivation():
    worst = max(iv.determinant_ratio_rows(random_admissible_tau(seed)) for seed in PIPELINE_SEEDS)
    _report(
        iv.determinant_ratio_rows.passes(worst),
        f"criterion 8: determinant-ratio rows match coefficient rows (max {worst:.1e})",
    )


def test_criterion_9_special_locus_refusal(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    tau_path.write_text(json.dumps(tau_to_json(1j * np.eye(3))))
    code = main(["bitangents", "--tau", str(tau_path)])
    err = capsys.readouterr().err
    ok = code == 2 and "[" in err and "|" in err
    _report(ok, "criterion 9: identity-lattice tau refused with exit 2 and vanishing characteristics listed")
