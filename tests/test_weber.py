import json

import numpy as np
import pytest

from thetaquartic import invariants
from thetaquartic.charalgebra import REFERENCE_SYSTEM, derived_forms, odd_forms
from thetaquartic.errors import SingularSystemError, SpecialLocusError
from thetaquartic.verify import bitangency_check
from thetaquartic.weber import (
    MONOMIALS,
    AronholdSystem,
    ProjLine,
    QuarticCurve,
    all_bitangents,
    aronhold_coeffs_dets,
    frame_matrix,
    frame_to_json,
    jacobi_ratio,
    riemann_quartic,
    solve_k,
    solve_lambda,
    weber_coefficients,
    weber_symbolic,
    xi_forms,
)

from conftest import ORIGIN_SUM_SYSTEM

N = REFERENCE_SYSTEM.forms


@pytest.mark.parametrize("ij", sorted(invariants.WEBER_TABLE))
def test_weber_symbolic_golden_table(ij):
    assert invariants.weber_entry_as_printed(*ij) == invariants.WEBER_TABLE[ij]


def test_weber_symbolic_index_validation():
    with pytest.raises(ValueError):
        weber_symbolic(REFERENCE_SYSTEM, 0, 1)


def test_jacobi_ratio_identity(tau_seed1, tau_seed2):
    # both completions, and the gap between them
    for tau in (tau_seed1, tau_seed2):
        assert invariants.jacobi_ratio.passes(invariants.jacobi_ratio(tau))


def test_jacobi_ratio_many_tuples(tau_seed1):
    for system in (REFERENCE_SYSTEM, ORIGIN_SUM_SYSTEM):
        assert invariants.jacobi_ratio.passes(invariants.jacobi_ratio(tau_seed1, system=system))


def test_jacobi_ratio_rejects_degenerates(tau_seed1):
    with pytest.raises(ValueError):
        jacobi_ratio((N[0], N[1], N[2], N[0]), N[4:], tau_seed1)
    odd = odd_forms()
    bad = None
    from itertools import combinations

    from thetaquartic.charalgebra import is_azygetic_triple
    for t in combinations(odd, 4):
        if len(set(t)) == 4 and not all(
            is_azygetic_triple(*s) for s in combinations(t, 3)
        ):
            bad = t
            break
    with pytest.raises(ValueError):
        jacobi_ratio(bad, N[4:], tau_seed1)


def test_jacobi_ratio_special_locus(tau_identity):
    with pytest.raises(SpecialLocusError):
        jacobi_ratio(N[:4], N[4:], tau_identity)


def test_det_rows_under_swapping_q2_q3(tau_seed1):
    # swapping q2, q3 relabels the frame axes 2 and 3; the determinant
    # sign flips cancel in every ratio, so entries transpose with no
    # sign change
    swapped = AronholdSystem((N[0], N[2], N[1], N[3], N[4], N[5], N[6]))
    rows = aronhold_coeffs_dets(REFERENCE_SYSTEM, tau_seed1)
    rows_swapped = aronhold_coeffs_dets(swapped, tau_seed1)
    for i in range(3):
        want = rows[i][[0, 2, 1]]
        assert np.abs(rows_swapped[i] - want).max() < 1e-8 * np.abs(want).max()


def test_det_rows_special_locus(tau_identity):
    with pytest.raises(SpecialLocusError):
        aronhold_coeffs_dets(REFERENCE_SYSTEM, tau_identity)


def test_weber_normalization_k(tau_seed1, tau_seed2):
    for tau in (tau_seed1, tau_seed2):
        for system in (REFERENCE_SYSTEM, ORIGIN_SUM_SYSTEM):
            frame = weber_coefficients(system, tau)
            assert np.abs(frame.k - 1).max() < 1e-8
            # lambda solves its system to 1e-10
            r = (1.0 / frame.a).T
            assert np.linalg.norm(r @ frame.lam + 1) < 1e-10


def test_weber_eps_flips_row(tau_seed1):
    base = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    flipped = weber_coefficients(REFERENCE_SYSTEM, tau_seed1, eps=(-1, 1, 1))
    assert np.array_equal(flipped.a[0], -base.a[0])
    assert np.array_equal(flipped.a[1:], base.a[1:])
    # k is insensitive to row signs
    assert np.abs(flipped.k - 1).max() < 1e-8


def test_weber_eps_validation(tau_seed1):
    with pytest.raises(ValueError):
        weber_coefficients(REFERENCE_SYSTEM, tau_seed1, eps=(2, 1, 1))


def test_weber_special_locus_refusal(tau_identity):
    with pytest.raises(SpecialLocusError) as info:
        weber_coefficients(REFERENCE_SYSTEM, tau_identity)
    assert len(info.value.vanishing) == 9


def test_solve_lambda_singular():
    with pytest.raises(SingularSystemError):
        solve_lambda(np.ones((3, 3), dtype=complex))


def test_solve_lambda_substitution_and_scaling():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 4 * np.eye(3)
    lam = solve_lambda(a)
    r = (1.0 / a).T
    assert np.linalg.norm(r @ lam + 1) < 1e-12
    lam2 = solve_lambda(2.5 * a)
    assert np.allclose(lam2, 2.5 * lam)


def test_solve_k_scaling_and_singular():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 4 * np.eye(3)
    lam = solve_lambda(a)
    k = solve_k(a, lam)
    m = (a * lam[:, None]).T
    assert np.linalg.norm(m @ k + 1) < 1e-10
    scaled = a.copy()
    scaled[1] *= 3.0
    k2 = solve_k(scaled, lam)
    assert abs(k2[1] - k[1] / 3.0) < 1e-10 * abs(k[1])
    with pytest.raises(SingularSystemError):
        solve_k(np.ones((3, 3), dtype=complex), np.ones(3, dtype=complex))


def test_xi_forms_satisfy_all_equations(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    a, k = frame.a, frame.k
    x23, x13, x12 = (line.vec for line in frame.xi)
    ones = np.ones(3)
    assert np.linalg.norm(x23 + x13 + x12 + ones) < 1e-8
    for i in range(3):
        lhs = x23 / a[i, 0] + x13 / a[i, 1] + x12 / a[i, 2] + k[i] * a[i]
        assert np.linalg.norm(lhs) < 1e-8 * max(1.0, np.abs(a[i]).max())


def test_xi_forms_deterministic_under_equation_permutation(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    a, k = frame.a, frame.k
    b = np.vstack([np.ones(3, dtype=complex), 1.0 / a])
    perm = [2, 0, 3, 1]
    y = np.zeros((3, 3), dtype=complex)
    for col in range(3):
        rhs = -np.concatenate(([1.0 + 0j], k * a[:, col]))
        w = 1.0 / np.abs(b[perm]).max(axis=1)
        sol, *_ = np.linalg.lstsq(b[perm] * w[:, None], rhs[perm] * w, rcond=None)
        y[:, col] = sol
    for line, resolved in zip(frame.xi, y):
        assert np.abs(line.vec - resolved).max() < 1e-10 * max(1.0, np.abs(resolved).max())


def test_xi_lines_are_bitangent(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    for line in frame.xi:
        assert bitangency_check(quartic, line).is_bitangent


def test_xi_lines_match_transported_pair_forms(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    lines = dict(all_bitangents(REFERENCE_SYSTEM, tau_seed1))
    pairs = derived_forms(REFERENCE_SYSTEM).pair
    for xi_line, key in zip(frame.xi, [(2, 3), (1, 3), (1, 2)]):
        assert xi_line.residual_to(lines[pairs[key]]) < 1e-8


def test_riemann_quartic_beta1_bitangent(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    report = bitangency_check(quartic, ProjLine((1, 0, 0)))
    assert report.is_bitangent and report.residual < 1e-8


def test_riemann_quartic_swap_symmetry(tau_seed1):
    # simultaneous swap (X1, xi_23) <-> (X2, xi_13) relabels the output
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    x23, x13, x12 = (line.vec for line in frame.xi)

    def swap12(v):
        return (v[1], v[0], v[2])

    f_orig = riemann_quartic(frame.xi)
    f_swap = riemann_quartic(
        (ProjLine(swap12(x13)), ProjLine(swap12(x23)), ProjLine(swap12(x12)))
    )
    relabeled = {}
    for coeff, (a, b, c) in zip(f_orig.coeffs, MONOMIALS):
        relabeled[(b, a, c)] = coeff
    want = np.array([relabeled[e] for e in MONOMIALS])
    got = f_swap.vec
    pivot = int(np.argmax(np.abs(want)))
    assert np.abs(got / got[pivot] - want / want[pivot]).max() < 1e-10


def test_quartic_curve_validation():
    with pytest.raises(Exception):
        QuarticCurve((0,) * 15)
    with pytest.raises(ValueError):
        QuarticCurve((1,) * 14)


def test_frame_matrix_transport(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    assert abs(np.linalg.det(frame.phi)) > 0
    # the seven system lines land on the normal-form covectors
    expected = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
        frame.a[0], frame.a[1], frame.a[2],
    ]
    for (q, line), want in zip(lines[:7], expected):
        assert line.residual_to(np.asarray(want, dtype=complex)) < 1e-8


def test_frame_matrix_consistent_with_gradients(tau_seed1):
    from thetaquartic.thetaeval import grad_theta0

    phi = frame_matrix(REFERENCE_SYSTEM, tau_seed1)
    for col, q in zip(phi.T, REFERENCE_SYSTEM.forms[:3]):
        g = grad_theta0(q.characteristic, tau_seed1)
        assert ProjLine(tuple(col)).residual_to(g) < 1e-12


def test_all_bitangents_distinct(tau_seed1):
    lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    assert len(lines) == 28
    assert len({q for q, _ in lines}) == 28
    vecs = [line for _, line in lines]
    for i in range(28):
        for j in range(i + 1, 28):
            assert vecs[i].residual_to(vecs[j]) > 1e-6


def test_pipeline_json_deterministic(tau_seed1):
    def run():
        frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
        quartic = riemann_quartic(frame.xi)
        lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
        return json.dumps(frame_to_json(frame, lines, quartic))

    assert run() == run()


def test_frame_json_shape(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    obj = frame_to_json(frame, lines, quartic)
    assert set(obj) == {"aronhold", "a", "bitangents", "quartic", "k", "lambda"}
    assert len(obj["aronhold"]) == 7
    assert len(obj["bitangents"]) == 28
    assert len(obj["quartic"]) == 15
    assert all(set(entry) == {"q", "line"} for entry in obj["bitangents"])
