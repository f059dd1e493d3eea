import warnings
from itertools import product

import numpy as np
import pytest

from thetaquartic import invariants, weber
from thetaquartic.charalgebra import REFERENCE_SYSTEM, derived_forms, enumerate_aronhold, odd_forms, pack
from thetaquartic.errors import DegenerateCurveError, SingularSystemError, SpecialLocusError
from thetaquartic.invariants import jacobi_ratio
from thetaquartic.thetaeval import even_constant_table, theta_tables
from thetaquartic.verify import bitangency_check, random_admissible_tau, reconstruct
from thetaquartic.weber import (
    MONOMIALS,
    AronholdSystem,
    ProjLine,
    QuarticCurve,
    all_bitangents,
    aronhold_coeffs_dets,
    frame_matrix,
    riemann_quartic,
    solve_k,
    solve_lambda,
    weber_coefficients,
    weber_symbolic,
    xi_forms,
)

from conftest import ORIGIN_SUM_SYSTEM
from oracles import eval_quartic

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
        assert invariants.jacobi_ratio_check.passes(invariants.jacobi_ratio_check(tau))


def test_jacobi_ratio_many_tuples(tau_seed1):
    for system in (REFERENCE_SYSTEM, ORIGIN_SUM_SYSTEM):
        assert invariants.jacobi_ratio_check.passes(invariants.jacobi_ratio_check(tau_seed1, system=system))


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


@pytest.mark.parametrize("x", [np.full(3, np.nan + 0j), np.zeros(3, dtype=complex)], ids=["nan", "wrong"])
def test_solve_residual_gate_refuses_what_the_solve_returns(x, monkeypatch):
    # a well-conditioned system whose solve comes back non-finite, or finite with residual 1, is refused by name
    a = np.array([[2, 1, 1], [1, 3, 1], [1, 1, 4]], dtype=complex)
    monkeypatch.setattr(np.linalg, "solve", lambda mat, rhs: x)
    with pytest.raises(SingularSystemError, match=r"numerically singular \(residual (nan|1\.00e\+00)\)"):
        solve_lambda(a)


def _gate_matrices():
    rng = np.random.default_rng(28)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(50)]
    for e in (500, -500):
        mats += [m * np.ldexp(1.0, e * np.array([1, 0, -1]))[:, None] for m in mats[:10]]  # rows 2^e, 1, 2^-e
    singular = np.diag([1.0, 2.0, 0.0]).astype(complex)  # exactly singular: s[-1] == 0
    return mats + [singular, singular @ mats[0], np.zeros((3, 3), dtype=complex), np.ones((3, 3), dtype=complex)]


def test_gate_helpers_are_numpy_bit_for_bit():
    # the solves' condition numbers and norms skip numpy.linalg's dispatch, not its arithmetic;
    # an exactly singular matrix reads cond = inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat in _gate_matrices():
            cond = weber._cond(np.linalg.svd(mat, compute_uv=False))
            assert np.float64(cond).tobytes() == np.float64(np.linalg.cond(mat)).tobytes()
            cases = [(mat, None, False), (mat.T, None, False), (mat[0], None, False), (mat[:, 0], None, False),
                     (mat, 0, False), (mat, 1, True), (mat, -1, True)]
            for x, axis, keepdims in cases:
                got, want = weber.norm(x, axis, keepdims), np.linalg.norm(x, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert weber._cond(np.array([2.0, 1.0, 0.0])) == np.inf
    assert weber._RHS_NORM == np.linalg.norm(weber._RHS) and not weber._RHS.flags.writeable


def test_xi_forms_satisfy_all_equations(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    a, k = frame.a, frame.k
    x23, x13, x12 = frame.xi
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
    for row, resolved in zip(frame.xi, y):
        assert np.abs(row - resolved).max() < 1e-10 * max(1.0, np.abs(resolved).max())


def test_xi_lines_are_bitangent(tau_seed1):
    run = reconstruct(tau_seed1)
    for row in run.frame.xi:
        assert bitangency_check(run.quartic, ProjLine(row)).is_bitangent


def test_xi_lines_match_transported_pair_forms(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    lines = dict(zip(*all_bitangents(REFERENCE_SYSTEM, tau_seed1)))
    pairs = derived_forms(REFERENCE_SYSTEM).pair
    for xi_row, key in zip(frame.xi, [(2, 3), (1, 3), (1, 2)]):
        assert ProjLine(xi_row).residual_to(lines[pairs[key]]) < 1e-8


def test_riemann_quartic_beta1_bitangent(tau_seed1):
    report = bitangency_check(reconstruct(tau_seed1).quartic, ProjLine((1, 0, 0)))
    assert report.is_bitangent and report.residual < 1e-8


def test_riemann_quartic_refuses_the_zero_polynomial():
    # xi = 0 makes A = B = C = 0, so 4AB - (A + B - C)^2 vanishes identically
    with pytest.raises(DegenerateCurveError, match="reconstruction produced the zero polynomial"):
        riemann_quartic(np.zeros((3, 3)))


def test_riemann_quartic_is_three_radical_model(tau_seed1, tau_seed2):
    # F must be proportional to 4AB - (A + B - C)^2 with A = X1 xi_23, B = X2 xi_13,
    # C = X3 xi_12, here evaluated pointwise rather than through coefficients
    rng = np.random.default_rng(20)
    points = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    for tau in (tau_seed1, tau_seed2):
        xi = weber_coefficients(REFERENCE_SYSTEM, tau).xi
        curve = riemann_quartic(xi)
        got = np.array([eval_quartic(curve.coeffs, x) for x in points])
        want = []
        for x in points:
            a, b, c = (x[i] * (row @ x) for i, row in enumerate(xi))
            want.append(4 * a * b - (a + b - c) ** 2)
        want = np.array(want)
        scale = np.vdot(want, got) / np.vdot(want, want)
        assert np.linalg.norm(got - scale * want) <= 1e-12 * np.linalg.norm(got)


def test_riemann_quartic_swap_symmetry(tau_seed1):
    # simultaneous swap (X1, xi_23) <-> (X2, xi_13) relabels the output
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    x23, x13, x12 = frame.xi

    def swap12(v):
        return (v[1], v[0], v[2])

    f_orig = riemann_quartic(frame.xi)
    f_swap = riemann_quartic(np.array([swap12(x13), swap12(x23), swap12(x12)]))
    relabeled = {}
    for coeff, (a, b, c) in zip(f_orig.coeffs, MONOMIALS):
        relabeled[(b, a, c)] = coeff
    want = np.array([relabeled[e] for e in MONOMIALS])
    got = f_swap.coeffs
    pivot = int(np.argmax(np.abs(want)))
    assert np.abs(got / got[pivot] - want / want[pivot]).max() < 1e-10


def test_quartic_curve_validation():
    with pytest.raises(Exception):
        QuarticCurve((0,) * 15)
    with pytest.raises(ValueError):
        QuarticCurve((1,) * 14)


def test_frame_matrix_puts_system_gradients_on_normal_form(tau_seed1, tau_seed2):
    # grad theta[q_j] . T is proportional to e_j, and grad theta[q_4] . T to (1, 1, 1)
    from thetaquartic.thetaeval import grad_theta0

    for tau in (tau_seed1, tau_seed2):
        for system in (REFERENCE_SYSTEM, ORIGIN_SUM_SYSTEM):
            t = frame_matrix(system, tau)
            for q, want in zip(system.forms[:4], np.vstack([np.eye(3), np.ones(3)])):
                covector = grad_theta0(q, tau) @ t
                assert ProjLine(tuple(covector)).residual_to(want) < 1e-12


def test_frame_matrix_transport(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    labels, covectors = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    assert labels[:7] == REFERENCE_SYSTEM.forms
    # the seven system lines land on the normal-form covectors
    expected = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
        frame.a[0], frame.a[1], frame.a[2],
    ]
    for row, want in zip(covectors[:7], expected):
        assert ProjLine(row).residual_to(np.asarray(want, dtype=complex)) < 1e-8


@pytest.mark.parametrize("slot, combo, gate", [
    (2, (1, 1, 0, 0), "condition number .* exceeds FRAME_COND_LIMIT 1e\\+10"),  # grad q3 = grad q1 + grad q2
    (3, (0, 1, 1, 0), "Jacobian determinant denominator .* below JACOBIAN_DET_REL_TOL 1e-12"),  # D[q4,q2,q3] = 0
], ids=["condition", "denominator"])
def test_frame_gates_guard_lines_and_rows(slot, combo, gate, tau_seed1, monkeypatch):
    # a frame double precision cannot represent is a singular solve, not the special locus;
    # weber reads the kept tables through its theta_tables binding
    tables = theta_tables(tau_seed1)
    grads = tables.grads.copy()
    idx = [pack(q) for q in N[:4]]
    grads[idx[slot]] = sum(c * grads[m] for c, m in zip(combo, idx))
    monkeypatch.setattr(weber, "theta_tables", lambda tau: tables._replace(grads=grads))
    for build in (all_bitangents, aronhold_coeffs_dets):
        with pytest.raises(SingularSystemError, match=gate):
            build(REFERENCE_SYSTEM, tau_seed1)


@pytest.mark.parametrize("seed", range(1, 31))
def test_denominator_gate_reads_det_g(seed, monkeypatch):
    # at a tolerance of inf the denominator gate refuses every frame that passes the condition gate; the
    # value it prints, from the singular values of the equilibrated g, is np.linalg.det's to its 3 digits
    tau = random_admissible_tau(seed)
    grads = theta_tables(tau).grads
    g, g4 = grads[[pack(q) for q in N[:3]]], grads[pack(N[3])]
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    want = np.abs(g4 @ np.linalg.inv(g)).min() * abs(np.linalg.det(g)) / np.linalg.norm(g4)
    monkeypatch.setattr(weber, "JACOBIAN_DET_REL_TOL", np.inf)
    with pytest.raises(SingularSystemError, match="^Jacobian determinant denominator ") as exc:
        frame_matrix(REFERENCE_SYSTEM, tau)
    assert str(exc.value).split()[3] == f"{want:.2e}"


def test_det_rows_match_explicit_jacobian_determinants(tau_seed1, tau_seed2):
    # the one frame solve against D[q_{4+i},q2,q3]/D[q4,q2,q3], ... entrywise
    from thetaquartic.invariants import jacobian_det

    q1, q2, q3, q4 = N[:4]
    for tau in (tau_seed1, tau_seed2):
        rows = aronhold_coeffs_dets(REFERENCE_SYSTEM, tau)
        for row, qe in zip(rows, N[4:]):
            want = np.array([
                jacobian_det(qe, q2, q3, tau) / jacobian_det(q4, q2, q3, tau),
                jacobian_det(q1, qe, q3, tau) / jacobian_det(q1, q4, q3, tau),
                jacobian_det(q1, q2, qe, tau) / jacobian_det(q1, q2, q4, tau),
            ])
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


def test_all_bitangents_distinct(tau_seed1):
    labels, covectors = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    assert len(labels) == 28 and covectors.shape == (28, 3) and not covectors.flags.writeable
    assert len(set(labels)) == 28
    vecs = [ProjLine(row) for row in covectors]
    for i in range(28):
        for j in range(i + 1, 28):
            assert vecs[i].residual_to(vecs[j].c) > 1e-6


def test_plan_cache_holds_the_288_systems_and_the_reference_system(monkeypatch):
    # REFERENCE_SYSTEM is an ordering enumerate_aronhold does not return: a run with it between
    # two sweeps of the 288 systems must not evict their plans
    systems = enumerate_aronhold()
    assert REFERENCE_SYSTEM not in systems
    weber._plan.cache_clear()
    for system in (*systems, REFERENCE_SYSTEM):
        weber._plan(system)
    calls = []
    symbolic = weber.weber_symbolic
    monkeypatch.setattr(weber, "weber_symbolic", lambda *args: calls.append(args) or symbolic(*args))
    for system in systems:
        weber._plan(system)
    assert calls == []


def test_gather_plan_matches_symbolic_formula(tau_seed1):
    # every canonical system: the plan's gather of a equals Weber's formula evaluated
    # entry by entry on the dict of constants, bit for bit, and its labels are the line order
    table = even_constant_table(tau_seed1)
    values = theta_tables(tau_seed1).values
    for system in enumerate_aronhold():
        plan = weber._plan(system)
        assert plan.labels == weber._bitangent_labels(system)
        assert plan.lines.tolist() == [pack(q) for q in plan.labels]
        want = np.empty((3, 3), dtype=complex)
        for i, j in product((1, 2, 3), repeat=2):
            entry = weber_symbolic(system, i, j)
            n1, n2, d1, d2 = (table[c] for c in entry.chars)
            want[i - 1, j - 1] = entry.phase * (n1 * n2) / (d1 * d2)
        assert np.array_equal(weber._weber_matrix(plan, values).view(np.int64), want.view(np.int64))
