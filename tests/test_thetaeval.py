import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from thetaquartic import random_admissible_tau, reconstruct
from thetaquartic import invariants, thetaeval
from thetaquartic.charalgebra import (
    REFERENCE_SYSTEM,
    Characteristic,
    all_forms,
    arf,
    char_sum,
    even_forms,
    odd_forms,
    pack,
    reduce_characteristic,
)
from thetaquartic.errors import InvalidTauError, TruncationError
from thetaquartic.invariants import addition_formula_residual, jacobi_ratio, jacobian_det, quasi_periodicity_residual
from thetaquartic.thetaeval import (
    PeriodMatrix,
    _ellipsoid,
    TruncationPolicy,
    even_constant_table,
    grad_theta0,
    odd_gradient_table,
    random_tau,
    tau_from_json,
    tau_to_json,
    theta,
    theta_const,
    theta_tables,
    vanishing_even_characteristics,
)
from thetaquartic.weber import (
    all_bitangents,
    aronhold_coeffs_dets,
    require_generic,
    weber_coefficients,
)

from conftest import genus1_factorization_residual, near_singular_tau, xor_char

RNG = np.random.default_rng(2024)
DATA = Path(__file__).parent / "data"


def _skewed(tau, k):
    # the same curve in the basis U = [[1,k,0],[0,1,k],[0,0,1]]
    u = np.array([[1, k, 0], [0, 1, k], [0, 0, 1]])
    return PeriodMatrix(u @ tau.tau @ u.T)


@pytest.fixture(scope="module")
def tau_skewed():
    return _skewed(random_admissible_tau(7), 1)


def _rand_z(scale=0.2):
    return RNG.standard_normal(3) * scale + 1j * RNG.standard_normal(3) * scale / 4


def test_theta_parity_all_64(tau_seed1):
    z = _rand_z()
    for m in all_forms():
        plus = theta(m, tau_seed1, z)
        minus = theta(m, tau_seed1, -z)
        expected = (-1) ** arf(m) * plus
        assert abs(minus - expected) <= 1e-10 * max(abs(plus), 1e-3)


def test_reduction_formula_against_raw_series(tau_seed1, tau_skewed):
    # production values at non-reduced characteristics match the direct
    # (non-reducing) lattice sum, and the explicit sign relation
    m = Characteristic((1, 0, 1), (1, 0, 1))  # even: nonzero constant
    n = Characteristic((0, 2, 0), (2, 0, 2))
    shifted = m + n
    sign = -1 if sum(m.mp[i] * (n.mpp[i] // 2) for i in range(3)) % 2 else 1
    for tau in (tau_seed1, tau_skewed):
        direct = invariants.cube_sum(shifted.mp, shifted.mpp, tau.tau)[0]
        via_reduction = theta_const(shifted, tau)
        assert abs(direct - via_reduction) < 1e-12 * abs(direct)
        assert abs(via_reduction - sign * theta_const(m, tau)) < 1e-12 * abs(direct)


def test_reduction_formula_at_z(tau_seed2):
    z = _rand_z()
    m = Characteristic((0, 1, 1), (1, 0, 1))
    shifted = m + Characteristic((2, 0, 2), (0, 2, 0))
    lhs = theta(shifted, tau_seed2, z)
    direct = invariants.cube_sum(shifted.mp, shifted.mpp, tau_seed2.tau, z)[0]
    assert abs(lhs - direct) < 1e-12 * abs(direct)


@pytest.mark.parametrize("seed", [0, 3, 8, 12])
def test_series_at_z_matches_cube_sum(seed):
    # all 64 values and gradients of one pass at z != 0 against the cube sum centred at the peak;
    # the third z puts the peak -Y^-1 Im z more than a lattice step from 0
    tau = random_admissible_tau(seed)
    y = tau.tau.imag
    rng = np.random.default_rng(seed)
    zs = [
        rng.standard_normal(3) * 0.5 + 0.2j * rng.standard_normal(3),
        rng.standard_normal(3) * 0.5 + 0.5j * rng.standard_normal(3),
        rng.standard_normal(3) * 0.5 + 1j * (y @ np.array([1.6, -0.7, 0.4])),
    ]
    for z in zs:
        a = np.linalg.solve(y, z.imag)
        values, grads = thetaeval._series(tau, z)
        # the exponents' roundoff grows with the log-modulus pi a.Y.a of the peak term
        tol = 1e-15 * (10 + np.pi * z.imag @ a)
        vscale, gscale = np.abs(values).max(), np.abs(grads).max()
        for q in all_forms():
            value, grad = invariants.cube_sum(q.mp, q.mpp, tau.tau, z=z)
            x = pack(q)
            assert abs(values[x] - value) <= tol * vscale
            assert np.abs(grads[x] - grad).max() <= tol * gscale
    assert np.abs(a).max() > 1


@pytest.mark.parametrize(
    "z",
    [[np.nan, 0, 0], [np.inf, 0, 0], [0, 0, complex(0, -np.inf)], [0, 0], [[0, 0, 0]], [0, 0, 0, 0]],
    ids=["nan", "inf", "imag-inf", "shape-2", "shape-1x3", "shape-4"],
)
def test_theta_refuses_malformed_z(tau_seed1, z):
    with pytest.raises(ValueError, match="z must be 3 finite"):
        theta(Characteristic((1, 0, 1), (1, 0, 1)), tau_seed1, z)


@pytest.mark.parametrize(
    "tau, z, error",
    [
        (PeriodMatrix(1j * np.eye(3)), [30j, 0, 0], ValueError),  # |theta| about exp(pi 900): past the float range
        (PeriodMatrix(1j * np.eye(3)), [1e300j, 0, 0], ValueError),
        # the peak term is below the float limit, but a sum (at 15) or a gradient (at 14.99) is past it
        (PeriodMatrix(1j * np.eye(3)), [15j, 0, 0], ValueError),
        (PeriodMatrix(1j * np.eye(3)), [14.99j, 0, 0], ValueError),
        (PeriodMatrix(1j * np.diag([1e-10, 1e10, 1.0])), [0.1, 0, 0], TruncationError),  # over the point cap
    ],
    ids=["im-30", "im-1e300", "im-15", "im-14.99", "cap"],
)
def test_refusal_at_z_names_z(tau, z, error):
    # the refusal is the typed error, with no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=r"z = \["):
            theta(Characteristic((0, 0, 0), (0, 0, 0)), tau, z)


@pytest.mark.parametrize("m, x, sign", [
    *((Characteristic((0, 0, 0), (0, 0, 0)), x, 1) for x in (2, 1e8, 1e12, 1e16, 1e300)),
    (Characteristic((1, 0, 0), (0, 0, 0)), 1e8 + 1, -1),
], ids=["2", "1e8", "1e12", "1e16", "1e300", "odd-1e8+1"])
def test_theta_at_integer_real_shift(tau_seed1, m, x, sign):
    # theta[m](z + n) = (-1)^(m'.n) theta[m](z) for integer n, however large; e(2 p.z) at
    # Re z = 1e12 loses 5 digits unless Re z is reduced before the pass
    want = sign * theta(m, tau_seed1)
    assert abs(theta(m, tau_seed1, [x, 0, 0]) - want) <= 1e-14 * abs(want)


def test_constants_invariant_under_integer_lifts(tau_seed2):
    # the direct sum at any integer lift (negative entries included) reproduces the engine's
    # sign-corrected constant of an even form and gradient of an odd one; the last lift is
    # the one a box centred at 0, not at -m'/2, missed by 6e-3 relative
    rng = np.random.default_rng(123)
    lifts = []
    for forms in (even_forms(), odd_forms()):
        for _ in range(6):
            base = forms[int(rng.integers(0, len(forms)))]
            shift = Characteristic(
                tuple(2 * int(x) for x in rng.integers(-2, 3, 3)),
                tuple(2 * int(x) for x in rng.integers(-2, 3, 3)),
            )
            assert reduce_characteristic(base + shift)[0] == base
            lifts.append(base + shift)
    lifts.append(Characteristic((-5, -4, -5), (-5, 1, -5)))
    worst = 0.0
    for m in lifts:
        direct = invariants.cube_sum(m.mp, m.mpp, tau_seed2.tau)[arf(m)]
        engine = grad_theta0(m, tau_seed2) if arf(m) else theta_const(m, tau_seed2)
        worst = max(worst, np.abs(direct - engine).max() / np.abs(direct).max())
    assert worst < 1e-12


def test_diagonal_tau_genus1_factorization():
    assert genus1_factorization_residual((odd_forms()[3], even_forms()[5], even_forms()[17])) < 1e-10


def test_odd_constants_vanish(tau_seed1):
    # and the even gradients: both parities in one check
    assert invariants.parity_vanishing.passes(invariants.parity_vanishing(tau_seed1))


def test_even_constants_nonzero(tau_seed1):
    table = even_constant_table(tau_seed1)
    scale = max(abs(v) for v in table.values())
    assert all(abs(v) > 1e-8 * scale for v in table.values())


def test_identity_tau_decomposable_sentinel(tau_identity):
    m = Characteristic((1, 1, 0), (1, 1, 0))
    table = even_constant_table(tau_identity)
    scale = max(abs(v) for v in table.values())
    assert arf(m) == 0
    assert abs(theta_const(m, tau_identity)) < 1e-10 * scale
    assert m in vanishing_even_characteristics(tau_identity)


def test_even_gradients_vanish(tau_seed1):
    gscale = max(np.linalg.norm(g) for g in odd_gradient_table(tau_seed1).values())
    for q in even_forms():
        assert np.linalg.norm(grad_theta0(q, tau_seed1)) < 1e-9 * gscale


def test_gradient_matches_finite_differences(tau_seed1):
    for m in odd_forms():
        g = grad_theta0(m, tau_seed1)
        fd = invariants.fd_gradient(lambda dz: theta(m, tau_seed1, dz))
        assert np.linalg.norm(g - fd) < 1e-7 * np.linalg.norm(g)


def test_gradient_matches_raw_series(tau_seed2, tau_skewed):
    m = odd_forms()[11]
    for tau in (tau_seed2, tau_skewed):
        g = grad_theta0(m, tau)
        raw = invariants.cube_sum(m.mp, m.mpp, tau.tau)[1]
        assert np.linalg.norm(g - raw) < 1e-12 * np.linalg.norm(raw)


def test_tables_match_cube_engine():
    # the ellipsoid passes against the cube-truncated series they replaced
    for seed in range(20):
        tau = random_admissible_tau(seed)
        consts = even_constant_table(tau)
        scale = max(abs(v) for v in consts.values())
        for m, v in consts.items():
            assert abs(v - invariants.cube_sum(m.mp, m.mpp, tau.tau)[0]) <= 1e-14 * scale
        grads = odd_gradient_table(tau)
        gscale = max(np.linalg.norm(g) for g in grads.values())
        for m, g in grads.items():
            assert np.linalg.norm(g - invariants.cube_sum(m.mp, m.mpp, tau.tau)[1]) <= 1e-14 * gscale


@pytest.mark.parametrize("k", [1, 3, 6, 10])
def test_skewed_basis_same_curve(k):
    # U tau U^T is the same curve: same |theta_even| up to relabelling,
    # and the pipeline certifies all 28 lines at about the same cost
    tau = random_admissible_tau(7)
    skewed = _skewed(tau, k)
    ref = np.sort(np.abs(list(even_constant_table(tau).values())))
    got = np.sort(np.abs(list(even_constant_table(skewed).values())))
    assert np.all(np.abs(got - ref) <= 1e-10 * ref)
    assert reconstruct(skewed).summary["pass"] == 28


#: two integer symmetric B whose units i^(m'.B.m') are not all 1
_EVEN_SHIFTS = (
    np.diag([1, 0, 0]),
    np.array([[1, -1, 0], [-1, 2, 3], [0, 3, -1]]),
)


@pytest.mark.parametrize("b", _EVEN_SHIFTS, ids=["diag", "full"])
def test_series_at_re_tau_plus_2b_matches_cube_sum(b):
    # the pass sums at tau and applies the units; the cube sum sums at tau + 2B directly.
    # At the second z, rint(Re z) = (3, -1, 5) makes both parts of the units i^(m'.B.m' + 2 m'.n) non-trivial
    tau = random_admissible_tau(7).tau + 2 * b
    for z in (np.zeros(3), np.array([3.2, -0.9, 4.7]) + 0.2j * np.array([1.0, -0.5, 0.8])):
        # the tolerance of test_series_at_z_matches_cube_sum, 1e-14 at z = 0
        tol = 1e-15 * (10 + np.pi * z.imag @ np.linalg.solve(tau.imag, z.imag))
        values, grads = thetaeval._series(PeriodMatrix(tau), z)
        vscale, gscale = np.abs(values).max(), np.abs(grads).max()
        for q in all_forms():
            value, grad = invariants.cube_sum(q.mp, q.mpp, tau, z=z)
            x = pack(q)
            assert abs(values[x] - value) <= tol * vscale
            assert np.abs(grads[x] - grad).max() <= tol * gscale


@pytest.fixture(scope="module")
def seed7_unshifted():
    # the seed-7 run with Re tau_11 = 0, and with Re tau_12 = Re tau_21 = 0
    runs = {}
    for entries in ([(0, 0)], [(0, 1), (1, 0)]):
        tau = random_admissible_tau(7).tau.copy()
        for e in entries:
            tau[e] = 1j * tau[e].imag
        runs[entries[0]] = reconstruct(PeriodMatrix(tau))
    return runs


@pytest.mark.parametrize("re", [2, 1e6, 1e9, 1e12, 1e16, 1e100, 1e307, 1e308])
@pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)]], ids=["re11", "re12"])
def test_even_real_shift_same_curve(entries, re, seed7_unshifted):
    # tau and tau - 2B are the same curve; summed unreduced, e(p.tau.p) keeps no digits at Re tau_11 = 1e12
    # (4/28 certified) and overflows at 1e307
    tau = random_admissible_tau(7).tau.copy()
    for e in entries:
        tau[e] = re + 1j * tau[e].imag
    run, ref = reconstruct(PeriodMatrix(tau)), seed7_unshifted[entries[0]]
    assert run.summary["pass"] == 28 and run.summary["max_residual"] < 1e-12
    assert np.abs(run.quartic.coeffs - ref.quartic.coeffs).max() < 1e-12


def test_gradient_reduction_scaling(tau_seed1):
    m = odd_forms()[4]
    n = Characteristic((2, 0, 0), (0, 2, 2))
    shifted = m + n
    sign = -1 if sum(m.mp[i] * (n.mpp[i] // 2) for i in range(3)) % 2 else 1
    g1 = grad_theta0(shifted, tau_seed1)
    g2 = sign * grad_theta0(m, tau_seed1)
    assert np.linalg.norm(g1 - g2) < 1e-12 * np.linalg.norm(g2)


def test_jacobian_repeated_row_zero(tau_seed1):
    odd = odd_forms()
    q, qp = odd[:2]
    d = jacobian_det(q, q, qp, tau_seed1)
    scale = abs(jacobian_det(q, qp, odd[2], tau_seed1))
    assert abs(d) < 1e-12 * max(scale, 1e-6)


def test_jacobian_alternating(tau_seed1):
    odd = odd_forms()
    q1, q2, q3 = odd[0], odd[5], odd[9]
    d123 = jacobian_det(q1, q2, q3, tau_seed1)
    d213 = jacobian_det(q2, q1, q3, tau_seed1)
    d231 = jacobian_det(q2, q3, q1, tau_seed1)
    assert abs(d123 + d213) < 1e-12 * abs(d123)
    assert abs(d123 - d231) < 1e-12 * abs(d123)


def test_jacobian_rejects_even_characteristic(tau_seed1):
    odd = odd_forms()
    with pytest.raises(ValueError):
        jacobian_det(even_forms()[0], odd[0], odd[1], tau_seed1)


def test_addition_formula_proof_instantiation(tau_seed1, tau_seed2):
    for tau in (tau_seed1, tau_seed2):
        assert invariants.addition_formula.passes(invariants.addition_formula(tau, RNG))


def test_addition_formula_thetanullwerte(tau_seed1):
    # u = v = 0 with an all-even quadruple: identity among constants
    # with a nonzero left side
    e = even_forms()
    quad = None
    for i in range(1, 12):
        m4 = xor_char(e[0], e[i], e[i + 5])
        if arf(m4) == 0:
            quad = (e[0], e[i], e[i + 5], m4)
            break
    assert quad is not None
    lhs_scale = abs(np.prod([theta_const(m, tau_seed1) for m in quad]))
    assert lhs_scale > 1e-6
    assert addition_formula_residual(*quad, None, None, tau_seed1) < 1e-9


def test_addition_formula_structurally_zero(tau_seed1):
    # quadruple whose products all vanish by parity: residual is 0, not 0/0
    e = even_forms()
    m4 = xor_char(e[1], e[4], e[9])
    assert arf(m4) == 1
    assert addition_formula_residual(e[1], e[4], e[9], m4, None, None, tau_seed1) < 1e-12


def test_addition_formula_nonintegral_rejected(tau_seed1):
    m1 = Characteristic((1, 0, 0), (0, 0, 0))
    m0 = Characteristic((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        addition_formula_residual(m1, m0, m0, m0, None, None, tau_seed1)


def test_quasi_periodicity_identity_shift(tau_seed1):
    q = odd_forms()[7]
    z = _rand_z()
    assert quasi_periodicity_residual(q, (0, 0, 0), (0, 0, 0), tau_seed1, z) == 0.0


def test_quasi_periodicity_random(tau_seed1, tau_seed2):
    rng = np.random.default_rng(5)
    for tau in (tau_seed1, tau_seed2):
        for _ in range(4):
            assert invariants.quasi_periodicity.passes(invariants.quasi_periodicity(tau, rng))


def test_quasi_periodicity_composed(tau_seed1):
    # shifting twice by (k, h) reproduces theta[q] up to the composed factor
    tau = tau_seed1.tau
    q = odd_forms()[3]
    k = np.array([1, 0, 1])
    h = np.array([0, 1, 1])
    z = _rand_z()
    kc = Characteristic(tuple(k), tuple(h))
    lhs = theta(q, tau_seed1, z + h + tau @ k)

    def factor(mpp_vec, zz):
        expo = -0.5 * k @ (np.array(mpp_vec) + h) - k @ zz - 0.25 * k @ tau @ k
        return np.exp(1j * np.pi * expo)

    mid = char_sum(q, kc)
    rhs = factor(q.mpp, z + h / 2 + tau @ k / 2) * factor(mid.mpp, z) * theta(
        char_sum(mid, kc), tau_seed1, z
    )
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


def test_truncation_convergence(tau_seed1):
    # all 64 values and gradients, by packed index
    tight = theta_tables(tau_seed1, TruncationPolicy(target_tail=1e-15))
    loose = theta_tables(tau_seed1, TruncationPolicy(target_tail=1e-300))  # R = 15.1 against 3.9 at 1e-15
    scale = max(abs(v) for v in even_constant_table(tau_seed1).values())
    for q in all_forms():
        x = pack(q)
        assert abs(tight.values[x] - loose.values[x]) < 1e-12 * scale
        ga, gb = tight.grads[x], loose.grads[x]
        assert np.linalg.norm(ga - gb) <= 1e-12 * max(np.linalg.norm(ga), scale)


def test_truncation_policy_validation(tau_seed1):
    with pytest.raises(ValueError):
        TruncationPolicy(target_tail=1e-3)
    # the ellipsoid holds every lattice point with (n+c).Im(tau).(n+c) <= r2, and only those
    imag = tau_seed1.tau.imag
    chol = np.linalg.cholesky(imag).T
    r2 = 36.0
    reach = int(np.ceil(np.sqrt(r2 / np.linalg.eigvalsh(imag).min()))) + 3
    r = np.arange(-reach, reach + 1)
    box = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)

    def box_filter(center):
        x = box + center
        return {tuple(n) for n in box[np.einsum("ni,ij,nj->n", x, imag, x) <= r2]}

    center = np.array([0.5, 0.0, 0.5])
    points = _ellipsoid(chol, center, r2)
    assert {tuple(n) for n in points.astype(int)} == box_filter(center)
    # a pass's one ellipsoid in k = 2p is the union of the 8 shifted ellipsoids of p = n + m'/2:
    # no point at a parity boundary is lost or counted twice
    a = np.array([0.3, -1.25, 0.5])
    k = _ellipsoid(chol / 2, 2 * a, r2).astype(int)
    shifted = [2 * np.array(n) + mp for mp in np.ndindex(2, 2, 2) for n in box_filter(np.array(mp) / 2 + a)]
    assert len(k) == len(shifted) == len({tuple(x) for x in k})
    assert {tuple(x) for x in k} == {tuple(x) for x in shifted}


def test_radius_cap_error():
    tau = PeriodMatrix(2e-4j * np.eye(3))
    with pytest.raises(TruncationError):
        theta_const(Characteristic((0, 0, 0), (0, 0, 0)), tau)


def test_point_cap_counts_thin_ellipsoid():
    # det Im(tau) = 1, so the ellipsoid's volume is a few hundred points,
    # but it is thinner than the lattice spacing along n_2 and its central
    # slice alone holds about 1e7 points per shift
    tau = PeriodMatrix(1j * np.diag([1e-10, 1e10, 1.0]))
    with pytest.raises(TruncationError):
        even_constant_table(tau)


def test_point_cap_counts_the_top_level_first():
    # Y_33 = 1e-14 makes the k_3 interval of the main pass, counted at the lower bound on its
    # radius, alone 1.76e8 long: the cap refuses it from that count, before any level's points
    # are allocated (about 1.4 GB), and before the packing radius is enumerated
    tau = PeriodMatrix(1j * np.diag([1, 1, 1e-14]))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=r"^1\.76e\+08 lattice points needed, over the cap of 1048576; "):
            theta_tables(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_near_singular_refusal_enumerates_few_points(monkeypatch):
    # a near-singular Im tau is refused from the count of the main pass at a lower bound on its
    # radius, before the packing radius is enumerated: that took up to a million points per tau
    ellipsoid, rows = thetaeval._ellipsoid, []

    def counting(*args):
        k = ellipsoid(*args)
        rows.append(len(k))
        return k

    monkeypatch.setattr(thetaeval, "_ellipsoid", counting)
    rng = np.random.default_rng(0)
    for _ in range(5):
        with pytest.raises(TruncationError):
            theta_tables(PeriodMatrix(near_singular_tau(rng, 1e-13)))
    assert sum(rows) < 10**4


@pytest.fixture
def series_calls(monkeypatch):
    """Counts calls of the lattice kernel for the rest of the test."""
    calls = []
    series = thetaeval._series

    def counting(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(thetaeval, "_series", counting)
    return calls


def test_one_lattice_pass_per_tau_and_policy(tau_seed1, series_calls):
    tau = PeriodMatrix(tau_seed1.tau)
    weber_coefficients(REFERENCE_SYSTEM, tau)
    all_bitangents(REFERENCE_SYSTEM, tau)
    aronhold_coeffs_dets(REFERENCE_SYSTEM, tau)
    require_generic(tau)
    jacobian_det(*REFERENCE_SYSTEM.forms[:3], tau)
    jacobi_ratio(REFERENCE_SYSTEM.forms[:4], REFERENCE_SYSTEM.forms[4:], tau)
    even_constant_table(tau, TruncationPolicy())  # equal to the default policy
    # every value and gradient at z = 0 is a lookup in the kept tables, at any integer lift
    lift = Characteristic((2, 0, -2), (0, 2, 4))
    for q in all_forms():
        theta_const(q + lift, tau)
        grad_theta0(q + lift, tau)
    invariants.parity_vanishing(tau)
    assert len(series_calls) == 1
    # u = 0 reads the kept table; v (which is u + v) and u - v cost one pass each
    invariants.addition_formula(tau, np.random.default_rng(0))
    assert len(series_calls) == 3
    loose = TruncationPolicy(target_tail=1e-10)
    even_constant_table(tau, loose)
    coarse = theta_tables(tau, loose)
    assert not np.array_equal(coarse.values, theta_tables(tau).values)
    # the coarse table kept beside the default one never reaches the pipeline
    a = weber_coefficients(REFERENCE_SYSTEM, tau).a
    _, lines = all_bitangents(REFERENCE_SYSTEM, tau)
    assert len(series_calls) == 4
    twin = PeriodMatrix(tau_seed1.tau)
    odd_gradient_table(twin)
    assert len(series_calls) == 5
    assert a.tobytes() == weber_coefficients(REFERENCE_SYSTEM, twin).a.tobytes()
    assert lines.tobytes() == all_bitangents(REFERENCE_SYSTEM, twin)[1].tobytes()
    assert len(series_calls) == 5


def test_addition_formula_one_pass_per_distinct_z(tau_seed1, series_calls):
    tau = PeriodMatrix(tau_seed1.tau)
    theta_tables(tau)
    q5, q6, q7 = REFERENCE_SYSTEM.forms[4:]
    ms = (char_sum(q5, q6, q7), q5, q6, q7)
    u, v = np.array([0.1 + 0.02j, -0.2, 0.05j]), np.array([-0.15 + 0.03j, 0.1 - 0.04j, 0.2])
    series_calls.clear()
    assert addition_formula_residual(*ms, None, v, tau) < 1e-9
    assert len(series_calls) == 2  # u = 0 reads the kept table; v (which is u + v) and u - v
    series_calls.clear()
    assert addition_formula_residual(*ms, u, v, tau) < 1e-9
    assert len(series_calls) == 4  # u + v, u - v, u and v


@pytest.mark.parametrize("shift", [0, 1, -3], ids=["re0", "re+1", "re-3"])
@pytest.mark.parametrize("seed", [1, 4, 7])
def test_theta_at_zero_is_the_kept_constant(seed, shift):
    # a fresh pass at z = 0 and the kept table agree bit for bit in all 64 values and
    # gradients, with Re tau shifted by integers or not
    tau = PeriodMatrix(random_admissible_tau(seed).tau + shift * np.array([[2, 1, 0], [1, 0, -1], [0, -1, 4]]))
    kept, (values, grads) = theta_tables(tau), thetaeval._series(tau, np.zeros(3))
    assert kept.values.tobytes() == values.tobytes() and kept.grads.tobytes() == grads.tobytes()


#: a shift 2B of Re tau whose units i^(m'.B.m') are not all 1
_MIRROR_SHIFT = 2 * np.array([[1, 0, 1], [0, 0, 1], [1, 1, 1]])
_MIRROR_TAUS = {
    **{f"seed{s}": random_admissible_tau(s).tau for s in range(1, 31)},
    **{f"seed{s}+2B": random_admissible_tau(s).tau + _MIRROR_SHIFT for s in range(1, 31)},
    "draw213": tau_from_json(json.loads((DATA / "tau_rng201_draw213.json").read_text())),
    "thin": _skewed(PeriodMatrix(0.1 + 1j * np.diag([1e-3, 1e3, 1.0])), 1).tau,  # thin: Im(tau) eigenvalues 3e-4 to 2e3
    "imaginary": 1j * random_admissible_tau(1).tau.imag,  # real weights, whose imaginary parts are signed zeros
    "one point": 0.1 + 100j * np.eye(3),  # the ellipsoid holds k = 0 alone: nothing to mirror
}


@pytest.mark.parametrize("name", _MIRROR_TAUS)
def test_mirrored_pass_is_the_full_pass(name):
    # at z = None the pass exponentiates rows 0..h of the ellipsoid and mirrors them (w even, p w odd);
    # at z = 0 given as an array it evaluates every row: the two agree bit for bit
    tau = PeriodMatrix(_MIRROR_TAUS[name])
    half, full = thetaeval._series(tau, None), thetaeval._series(tau, np.zeros(3))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(half, full))
    # the ellipsoid at centre 0 lists -k in the reverse order of k, its middle row 0
    k = _ellipsoid(tau.chol / 2, np.zeros(3), thetaeval._radius2(tau, np.zeros(3), thetaeval.DEFAULT_POLICY))
    assert len(k) % 2 == 1 and (k[::-1] == -k).all()
    if name == "one point":
        assert len(k) == 1  # the case covers the empty mirror slices only while N is 1


@pytest.mark.parametrize("rows", [slice(None, -1), slice(2, None)], ids=["even-count", "middle-row-not-zero"])
def test_pass_at_z0_refuses_an_unpaired_enumeration(rows, monkeypatch):
    # the mirrored pass needs rows h + j = -(rows h - j); an enumeration without that pairing is an internal error
    ellipsoid = thetaeval._ellipsoid
    monkeypatch.setattr(thetaeval, "_ellipsoid", lambda *args: ellipsoid(*args)[rows])
    with pytest.raises(RuntimeError, match="the lattice pass at z = 0 is not symmetric"):
        theta_tables(PeriodMatrix(_MIRROR_TAUS["seed1"]))


@pytest.mark.parametrize("centre", [np.zeros(3), np.array([0.6, -1.4, 0.9])], ids=["centre0", "centre"])
@pytest.mark.parametrize("name", ["seed1", "thin"])
def test_ellipsoid_rows_ascend_in_k3_k2_k1(name, centre):
    # the class sums of a pass keep their bits only if the enumeration keeps its order
    tau = PeriodMatrix(_MIRROR_TAUS[name])
    k = _ellipsoid(tau.chol / 2, centre, thetaeval._radius2(tau, centre / 2, thetaeval.DEFAULT_POLICY))
    assert len(k) > 100
    assert (np.lexsort(k.T) == np.arange(len(k))).all()  # lexsort's last key, k_3, is its first


def test_failed_pass_is_not_kept(series_calls):
    tau = PeriodMatrix(1j * np.diag([1e-10, 1e10, 1.0]))  # the thin ellipsoid above
    for table in (even_constant_table, odd_gradient_table, vanishing_even_characteristics):
        with pytest.raises(TruncationError):
            table(tau)
    assert len(series_calls) == 3


def test_shift_with_no_lattice_points():
    # with Im(tau)_11 = 100 the ellipsoids of the four m' with m'_1 = 1 hold no lattice point;
    # their constants and gradients are exactly 0, and every entry matches the cube sum
    tau = PeriodMatrix(1j * np.diag([100.0, 1.1, 0.9]) + 0.1)
    tables = thetaeval.theta_tables(tau)
    scale = np.abs(tables.values).max()
    for q in all_forms():
        value, grad = invariants.cube_sum(q.mp, q.mpp, tau.tau)
        x = pack(q)
        if q.mp[0]:
            assert tables.values[x] == 0 and not tables.grads[x].any()
        assert abs(tables.values[x] - value) <= 1e-14 * scale
        assert np.abs(tables.grads[x] - grad).max() <= 1e-14 * scale


def test_kept_table_cannot_be_changed_by_callers(tau_seed1):
    tau = PeriodMatrix(tau_seed1.tau)
    grads = odd_gradient_table(tau)
    with pytest.raises(ValueError):
        next(iter(grads.values()))[0] = 0
    even = even_constant_table(tau)
    want = dict(even)
    even.clear()
    grads.clear()
    assert even_constant_table(tau) == want
    assert len(odd_gradient_table(tau)) == 28


def test_period_matrix_validation():
    PeriodMatrix(1j * np.eye(3))  # valid
    with pytest.raises(InvalidTauError, match="positive definite"):
        PeriodMatrix(np.diag([1j, 1j, -1j]))
    with pytest.raises(InvalidTauError, match="asymmetric"):
        bad = 1j * np.eye(3)
        bad = bad + 0j
        bad[0, 1] = 1e-6
        PeriodMatrix(bad)
    # an antisymmetric pair near the float limit is measured without overflow
    huge = 1j * np.eye(3) + 0j
    huge[0, 1], huge[1, 0] = 1e308, -1e308
    with pytest.raises(InvalidTauError, match="asymmetric"):
        PeriodMatrix(huge)
    for entry in (10**400, "a"):
        rows = (1j * np.eye(3)).tolist()
        rows[0][1] = rows[1][0] = entry
        with pytest.raises(InvalidTauError, match="not complex numbers"):
            PeriodMatrix(rows)
    # tiny asymmetry is symmetrized
    nearly = 1j * np.eye(3) + 0j
    nearly[0, 1] = 1e-13
    pm = PeriodMatrix(nearly)
    assert np.abs(pm.tau - pm.tau.T).max() == 0


@pytest.mark.parametrize("seed, shift", [(1, 0.0), (4, 0.0), (7, 0.0), (7, 1e12)],
                         ids=["seed1", "seed4", "seed7", "seed7-re-tau11+1e12"])
def test_tau_json_roundtrip(seed, shift):
    # through json's own text and back, every bit of tau survives
    tau = random_admissible_tau(seed).tau.copy()
    tau[0, 0] += shift
    back = tau_from_json(json.loads(json.dumps(tau_to_json(tau))))
    assert back.tobytes() == tau.tobytes()


def test_tau_json_malformed():
    with pytest.raises(InvalidTauError):
        tau_from_json({"tau": [[1, 2], [3]]})
    with pytest.raises(InvalidTauError):
        tau_from_json({"nope": 1})
    # rows of 3, 2 and 3 valid entries
    ragged = tau_to_json(1j * np.eye(3))
    del ragged["tau"][1][2]
    with pytest.raises(InvalidTauError, match="malformed tau JSON"):
        tau_from_json(ragged)
    # every entry is a JSON number a float can hold: no boolean, string, null, list or 400-digit integer
    for entry in (10**400, True, "a", None, [1.0]):
        obj = tau_to_json(1j * np.eye(3))
        obj["tau"][0][1]["im"] = entry
        with pytest.raises(InvalidTauError, match="malformed tau JSON"):
            tau_from_json(obj)


def test_random_tau_recipe_shape():
    rng = np.random.default_rng(0)
    raw = random_tau(rng)
    assert np.abs(raw - raw.T).max() == 0
    assert np.linalg.eigvalsh(raw.imag).min() >= 0.5 - 1e-12
    rng2 = np.random.default_rng(0)
    assert np.array_equal(raw, random_tau(rng2))
