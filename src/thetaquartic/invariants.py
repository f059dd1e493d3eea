"""Named invariant checks: the classical identities Weber's formula stands on.

Each check measures one period matrix and returns its residual, or an
array of residuals, and owns the one tolerance it must meet.
``theta-quartic selftest`` runs every check over seeded random period
matrices; the acceptance tests run the same checks at their own seeds.
The checks of exact combinatorics ignore the period matrix and count
mismatches against tolerance 0.  The identity evaluators the checks
measure live here too, and so does :func:`cube_sum`, the one direct
lattice sum the check ``reduction-formula`` and the tests compare the
engine with: the pipeline calls none of them, and the command line
imports this module only for ``selftest``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import charalgebra as ca
from . import thetaeval as te
from . import verify as vf
from . import weber as wb


@dataclass(frozen=True)
class Check:
    """A named identity and its tolerance.

    Calling it measures one period matrix: ``measure(tau, rng)``
    returns the residual(s), drawing any random inputs from ``rng``;
    theta values come from the tables kept at the default tail.
    Weber's coefficients are taken in his printed row-sign convention;
    the signs do not change k, the quartic or the lines.
    """

    name: str
    tol: float
    measure: Callable

    def __call__(self, tau=None, rng=None, **kw):
        return self.measure(tau, rng, **kw)

    def passes(self, residuals) -> bool:
        """Whether no residual exceeds the tolerance (NaN fails)."""
        return bool(np.max(residuals) <= self.tol)


#: Every check, in the order the selftest reports them: the order of definition.
CHECKS: list[Check] = []


def _check(name: str, tol: float):
    def register(measure):
        CHECKS.append(Check(name, tol, measure))
        return CHECKS[-1]
    return register


def cube_sum(mp, mpp, tau, z=None):
    """Theta value and z-gradient at any integer characteristic and z (default 0), from a direct box sum.

    p = n + m'/2 runs over a cube of integer n centred at rint(peak - m'/2),
    peak = -Y^-1 Im(z) with Y = Im(tau), so the cube surrounds the
    Gaussian peak for every lift m'.  Its half-width
    ceil(1/2 + sqrt(-ln(1e-15) / (pi lam_min))), lam_min the smallest
    eigenvalue of Y, leaves out only terms below 1e-15 of the peak term.
    It never reduces the characteristic and shares no code with
    :mod:`thetaquartic.thetaeval`, so it is the reference for the
    reduction signs and for the engine's tail bound.
    """
    tau, mp = np.asarray(tau), np.asarray(mp, dtype=float)
    z = np.zeros(3) if z is None else np.asarray(z, dtype=complex)
    centre = np.rint(-np.linalg.solve(tau.imag, z.imag) - mp / 2)
    half = math.ceil(0.5 + math.sqrt(-math.log(1e-15) / (math.pi * np.linalg.eigvalsh(tau.imag).min())))
    r = np.arange(-half, half + 1)
    p = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3) + centre + mp / 2
    # e(x) convention
    terms = np.exp(1j * np.pi * (np.einsum("ni,ij,nj->n", p, tau, p) + p @ np.asarray(mpp) + 2 * p @ z))
    return terms.sum(), 2j * np.pi * p.T @ terms


#: the step of :func:`fd_gradient`'s central differences
FD_STEP = 1e-5


def fd_gradient(func) -> np.ndarray:
    """Central finite differences of a C^3 -> C function at the origin, with step :data:`FD_STEP`."""
    out = np.zeros(3, dtype=complex)
    for axis in range(3):
        dz = np.zeros(3)
        dz[axis] = FD_STEP
        out[axis] = (func(dz) - func(-dz)) / (2 * FD_STEP)
    return out


def _random_z(rng) -> np.ndarray:
    return rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05


def jacobian_det(q1: ca.Characteristic, q2: ca.Characteristic, q3: ca.Characteristic, tau: te.PeriodMatrix) -> complex:
    """D[q1,q2,q3]: determinant of the three stacked theta gradients at 0, from the kept table."""
    for q in (q1, q2, q3):
        if not ca.arf(q):
            raise ValueError(f"jacobian_det needs odd characteristics, got {q.bracket()}")
    return complex(np.linalg.det([te.grad_theta0(q, tau) for q in (q1, q2, q3)]))


def complete_4tuple(q1: ca.Characteristic, q2: ca.Characteristic, q3: ca.Characteristic, q4: ca.Characteristic):
    """The two odd triples completing an azygetic 4-tuple to Aronhold systems.

    Each is one of the 288 Aronhold systems that contains the 4-tuple,
    less the 4-tuple, in that order and with forms in (m', m'') order.
    """
    base = (q1, q2, q3, q4)
    if len(set(base)) != 4 or any(ca.arf(q) != 1 for q in base):
        raise ValueError("need four distinct odd forms")
    if not all(ca.is_azygetic_triple(*t) for t in itertools.combinations(base, 3)):
        raise ValueError("the 4-tuple is not azygetic")
    return tuple(
        tuple(q for q in system if q not in base)
        for system in ca.enumerate_aronhold()
        if frozenset(system).issuperset(base)
    )


def jacobi_ratio(
    quad: tuple[ca.Characteristic, ca.Characteristic, ca.Characteristic, ca.Characteristic],
    completion: tuple[ca.Characteristic, ca.Characteristic, ca.Characteristic],
    tau: te.PeriodMatrix,
):
    """Both sides of the determinant-ratio identity for an azygetic 4-tuple.

    lhs = D[q4,q2,q3] / D[q1,q2,q3]; rhs is the closed form
    -e((q5+q6+q7)'.(q1+q4)'') times a ratio of six theta constants at
    non-reduced characteristic sums.  The identity is completion
    independent; callers may verify by passing either completing triple.
    """
    q1, q2, q3, q4 = quad
    q5, q6, q7 = completion
    # seven distinct odd forms, every triple azygetic: so the 4-tuple is an azygetic one
    if not ca.is_aronhold(quad + tuple(completion)):
        raise ValueError("the 4-tuple and its completion are not an Aronhold system")

    wb.require_generic(tau)
    lhs = jacobian_det(q4, q2, q3, tau) / jacobian_det(q1, q2, q3, tau)

    s567 = ca.char_sum(q5, q6, q7)
    s14 = ca.char_sum(q1, q4)
    pref = 1 if sum(s567.mp[i] * s14.mpp[i] for i in range(3)) % 2 else -1  # -e(s567'.s14'')
    num = den = 1.0 + 0.0j
    for x, y in ((q5, q6), (q5, q7), (q6, q7)):
        num *= te.theta(ca.char_sum(x, y, q1), tau)
        den *= te.theta(ca.char_sum(x, y, q4), tau)
    rhs = pref * num / den
    return lhs, rhs


_ADDITION_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _half_combination(ms, signs) -> ca.Characteristic:
    mp = tuple(sum(s * m.mp[i] for s, m in zip(signs, ms)) for i in range(3))
    mpp = tuple(sum(s * m.mpp[i] for s, m in zip(signs, ms)) for i in range(3))
    if any(x % 2 for x in mp + mpp):
        raise ValueError("half-sum characteristics are not integral for this quadruple")
    return ca.Characteristic(tuple(x // 2 for x in mp), tuple(x // 2 for x in mpp))


def addition_formula_residual(
    m1: ca.Characteristic,
    m2: ca.Characteristic,
    m3: ca.Characteristic,
    m4: ca.Characteristic,
    u,
    v,
    tau: te.PeriodMatrix,
) -> float:
    """Normalized residual of the classical four-term addition formula.

    The left side is theta_{m1}(u+v) theta_{m2}(u-v) theta_{m3} theta_{m4};
    the right side averages, over the 64 representatives a of Z^6/2Z^6,
    the products theta_{n_i+a} with (n_i) the half-sum transform of
    (m_i), weighted by e(m1'.a'').  Raises if the (n_i) are not
    integral.  Each distinct z costs one lattice pass (at u = None, u + v is v).
    """
    ms = (m1, m2, m3, m4)
    ns = [_half_combination(ms, s) for s in _ADDITION_SIGNS]
    zero = np.zeros(3, dtype=complex)
    uu, vv = (zero if x is None else np.asarray(x, dtype=complex) for x in (u, v))
    consts = te.theta_tables(tau).values
    passes = {}  # the values at z, keyed by the bytes of z

    def at(z):
        if z.tobytes() not in passes:
            passes[z.tobytes()] = te._series(tau, z)[0]
        return passes[z.tobytes()]

    at_u, at_v = (consts if x is None else at(y) for x, y in ((u, uu), (v, vv)))
    lhs = te._lookup(at(uu + vv), m1) * te._lookup(at(uu - vv), m2) * te._lookup(consts, m3) * te._lookup(consts, m4)
    total = 0.0 + 0.0j
    peak = 0.0
    factor_peak = 0.0
    for a in ca.even_forms() + ca.odd_forms():
        sign = -1 if sum(m1.mp[i] * a.mpp[i] for i in range(3)) % 2 else 1
        factors = (
            te._lookup(at_u, ca.char_sum(ns[0], a)),
            te._lookup(at_u, ca.char_sum(ns[1], a)),
            te._lookup(at_v, ca.char_sum(ns[2], a)),
            te._lookup(at_v, ca.char_sum(ns[3], a)),
        )
        factor_peak = max(factor_peak, *(abs(f) for f in factors))
        term = sign * factors[0] * factors[1] * factors[2] * factors[3]
        peak = max(peak, abs(term))
        total += term
    rhs = total / 8  # 2^{-g}, g = 3
    scale = max(abs(lhs), peak / 8)
    # when parity kills every product, both sides vanish structurally;
    # measure against the factor scale instead of 0/0 noise
    if scale < 1e-8 * factor_peak**4:
        scale = factor_peak**4
    if scale == 0:
        return 0.0
    return abs(lhs - rhs) / scale


def quasi_periodicity_residual(q: ca.Characteristic, k, h, tau: te.PeriodMatrix, z) -> float:
    """Residual of the half-period transformation law.

    Shifting z by h/2 + tau.k/2 multiplies theta[q] by
    e(-k.(m''+h)/2 - k.z - k.tau.k/4) and replaces the characteristic
    by the integer sum (m'+k, m''+h); the reduction sign of that sum is
    part of the law, which is why the right side goes through
    :func:`thetaquartic.thetaeval.theta` rather than a plain reduced constant.
    """
    k = np.array([int(x) for x in k])
    h = np.array([int(x) for x in h])
    z = np.zeros(3, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    lhs = te.theta(q, tau, z + h / 2 + tau.tau @ k / 2)
    mpp = np.array(q.mpp)
    exponent = -0.5 * k @ (mpp + h) - k @ z - 0.25 * k @ tau.tau @ k
    shifted = te.theta(ca.char_sum(q, ca.Characteristic(tuple(k), tuple(h))), tau, z)
    rhs = np.exp(1j * np.pi * exponent) * shifted  # e(x) convention
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return 0.0
    return float(abs(lhs - rhs) / scale)


#: Weber's printed coefficient table for the reference system: (i, j) ->
#: (phase, reduction-sign product, num1, num2, den1, den2), row signs eps = (+1, +1, +1).
WEBER_TABLE = {
    (1, 1): (1j, 1, "[100|001]", "[000|101]", "[101|000]", "[001|100]"),
    (1, 2): (1j, 1, "[010|101]", "[110|001]", "[011|100]", "[111|000]"),
    (1, 3): (1j, 1, "[000|111]", "[100|011]", "[001|110]", "[101|010]"),
    (2, 1): (1j, 1, "[110|110]", "[000|101]", "[101|000]", "[011|011]"),
    (2, 2): (1j, 1, "[000|010]", "[110|001]", "[011|100]", "[101|111]"),
    (2, 3): (1j, -1, "[010|000]", "[100|011]", "[001|110]", "[111|101]"),
    (3, 1): (-1, 1, "[110|110]", "[100|001]", "[001|100]", "[011|011]"),
    (3, 2): (1, 1, "[000|010]", "[010|101]", "[111|000]", "[101|111]"),
    (3, 3): (1, -1, "[010|000]", "[000|111]", "[101|010]", "[111|101]"),
}


def weber_entry_as_printed(i: int, j: int) -> tuple:
    """``weber_symbolic(REFERENCE_SYSTEM, i, j)`` in the layout of :data:`WEBER_TABLE`."""
    entry = wb.weber_symbolic(ca.REFERENCE_SYSTEM, i, j)
    return (entry.phase, entry.rho, *(c.bracket() for c in entry.chars))


@_check("parity-counts", 0)
def parity_counts(*_):
    """Wrong counts among 36 even and 28 odd quadratic forms."""
    return float((len(ca.even_forms()) != 36) + (len(ca.odd_forms()) != 28))


@_check("aronhold-count", 0)
def aronhold_count(*_):
    """Failures among: 288 distinct Aronhold systems, the reference among them.

    Each system passed :func:`~thetaquartic.charalgebra.is_aronhold` when
    it was constructed, so the check does not run it again.
    """
    systems = ca.enumerate_aronhold()
    sets = {frozenset(s) for s in systems}
    missing = frozenset(ca.REFERENCE_SYSTEM) not in sets
    return float((len(systems) != 288) + (len(sets) != len(systems)) + missing)


@_check("weber-symbolic-table", 0)
def weber_symbolic_table(*_):
    """Entries of the nine a_ij that differ from Weber's printed table."""
    return float(sum(weber_entry_as_printed(*ij) != want for ij, want in WEBER_TABLE.items()))


@_check("reduction-formula", 1e-10)
def reduction_formula(tau, rng):
    """theta at a random lift of the even [101|101] against the direct sum, relative."""
    shift = ca.Characteristic(
        tuple(2 * int(x) for x in rng.integers(0, 2, 3)),
        tuple(2 * int(x) for x in rng.integers(0, 2, 3)),
    )
    m = ca.Characteristic((1, 0, 1), (1, 0, 1)) + shift
    direct = cube_sum(m.mp, m.mpp, tau.tau)[0]
    return abs(direct - te.theta_const(m, tau)) / abs(direct)


@_check("parity-vanishing", 1e-10)
def parity_vanishing(tau, rng):
    """Odd constants over the largest even one, and even gradients over the largest odd one."""
    scale = max(abs(v) for v in te.even_constant_table(tau).values())
    gscale = max(np.linalg.norm(g) for g in te.odd_gradient_table(tau).values())
    odd = max(abs(te.theta_const(q, tau)) for q in ca.odd_forms())
    even = max(np.linalg.norm(te.grad_theta0(q, tau)) for q in ca.even_forms())
    return max(odd / scale, even / gscale)


@_check("gradient-finite-difference", 1e-7)
def gradient_finite_difference(tau, rng):
    """Series gradients of 3 random odd forms against central differences, relative."""
    worst = 0.0
    for idx in rng.integers(0, 28, 3):
        m = ca.odd_forms()[int(idx)]
        g = te.grad_theta0(m, tau)
        fd = fd_gradient(lambda dz: te.theta(m, tau, dz))
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
    return worst


@_check("addition-formula", 1e-9)
def addition_formula(tau, rng):
    """Four-term addition formula for (q5+q6+q7, q5, q6, q7) at u = 0 and a random v."""
    q5, q6, q7 = ca.REFERENCE_SYSTEM.forms[4:]
    return addition_formula_residual(
        ca.char_sum(q5, q6, q7), q5, q6, q7,
        None, _random_z(rng), tau,
    )


@_check("quasi-periodicity", 1e-9)
def quasi_periodicity(tau, rng):
    """Half-period law for a random form, half period and z."""
    q = ca.all_forms()[int(rng.integers(0, 64))]
    k, h = rng.integers(0, 2, 3), rng.integers(0, 2, 3)
    return quasi_periodicity_residual(q, k, h, tau, _random_z(rng))


@_check("jacobi-ratio", 1e-8)
def jacobi_ratio_check(tau, rng, system=ca.REFERENCE_SYSTEM):
    """Determinant-ratio identity for the first four forms of ``system``.

    Returns (worst relative residual over both completions, relative gap
    between the two completions' closed forms).
    """
    quad = system.forms[:4]
    worst, values = 0.0, []
    for comp in complete_4tuple(*quad):
        lhs, rhs = jacobi_ratio(quad, comp, tau)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
        values.append(rhs)
    return np.array([worst, abs(values[0] - values[1]) / abs(values[0])])


@_check("weber-normalization-k", 1e-8)
def weber_normalization_k(tau, rng):
    """max |k - 1| of Weber's normalization."""
    return float(np.abs(wb.weber_coefficients(ca.REFERENCE_SYSTEM, tau).k - 1).max())


@_check("determinant-ratio-rows", 1e-8)
def determinant_ratio_rows(tau, rng):
    """Projective residual of the coefficient rows against their determinant ratios."""
    frame = wb.weber_coefficients(ca.REFERENCE_SYSTEM, tau)
    rows = wb.aronhold_coeffs_dets(ca.REFERENCE_SYSTEM, tau)
    return max(wb.ProjLine(rows[i]).residual_to(frame.a[i]) for i in range(3))


@_check("bitangency-28", vf.BITANGENCY_TOL)
def bitangency_28(tau, rng):
    """Certificate residuals of the 28 transported lines on the reconstructed quartic."""
    return vf.reconstruct(tau).certs[1]
