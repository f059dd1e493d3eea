"""Named invariant checks: the classical identities Weber's formula stands on.

Each check measures one period matrix and returns its residual, or an
array of residuals, and owns the one tolerance it must meet.
``theta-quartic selftest`` runs every check over seeded random period
matrices; the acceptance tests run the same checks at their own seeds.
The checks of exact combinatorics ignore the period matrix and count
mismatches against tolerance 0.
"""

from __future__ import annotations

import itertools
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


def raw_theta(mp, mpp, tau, z, radius=8) -> complex:
    """Direct lattice sum at an arbitrary integer characteristic, over the cube of ``radius``.

    It never reduces the characteristic and shares no code with
    :mod:`thetaquartic.thetaeval`, so it is the reference for the
    reduction signs.
    """
    points = np.array(list(itertools.product(range(-radius, radius + 1), repeat=3)), dtype=float)
    rows = (points + np.asarray(mp, dtype=float) / 2).astype(complex)
    shift = np.asarray(z, dtype=complex) + np.asarray(mpp, dtype=float) / 2
    exponents = np.array([p @ tau @ p + 2 * p @ shift for p in rows])
    total = 0.0 + 0.0j
    for term in np.exp(1j * np.pi * exponents).tolist():  # e(x) convention, summed in lattice order
        total += term
    return total


def fd_gradient(func, step=1e-5) -> np.ndarray:
    """Central finite differences of a C^3 -> C function at the origin."""
    out = np.zeros(3, dtype=complex)
    for axis in range(3):
        dz = np.zeros(3)
        dz[axis] = step
        out[axis] = (func(dz) - func(-dz)) / (2 * step)
    return out


def _random_z(rng) -> np.ndarray:
    return rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.05


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
    sets = {s.as_set() for s in systems}
    missing = ca.REFERENCE_SYSTEM.as_set() not in sets
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
    direct = raw_theta(m.mp, m.mpp, tau.tau, np.zeros(3))
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
    return te.addition_formula_residual(
        ca.char_sum(q5, q6, q7), q5, q6, q7,
        None, _random_z(rng), tau,
    )


@_check("quasi-periodicity", 1e-9)
def quasi_periodicity(tau, rng):
    """Half-period law for a random form, half period and z."""
    q = ca.all_forms()[int(rng.integers(0, 64))]
    k, h = rng.integers(0, 2, 3), rng.integers(0, 2, 3)
    return te.quasi_periodicity_residual(q, k, h, tau, _random_z(rng))


@_check("jacobi-ratio", 1e-8)
def jacobi_ratio(tau, rng, system=ca.REFERENCE_SYSTEM):
    """Determinant-ratio identity for the first four forms of ``system``.

    Returns (worst relative residual over both completions, relative gap
    between the two completions' closed forms).
    """
    quad = system.forms[:4]
    worst, values = 0.0, []
    for comp in ca.complete_4tuple(*quad):
        lhs, rhs = wb.jacobi_ratio(quad, comp, tau)
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
    return max(wb.ProjLine(tuple(rows[i])).residual_to(frame.a[i]) for i in range(3))


@_check("bitangency-28", vf.BITANGENCY_TOL)
def bitangency_28(tau, rng):
    """Certificate residuals of the 28 transported lines on the reconstructed quartic."""
    return vf.reconstruct(tau).certs[1]
