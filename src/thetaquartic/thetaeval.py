"""Numerical Riemann theta machinery for genus 3.

Evaluates the lattice series

    theta_m(tau, z) = sum_{n in Z^3} e[ (n+m'/2).tau.(n+m'/2) + 2(n+m'/2).(z+m''/2) ]

with the half-integral phase convention e(x) := exp(pi*i*x).  That
convention is the single most bug-prone piece of the whole pipeline, so
it lives in exactly one helper (:func:`ephase`) and every phase in the
package goes through it or through ``numpy.exp(1j*pi*...)`` on a value
assembled right next to a comment saying so.

Non-reduced integer characteristics are reduced first and the series is
evaluated at the reduced representative, multiplied by the tracked
reduction sign.

Every series goes through one private kernel (:func:`_series`).  With
Y = Im(tau), p = n + m'/2 and a = Y^-1 Im(z), a term has modulus
exp(pi a.Y.a) exp(-pi (n+c).Y.(n+c)) with center c = m'/2 + a, the
Gaussian peak.  Each m' shift sums over its ellipsoid

    (n + c).Y.(n + c) <= R^2,

enumerated level by level from the Cholesky factor of Y (Fincke-Pohst);
one vectorized pass enumerates the ellipsoids of all requested shifts.
The points and the factor e(p.tau.p + 2p.z) depend on m' only, and
e(p.m'') is a power of i, so all m'' of one shift come out of the same
points: the values are the column sums of the N x k term matrix, the
gradients 2*pi*i p^T times it.  The pipeline's 36 even constants and 28
odd gradients at z = 0 come from one pass over all 8 shifts, kept on the
PeriodMatrix per policy (:func:`_tables`), so every stage reads it.

R follows the tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies, "Computing Riemann theta functions", Math. Comp. 73 (2004).  In
coordinates u with |u|^2 = pi (n+c).Y.(n+c), take rho at most the
shortest nonzero lattice vector (capped at ``RHO_CAP``): balls of radius
rho/2 around the points are disjoint, and a subharmonic summand is at
most its ball average, so for T = (sqrt(pi) R - rho/2)^2 >= _T_MIN

    sum over |u| >= sqrt(pi) R of exp(-|u|^2)      <= (3/2)(2/rho)^3 Gamma(3/2, T)
    sum over |u| >= sqrt(pi) R of |u| exp(-|u|^2)  <= (3/2)(2/rho)^3 Gamma(2, T).

The second sum covers the |p| factor of the gradient terms, through
|p| <= |a| + |u| / sqrt(pi lam_min).  R is set so that the neglected
value mass plus gradient mass, relative to exp(pi a.Y.a) (which is 1 at
z = 0), is below ``target_tail``: values and gradients share one rule.

The enumeration counts the points of each level before it allocates
them, and a pass that would hold more than ``MAX_POINTS`` points per
shift raises :class:`TruncationError`.  The count is usually about
(4/3) pi R^3 / sqrt(det Y) per shift, which is invariant under
tau -> U tau U^T for U in GL_3(Z).  R itself grows only logarithmically
with 1/lam_min (through the gradient weight and the packing radius).
An ellipsoid thinner than the lattice spacing in some direction holds
far more points than its volume, which is why the cap is on the exact
count.  No modular transformation is applied to tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charalgebra import (
    Characteristic,
    char_sum,
    even_forms,
    odd_forms,
    reduce_characteristic,
)
from .errors import InvalidTauError, TruncationError

#: Relative tolerance below which an even theta constant counts as vanishing.
#: Shared by the special-locus scan and the pipeline admission gate.
VANISHING_REL_TOL = 1e-8

DEFAULT_TAIL = 1e-15

#: Cap on the lattice points of one m' shift.  A pass over all eight
#: shifts then holds at most about a million points (about 200 MB).
MAX_POINTS = 1 << 17

#: Cap on the packing radius the tail bound uses.  The bound's radius
#: R(rho) is flat near its minimum at about this value, so a shortest
#: lattice vector longer than it buys nothing.
RHO_CAP = 0.5

#: Smallest T for which the tail bound holds: from |u| = sqrt(T) on,
#: |u| exp(-|u|^2) is subharmonic in 3-D (exp(-|u|^2) from sqrt(3/2) on).
_T_MIN = (10 + math.sqrt(68)) / 8

_UNITS = np.array([1, 1j, -1, -1j])

_EVEN = tuple(q.characteristic for q in even_forms())
_ODD = tuple(q.characteristic for q in odd_forms())

ASYMMETRY_TOL = 1e-9


def ephase(x) -> complex:
    """e(x) = exp(pi*i*x), the half-integral phase unit."""
    return np.exp(1j * np.pi * np.asarray(x))


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls the lattice truncation of the theta series.

    ``target_tail`` bounds the neglected value plus gradient mass (see
    the module docstring); it fixes the ellipsoid's radius R.
    """

    target_tail: float = DEFAULT_TAIL

    def __post_init__(self):
        if not 0 < self.target_tail <= 1e-6:
            raise ValueError("target_tail must lie in (0, 1e-6]")


DEFAULT_POLICY = TruncationPolicy()


class PeriodMatrix:
    """A genus-3 period matrix: complex symmetric with Im(tau) > 0.

    The input is symmetrized on construction; asymmetry beyond
    ``ASYMMETRY_TOL`` or a non-positive-definite imaginary part raises
    :class:`InvalidTauError` naming the violated invariant.
    """

    def __init__(self, tau):
        tau = np.asarray(tau, dtype=complex)
        if tau.shape != (3, 3):
            raise InvalidTauError(f"expected a 3x3 matrix, got shape {tau.shape}")
        if not np.all(np.isfinite(tau)):
            raise InvalidTauError("matrix contains non-finite entries")
        asym = np.abs(tau - tau.T).max()
        if asym > ASYMMETRY_TOL:
            raise InvalidTauError(f"matrix is asymmetric: max |tau - tau^T| = {asym:.3e}")
        tau = (tau + tau.T) / 2
        imag = tau.imag
        eigs = np.linalg.eigvalsh(imag)
        if eigs.min() <= 0:
            raise InvalidTauError(
                f"imaginary part is not positive definite: min eigenvalue = {eigs.min():.3e}"
            )
        tau.setflags(write=False)
        self.tau = tau
        self.lam_min = float(eigs.min())
        self._tables: dict = {}  # policy -> (even constants, odd gradients), see _tables

    def __repr__(self):
        return f"PeriodMatrix(lam_min={self.lam_min:.4g})"


def _ellipsoid(chol: np.ndarray, centers: np.ndarray, r2: float):
    """The integer points n with |chol.(n + c)|^2 <= r2, for each row c of ``centers``.

    Fincke-Pohst on the upper Cholesky factor: n_3 ranges over its
    interval, then n_2 over the interval the remaining budget leaves for
    each n_3, then n_1; each level is one vectorized expansion over all
    centers at once.  Returns float rows n and, for each, the index of
    its center; rows come grouped by center, in order.  Raises
    :class:`TruncationError` before a level would exceed ``MAX_POINTS``
    points per center.
    """
    n = np.zeros((len(centers), 0))
    owner = np.arange(len(centers))
    rem = np.full(len(centers), r2)
    for i in (2, 1, 0):
        d = chol[i, i]
        c = centers[owner]
        mid = -c[:, i] - (n + c[:, i + 1 :]) @ (chol[i, i + 1 :] / d)  # window center for n_i
        half = np.sqrt(rem.clip(0)) / d
        lo = np.ceil(mid - half)
        counts = np.floor(mid + half) - lo + 1
        if counts.sum() > MAX_POINTS * len(centers):
            raise TruncationError(
                f"{counts.sum():.3g} lattice points needed for {len(centers)} shift(s), "
                f"over the cap of {MAX_POINTS} per shift; Im(tau) is too close to singular "
                "for the requested tail"
            )
        counts = counts.astype(int)
        parent = np.repeat(np.arange(len(rem)), counts)
        ni = np.arange(parent.size) + (lo - np.cumsum(counts) + counts)[parent]
        n = np.column_stack([ni, n[parent]])
        owner = owner[parent]
        rem = rem[parent] - (d * (ni - mid[parent])) ** 2
    return n, owner


def _packing_radius(tau: PeriodMatrix, chol: np.ndarray) -> float:
    """min(RHO_CAP, shortest nonzero lattice vector) in u-units.

    Balls of half this radius around the lattice points are disjoint,
    which is all the tail bound needs; below the cap the bound barely
    depends on it.
    """
    if math.pi * tau.lam_min >= RHO_CAP**2:
        return RHO_CAP  # |u|^2 >= pi * lam_min * |n|^2
    n, _ = _ellipsoid(chol, np.zeros((1, 3)), RHO_CAP**2 / math.pi)
    norms = math.pi * ((n @ chol.T) ** 2).sum(axis=1)
    return math.sqrt(norms[norms > 0].min(initial=RHO_CAP**2))


def _radius2(tau: PeriodMatrix, chol: np.ndarray, a: np.ndarray, pol: TruncationPolicy) -> float:
    """R^2 of the summation ellipsoid: the smallest the tail bound allows for pol.target_tail."""
    rho = _packing_radius(tau, chol)
    pref = 1.5 * (2 / rho) ** 3
    w_value = 1 + 2 * math.pi * float(np.linalg.norm(a))
    w_grad = 2 * math.sqrt(math.pi / tau.lam_min)

    def bound(t):  # neglected value plus gradient mass at T = t
        s = math.sqrt(t)
        gamma_3_2 = s * math.exp(-t) + math.sqrt(math.pi) / 2 * math.erfc(s)
        gamma_2 = (1 + t) * math.exp(-t)
        return pref * (w_value * gamma_3_2 + w_grad * gamma_2)

    t = _T_MIN
    while (b := bound(t)) > pol.target_tail:
        # ln(bound) falls a little slower than t grows, so these steps
        # approach the root from below and stop at most 0.01 past it
        t += max(math.log(b / pol.target_tail), 0.01)
    r = math.sqrt(t) + rho / 2
    return r * r / math.pi


def _series(chars, tau: PeriodMatrix, z, pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Values and z-gradients of theta at the reduced characteristics ``chars``.

    One lattice pass over the ellipsoids of their distinct m' (see the
    module docstring); returns (values, gradients) aligned with ``chars``.
    """
    imag = tau.tau.imag
    chol = np.linalg.cholesky(imag).T  # imag = chol^T chol
    zz = np.zeros(3, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    a = np.linalg.solve(imag, zz.imag)
    r2 = _radius2(tau, chol, a, pol)
    shifts: dict[tuple, list[int]] = {}
    for j, m in enumerate(chars):
        shifts.setdefault(m.mp, []).append(j)
    half_mp = np.array(list(shifts)) / 2
    n, owner = _ellipsoid(chol, half_mp + a, r2)
    p = n + half_mp[owner]
    w = np.exp(1j * np.pi * (((p @ tau.tau) * p).sum(axis=1) + 2 * p @ zz))  # e(x) convention
    ends = np.cumsum(np.bincount(owner, minlength=len(shifts)))[:-1]
    values = np.empty(len(chars), dtype=complex)
    grads = np.empty((len(chars), 3), dtype=complex)
    for idx, ps, ws in zip(shifts.values(), np.split(p, ends), np.split(w, ends)):
        mpp = np.array([chars[j].mpp for j in idx]).T
        units = _UNITS[(2 * ps @ mpp).astype(int) % 4]  # e(p.m'') = i^(2p.m''), 2p integral
        values[idx] = ws @ units
        grads[idx] = (2j * np.pi * (ps * ws[:, None]).T @ units).T
    return values, grads


def theta(m: Characteristic, tau: PeriodMatrix, z=None, pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta_m(tau, z) for an arbitrary integer characteristic m.

    Reduces m first and premultiplies by the reduction sign, so callers
    may pass non-reduced sums of characteristics directly.
    """
    r, sign = reduce_characteristic(m)
    return sign * _series([r], tau, z, pol)[0][0]


def theta_const(m: Characteristic, tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The theta constant theta_m(tau) := theta_m(tau, 0)."""
    return theta(m, tau, None, pol)


def grad_theta0(m: Characteristic, tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """The z-gradient of theta_m at z = 0, by the termwise differentiated series."""
    r, sign = reduce_characteristic(m)
    return sign * _series([r], tau, None, pol)[1][0]


def jacobian_det(
    q1: Characteristic,
    q2: Characteristic,
    q3: Characteristic,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """D[q1,q2,q3]: determinant of the three stacked theta gradients at 0, from the kept table."""
    grads = dict(zip(_ODD, _tables(tau, pol)[1]))
    rows = []
    for q in (q1, q2, q3):
        r, sign = reduce_characteristic(q)
        if r not in grads:
            raise ValueError(f"jacobian_det needs odd characteristics, got {q.bracket()}")
        rows.append(sign * grads[r])
    return complex(np.linalg.det(rows))


_ADDITION_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _half_combination(ms, signs) -> Characteristic:
    mp = tuple(sum(s * m.mp[i] for s, m in zip(signs, ms)) for i in range(3))
    mpp = tuple(sum(s * m.mpp[i] for s, m in zip(signs, ms)) for i in range(3))
    if any(x % 2 for x in mp + mpp):
        raise ValueError("half-sum characteristics are not integral for this quadruple")
    return Characteristic(tuple(x // 2 for x in mp), tuple(x // 2 for x in mpp))


def addition_formula_residual(
    m1: Characteristic,
    m2: Characteristic,
    m3: Characteristic,
    m4: Characteristic,
    u,
    v,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Normalized residual of the classical four-term addition formula.

    The left side is theta_{m1}(u+v) theta_{m2}(u-v) theta_{m3} theta_{m4};
    the right side averages, over the 64 representatives a of Z^6/2Z^6,
    the products theta_{n_i+a} with (n_i) the half-sum transform of
    (m_i), weighted by e(m1'.a'').  Raises if the (n_i) are not
    integral.
    """
    ms = (m1, m2, m3, m4)
    ns = [_half_combination(ms, s) for s in _ADDITION_SIGNS]
    u = np.zeros(3, dtype=complex) if u is None else np.asarray(u, dtype=complex)
    v = np.zeros(3, dtype=complex) if v is None else np.asarray(v, dtype=complex)

    lhs = (
        theta(m1, tau, u + v, pol)
        * theta(m2, tau, u - v, pol)
        * theta_const(m3, tau, pol)
        * theta_const(m4, tau, pol)
    )
    total = 0.0 + 0.0j
    peak = 0.0
    factor_peak = 0.0
    for a_form in even_forms() + odd_forms():
        a = a_form.characteristic
        sign = -1 if sum(m1.mp[i] * a.mpp[i] for i in range(3)) % 2 else 1
        factors = (
            theta(char_sum(ns[0], a), tau, u, pol),
            theta(char_sum(ns[1], a), tau, u, pol),
            theta(char_sum(ns[2], a), tau, v, pol),
            theta(char_sum(ns[3], a), tau, v, pol),
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


def quasi_periodicity_residual(
    q: Characteristic,
    k,
    h,
    tau: PeriodMatrix,
    z,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Residual of the half-period transformation law.

    Shifting z by h/2 + tau.k/2 multiplies theta[q] by
    e(-k.(m''+h)/2 - k.z - k.tau.k/4) and replaces the characteristic
    by the integer sum (m'+k, m''+h); the reduction sign of that sum is
    part of the law, which is why the right side goes through
    :func:`theta` rather than a plain reduced constant.
    """
    k = np.array([int(x) for x in k])
    h = np.array([int(x) for x in h])
    z = np.zeros(3, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    lhs = theta(q, tau, z + h / 2 + tau.tau @ k / 2, pol)
    mpp = np.array(q.mpp)
    exponent = -0.5 * k @ (mpp + h) - k @ z - 0.25 * k @ tau.tau @ k
    rhs = ephase(exponent) * theta(char_sum(q, Characteristic(tuple(k), tuple(h))), tau, z, pol)
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return 0.0
    return float(abs(lhs - rhs) / scale)


def _tables(tau: PeriodMatrix, pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The 36 even constants and 28 odd gradients at z = 0, aligned with _EVEN and _ODD.

    One lattice pass over the 8 m' shifts, kept on ``tau`` per policy as
    read-only arrays; tau and the policy are immutable, so it never goes stale.
    """
    kept = tau._tables.get(pol)
    if kept is None:
        values, grads = _series(_EVEN + _ODD, tau, None, pol)
        kept = values[: len(_EVEN)], grads[len(_EVEN) :]
        for arr in kept:
            arr.setflags(write=False)
        tau._tables[pol] = kept
    return kept


def even_constant_table(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """All 36 even theta constants, keyed by reduced Characteristic: a fresh dict over :func:`_tables`."""
    return dict(zip(_EVEN, _tables(tau, pol)[0]))


def odd_gradient_table(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """All 28 odd theta gradients at z = 0 by reduced Characteristic: read-only rows of :func:`_tables`."""
    return dict(zip(_ODD, _tables(tau, pol)[1]))


def vanishing_even_characteristics(
    tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY
) -> list[Characteristic]:
    """Reduced even characteristics whose constant is numerically zero.

    "Zero" is scale-free: |theta| < VANISHING_REL_TOL * max over the
    even constants.  A non-empty answer means tau sits on (or hugs) the
    hyperelliptic/decomposable locus where the reconstruction formulas
    divide by zero.
    """
    mags = np.abs(_tables(tau, pol)[0])
    tol = VANISHING_REL_TOL * mags.max()
    return sorted((m for m, v in zip(_EVEN, mags) if v < tol), key=lambda m: m.mp + m.mpp)


def random_tau(rng: np.random.Generator) -> np.ndarray:
    """One draw of the random period matrix recipe A + i(MM^T + I/2).

    A is symmetric with entries uniform in [-1/2, 1/2] (upper triangle
    drawn, then mirrored); M is 3x3 standard normal.  Draw order is
    fixed so a seeded generator reproduces the matrix bit for bit.
    """
    u = rng.uniform(-0.5, 0.5, (3, 3))
    a = np.triu(u) + np.triu(u, 1).T
    m = rng.standard_normal((3, 3))
    return a + 1j * (m @ m.T + np.eye(3) / 2)


def complex_to_json(z):
    """The JSON form of complex numbers: {"re", "im"} for a number, nested lists of them for an array.

    Every complex number the package writes goes through here.
    """
    if np.ndim(z):
        return [complex_to_json(x) for x in z]
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def tau_to_json(tau) -> dict:
    """Serialize a period matrix as {"tau": complex_to_json of its 3x3 matrix}."""
    return {"tau": complex_to_json(tau.tau if isinstance(tau, PeriodMatrix) else tau)}


def tau_from_json(obj) -> np.ndarray:
    """Parse the {"tau": ...} wire format into a raw complex matrix."""
    try:
        rows = obj["tau"]
        arr = np.array([[complex(c["re"], c["im"]) for c in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidTauError(f"malformed tau JSON: {exc}") from exc
    if arr.shape != (3, 3):
        raise InvalidTauError(f"expected a 3x3 matrix, got shape {arr.shape}")
    return arr
