"""Numerical Riemann theta machinery for genus 3.

Evaluates the lattice series

    theta_m(tau, z) = sum_{n in Z^3} e[ (n+m'/2).tau.(n+m'/2) + 2(n+m'/2).(z+m''/2) ]

with the half-integral phase convention e(x) := exp(pi*i*x).  That
convention is the single most bug-prone piece of the whole pipeline, so
it lives in exactly one helper (:func:`ephase`) and every phase in the
package goes through it or through ``numpy.exp(1j*pi*...)`` on a value
assembled right next to a comment saying so.

Every series goes through one private kernel (:func:`_series`): one
lattice pass at one z returns the values (64,) and z-gradients (64, 3) of
all 64 reduced characteristics, indexed by packed index
(:func:`thetaquartic.charalgebra.pack`).  Every theta quantity is read
from such a table by one helper (:func:`_lookup`), which reduces an
integer characteristic m = r + 2n and applies the reduction sign.  At
z = 0 the table is the one kept on the PeriodMatrix per policy, with the
special-locus verdict beside it (:func:`theta_tables`), so the
constants, the gradients, the Jacobian determinants and every pipeline
stage read the same pass; a value at any other z costs one fresh pass.

With Y = Im(tau), p = n + m'/2 and a = Y^-1 Im(z), a term has modulus
exp(pi a.Y.a) exp(-pi (n+c).Y.(n+c)) with center c = m'/2 + a, the
Gaussian peak.  Each m' shift sums over its ellipsoid

    (n + c).Y.(n + c) <= R^2,

enumerated level by level from the Cholesky factor of Y (Fincke-Pohst);
one vectorized pass enumerates the ellipsoids of the 8 shifts, its N
points grouped by shift.  The points and the factor e(p.tau.p + 2p.z)
depend on m' only, and e(p.m'') = i^(2p.m'') is a power of i, so one
N x 8 table holds the terms of every m'' at every point.  Segment sums
of that table over the groups (``np.add.reduceat``) give the values of
all 8 m'' of every shift, and segment sums of it weighted by each
coordinate of p give the gradients, times 2*pi*i.

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
from typing import NamedTuple

import numpy as np

from .charalgebra import (
    Characteristic,
    char_sum,
    even_forms,
    odd_forms,
    pack,
    reduce_characteristic,
)
from .errors import InvalidTauError, TruncationError

#: Relative tolerance below which an even theta constant counts as vanishing.
#: Shared by the special-locus scan and the pipeline admission gate.
VANISHING_REL_TOL = 1e-8

DEFAULT_TAIL = 1e-15

#: Cap on the lattice points of one m' shift.  A pass over all eight
#: shifts then holds at most about a million points (about 250 MB at its
#: peak, most of it one N x 8 complex term table).
MAX_POINTS = 1 << 17

#: Cap on the packing radius the tail bound uses.  The bound's radius
#: R(rho) is flat near its minimum at about this value, so a shortest
#: lattice vector longer than it buys nothing.
RHO_CAP = 0.5

#: Smallest T for which the tail bound holds: from |u| = sqrt(T) on,
#: |u| exp(-|u|^2) is subharmonic in 3-D (exp(-|u|^2) from sqrt(3/2) on).
_T_MIN = (10 + math.sqrt(68)) / 8

_UNITS = np.array([1, 1j, -1, -1j])

#: _BITS[x] holds the bits of x: the characteristic of packed index x + 8 y is [_BITS[x]; _BITS[y]]
_BITS = np.array([[(x >> i) & 1 for i in range(3)] for x in range(8)], dtype=np.int8)

_EVEN = tuple(q.characteristic for q in even_forms())
_ODD = tuple(q.characteristic for q in odd_forms())
_EVEN_IDX = np.array([pack(m) for m in _EVEN])
_ODD_IDX = np.array([pack(m) for m in _ODD])

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
        try:
            tau = np.asarray(tau, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidTauError(f"entries are not complex numbers: {exc}") from exc
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
        self._tables: dict = {}  # policy -> ThetaTables, see theta_tables

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


def _series(tau: PeriodMatrix, z, pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Values (64,) and z-gradients (64, 3) of theta at every reduced characteristic, by packed index.

    One lattice pass over the ellipsoids of the 8 m' shifts (see the
    module docstring); ``z`` None means z = 0.
    """
    imag = tau.tau.imag
    chol = np.linalg.cholesky(imag).T  # imag = chol^T chol
    zz = np.zeros(3, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    a = np.linalg.solve(imag, zz.imag)
    r2 = _radius2(tau, chol, a, pol)
    half_mp = _BITS / 2  # row x: m' = _BITS[x]
    p, owner = _ellipsoid(chol, half_mp + a, r2)
    p += half_mp[owner]  # p = n + m'/2
    w = np.exp(1j * np.pi * (((p @ tau.tau) * p).sum(axis=1) + 2 * p @ zz))  # e(x) convention
    # e(p.m'') = i^(2p.m''), 2p integral: the N x 8 table of exponents mod 4, one column per m''
    powers = (p @ (2 * _BITS.T)).astype(np.intp) & 3
    counts = np.bincount(owner, minlength=8)
    full = counts > 0  # a shift whose ellipsoid holds no point sums to 0
    starts = (np.cumsum(counts) - counts)[full]

    def sums(weight):  # per-shift sums of the term table weight[n] * i^powers[n, y]
        terms = _UNITS[powers]
        terms *= weight[:, None]
        out = np.zeros((8, 8), dtype=complex)
        out[full] = np.add.reduceat(terms, starts, axis=0)
        return out

    values = sums(w)  # [x, y] belongs to [_BITS[x]; _BITS[y]], packed index x + 8 y
    grads = np.stack([sums(p[:, l] * w) for l in range(3)], axis=-1)
    return values.T.ravel(), 2j * np.pi * grads.transpose(1, 0, 2).reshape(64, 3)


def _lookup(table: np.ndarray, m: Characteristic):
    """theta_m's entry of a table by packed index, for any integer m: reduce m, index, apply the sign."""
    r, sign = reduce_characteristic(m)
    return sign * table[pack(r)]


def theta(m: Characteristic, tau: PeriodMatrix, z=None, pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta_m(tau, z) for an arbitrary integer characteristic m.

    Reduces m first and premultiplies by the reduction sign, so callers
    may pass non-reduced sums of characteristics directly.  With z None
    it reads the kept table at z = 0; any other z costs one lattice pass.
    """
    return _lookup(theta_tables(tau, pol).values if z is None else _series(tau, z, pol)[0], m)


def theta_const(m: Characteristic, tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The theta constant theta_m(tau) := theta_m(tau, 0)."""
    return theta(m, tau, None, pol)


def grad_theta0(m: Characteristic, tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """The z-gradient of theta_m at z = 0, by the termwise differentiated series, from the kept table."""
    return _lookup(theta_tables(tau, pol).grads, m)


def jacobian_det(
    q1: Characteristic,
    q2: Characteristic,
    q3: Characteristic,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """D[q1,q2,q3]: determinant of the three stacked theta gradients at 0, from the kept table."""
    for q in (q1, q2, q3):
        if not q.parity():
            raise ValueError(f"jacobian_det needs odd characteristics, got {q.bracket()}")
    grads = theta_tables(tau, pol).grads
    return complex(np.linalg.det([_lookup(grads, q) for q in (q1, q2, q3)]))


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
    zero = np.zeros(3, dtype=complex)
    uu, vv = (zero if x is None else np.asarray(x, dtype=complex) for x in (u, v))
    consts = theta_tables(tau, pol).values
    lhs = (
        _lookup(_series(tau, uu + vv, pol)[0], m1)
        * _lookup(_series(tau, uu - vv, pol)[0], m2)
        * _lookup(consts, m3)
        * _lookup(consts, m4)
    )
    at_u, at_v = (consts if x is None else _series(tau, x, pol)[0] for x in (u, v))
    total = 0.0 + 0.0j
    peak = 0.0
    factor_peak = 0.0
    for a_form in even_forms() + odd_forms():
        a = a_form.characteristic
        sign = -1 if sum(m1.mp[i] * a.mpp[i] for i in range(3)) % 2 else 1
        factors = (
            _lookup(at_u, char_sum(ns[0], a)),
            _lookup(at_u, char_sum(ns[1], a)),
            _lookup(at_v, char_sum(ns[2], a)),
            _lookup(at_v, char_sum(ns[3], a)),
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


class ThetaTables(NamedTuple):
    """The theta data at z = 0 that the pipeline reads, from one lattice pass (:func:`theta_tables`).

    ``values`` (64,) and ``grads`` (64, 3) are read-only arrays indexed by
    packed index (:func:`thetaquartic.charalgebra.pack`): the 36 even
    constants and 28 odd gradients, with the odd constants and even
    gradients (zero up to the tail) in the other slots.  ``vanishing``
    is the special-locus verdict (:func:`vanishing_even_characteristics`).
    """

    values: np.ndarray
    grads: np.ndarray
    vanishing: tuple[Characteristic, ...]


def theta_tables(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> ThetaTables:
    """The 64 theta constants and gradients at z = 0 and the special-locus scan, once per (tau, policy).

    One lattice pass over the 8 m' shifts, kept on ``tau`` per policy;
    tau and the policy are immutable, so it never goes stale.  A pass
    that raises keeps nothing.
    """
    kept = tau._tables.get(pol)
    if kept is None:
        values, grads = _series(tau, None, pol)
        for arr in (values, grads):
            arr.setflags(write=False)
        mags = np.abs(values[_EVEN_IDX])
        tol = VANISHING_REL_TOL * mags.max()
        vanishing = tuple(m for m, v in zip(_EVEN, mags) if v < tol)  # _EVEN is in (m', m'') order
        kept = tau._tables[pol] = ThetaTables(values, grads, vanishing)
    return kept


def even_constant_table(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """All 36 even theta constants by reduced Characteristic: a fresh dict over :func:`theta_tables`."""
    return dict(zip(_EVEN, theta_tables(tau, pol).values[_EVEN_IDX]))


def odd_gradient_table(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """All 28 odd theta gradients at z = 0 by reduced Characteristic: read-only rows of :func:`theta_tables`."""
    rows = theta_tables(tau, pol).grads[_ODD_IDX]
    rows.setflags(write=False)
    return dict(zip(_ODD, rows))


def vanishing_even_characteristics(
    tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY
) -> list[Characteristic]:
    """Reduced even characteristics whose constant is numerically zero.

    "Zero" is scale-free: |theta| < VANISHING_REL_TOL * max over the
    even constants.  A non-empty answer means tau sits on (or hugs) the
    hyperelliptic/decomposable locus where the reconstruction formulas
    divide by zero.  The scan runs once per (tau, policy), with the
    lattice pass, and is kept in :func:`theta_tables`.
    """
    return list(theta_tables(tau, pol).vanishing)


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


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidTauError(f"malformed tau JSON: entry {x!r} is not a number")
    try:
        return float(x)
    except OverflowError as exc:
        raise InvalidTauError("malformed tau JSON: an integer entry is too large for a float") from exc


def tau_from_json(obj) -> np.ndarray:
    """Parse the {"tau": ...} wire format into a raw complex matrix.

    Each "re" and "im" must be a JSON number (not a boolean) that a float can hold.
    """
    try:
        rows = obj["tau"]
        arr = np.array([[complex(_real(c["re"]), _real(c["im"])) for c in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidTauError(f"malformed tau JSON: {exc}") from exc
    if arr.shape != (3, 3):
        raise InvalidTauError(f"expected a 3x3 matrix, got shape {arr.shape}")
    return arr
