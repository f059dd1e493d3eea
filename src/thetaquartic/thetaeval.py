"""Numerical Riemann theta machinery for genus 3.

Evaluates the theta constants and their z-gradients at z = 0 of the lattice series

    theta_m(tau, z) = sum_{n in Z^3} e[ (n+m'/2).tau.(n+m'/2) + 2(n+m'/2).(z+m''/2) ]

with the half-integral phase convention e(x) := exp(pi*i*x).  That
convention is the single most bug-prone piece of the whole pipeline.  A
phase of a real argument is ``numpy.exp(1j*pi*...)`` on a value
assembled right next to a comment saying so, as in the lattice pass.
Integer phases are exact powers of i instead: ``_CLASS_UNITS``, the
units of a reduced Re tau (:func:`_series`), the phases of
:func:`~thetaquartic.weber.weber_symbolic`, and the signs +-1 of
:func:`~thetaquartic.charalgebra.reduce_characteristic`.

Every series goes through one private kernel (:func:`_series`): one
lattice pass at z = 0 returns the values (64,) and z-gradients (64, 3) of
all 64 reduced characteristics, in rows by packed index
(:func:`thetaquartic.charalgebra.pack`, the layout's one owner).  The
table is kept on the PeriodMatrix per truncation policy, with the
special-locus verdict beside it (:func:`theta_tables`).  Every theta
quantity is read from it by one helper (:func:`_lookup`), which reduces
an integer characteristic m = r + 2n and applies the reduction sign.
The policy is a setting of the tables only: :func:`theta_tables` and
:func:`even_constant_table` take one, and every other entry point reads
the default-tail table, so the constants, the gradients and every
pipeline stage read the same pass.

With Y = Im(tau) and p = n + m'/2, a term has modulus exp(-pi p.Y.p), and
each m' shift sums over its ellipsoid p.Y.p <= R^2.  The 8 shifted
ellipsoids are one ellipsoid in k = 2p, an integer vector with k mod 2 = m':

    |(chol/2).k|^2 <= R^2,   Y = chol^T chol,

enumerated level by level from the Cholesky factor (Fincke-Pohst) in one
vectorized pass.  The factor w = e(p.tau.p) is common to all 64
characteristics at a point, and e(p.m'') = i^(k.m'') depends only on
k mod 4.  So the pass sums w and p_l w over the 64 classes of k mod 4
(``np.bincount``), and one constant 64 x 64 table of units (i^(k.m'')
where k mod 2 = m', else 0) maps the class sums to the values and, times
2*pi*i, the gradients of every characteristic.

The pass uses the parity of theta.  The ellipsoid is centred at 0, so
its points come in pairs k, -k around the one point k = 0, and the
enumeration lists them as row h + j = -(row h - j) of its N rows,
h = N // 2.  The weight w is even in p and the gradient weight p w odd,
so the pass exponentiates only rows 0..h, about (N + 1) / 2 of the N
points, and mirrors w into the rest.  One product p w over all N rows
then gives the gradient weights: row h + j has -p and the same w, so its
products are exactly the negated ones.  The class sums run over the
full list in its order, so they hold the same bits as a pass over every
point.  The sums over the three coordinates (the quadratic form and the
class index of k mod 4) are column sums, in the order ``np.add.reduce``
takes them: a reduction along the short axis of an (N, 3) array costs
more than its arithmetic.

R follows the tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies, "Computing Riemann theta functions", Math. Comp. 73 (2004).  In
coordinates u with |u|^2 = pi p.Y.p, take rho at most the shortest
nonzero lattice vector (capped at ``RHO_CAP``): balls of radius rho/2
around the points are disjoint, and a subharmonic summand is at most its
ball average, so for T = (sqrt(pi) R - rho/2)^2 >= _T_MIN

    sum over |u| >= sqrt(pi) R of exp(-|u|^2)      <= (3/2)(2/rho)^3 Gamma(3/2, T)
    sum over |u| >= sqrt(pi) R of |u| exp(-|u|^2)  <= (3/2)(2/rho)^3 Gamma(2, T).

The second sum covers the |p| factor of the gradient terms, through
|p| <= |u| / sqrt(pi lam_min).  R is set so that the neglected value
mass plus gradient mass is below ``target_tail``: values and gradients
share one rule.

The enumeration counts the points of each level before it allocates
them, and a pass that would hold more than ``MAX_POINTS`` points raises
:class:`TruncationError`.  Where rho needs a search of its own, the
pass is first counted at a lower bound on R for every rho <= ``RHO_CAP``
(:func:`_radius2`), so a near-singular Im tau is refused before that
search.  The count is usually about 8 (4/3) pi R^3 / sqrt(det Y), which
is invariant under tau -> U tau U^T for U in GL_3(Z).  R grows only logarithmically
with 1/lam_min (through the gradient weight and the packing radius).
An ellipsoid thinner than the lattice spacing in some direction holds
far more points than its volume, which is why the cap is on the exact
count.  Of the modular transformations, only Re tau mod 2 is applied
to tau (:func:`_series`), not Re tau mod 1 or a GL_3(Z) reduction.

One curve's arrays are small, so numpy's Python wrappers cost more than their
arithmetic.  Here and in :mod:`~thetaquartic.weber` and :mod:`~thetaquartic.verify`,
reductions are ufunc methods (``np.add.reduce``, not ``.sum()``), stacks are
``np.concatenate`` of ``[..., None]`` views and constant arrays are module-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

# char_sum is not called here: perfbench/tracing.py wraps this module's binding of it
from .charalgebra import (
    PACKED_FORMS,
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

#: Cap on the lattice points k = 2p of one pass, all eight m' shifts
#: together.  A pass near the cap peaks at about 180 MB (tracemalloc).
MAX_POINTS = 1 << 20

#: Cap on the packing radius the tail bound uses.  The bound's radius
#: R(rho) is flat near its minimum at about this value, so a shortest
#: lattice vector longer than it buys nothing.
RHO_CAP = 0.5

#: Smallest T for which the tail bound holds: from |u| = sqrt(T) on,
#: |u| exp(-|u|^2) is subharmonic in 3-D (exp(-|u|^2) from sqrt(3/2) on).
_T_MIN = (10 + math.sqrt(68)) / 8

_UNITS = np.array([1, 1j, -1, -1j])

#: m' and m'' of the form in each table row: row x holds PACKED_FORMS[x], the form charalgebra.pack sends to x
_MP, _MPP = np.array([[q.mp, q.mpp] for q in PACKED_FORMS], dtype=np.int8).transpose(1, 0, 2)

#: Class c of k mod 4 holds k = _CLASSES[c] mod 4, c = k_1 + 4 k_2 + 16 k_3; weight row j sums into 64 j + c
_CLASSES = (np.arange(64)[:, None] // np.array([1, 4, 16])) & 3
_ROW_OFFSETS = 64 * np.arange(4)[:, None]
#: [x, c]: the factor of the class-c sums in theta at row x's form, i^(k.m'') where k mod 2 is m', else 0
_CLASS_UNITS = _UNITS[(_MPP @ _CLASSES.T) & 3] * ((_CLASSES & 1) == _MP[:, None]).all(axis=-1)

_EVEN = tuple(even_forms())
_ODD = tuple(odd_forms())
_EVEN_IDX = np.array([pack(m) for m in _EVEN])
_ODD_IDX = np.array([pack(m) for m in _ODD])

ASYMMETRY_TOL = 1e-9

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
    ``ASYMMETRY_TOL``, or an imaginary part with an eigenvalue <= 0 or
    no Cholesky factor ``chol`` (kept for the lattice passes), raises
    :class:`InvalidTauError` naming the violated invariant.
    """

    def __init__(self, tau):
        try:
            tau = np.asarray(tau, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidTauError(f"entries are not complex numbers: {exc}") from exc
        if tau.shape != (3, 3):
            raise InvalidTauError(f"expected a 3x3 matrix, got shape {tau.shape}")
        if not np.logical_and.reduce(np.isfinite(tau), axis=None):
            raise InvalidTauError("matrix contains non-finite entries")
        # halves first, so that entries near the float limit neither overflow nor lose bits
        half = tau / 2
        asym = 2 * float(np.maximum.reduce(np.abs(half - half.T), axis=None))
        if asym > ASYMMETRY_TOL:
            raise InvalidTauError(f"matrix is asymmetric: max |tau - tau^T| = {asym:.3e}")
        tau = half + half.T
        lam_min = float(np.minimum.reduce(np.linalg.eigvalsh(tau.imag)))
        if lam_min <= 0:
            raise InvalidTauError(f"imaginary part is not positive definite: min eigenvalue = {lam_min:.3e}")
        try:
            chol = np.linalg.cholesky(tau.imag).T  # Im tau = chol^T chol, the factor every pass reads
        except np.linalg.LinAlgError:
            gate = f"no Cholesky factor, min eigenvalue = {lam_min:.3e}"
            raise InvalidTauError(f"imaginary part is not positive definite: {gate}") from None
        tau.setflags(write=False)
        chol.setflags(write=False)
        self.tau = tau
        self.chol = chol
        self.lam_min = lam_min
        self._tables: dict = {}  # policy -> ThetaTables, see theta_tables


def _check_cap(count) -> None:
    if count > MAX_POINTS:
        tail = "Im(tau) is too close to singular for the requested tail"
        raise TruncationError(f"{count:.3g} lattice points needed, over the cap of {MAX_POINTS}; {tail}")


def _levels(chol: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of |chol.k|^2 <= r2 down to their last level, counted but not laid out.

    Fincke-Pohst on the upper Cholesky factor: k_3 ranges over one
    interval, in scalars, then k_2 over the interval the remaining budget
    leaves for each k_3, in one vectorized expansion, and k_1 likewise.
    Returns the rows (k_2, k_3) in ascending (k_3, k_2) order and the
    first k_1 and the count of each row's k_1 interval; the last level
    computes no remaining budget, as no level follows it.  Raises
    :class:`TruncationError` before a level would exceed ``MAX_POINTS``.
    Each level's count grows with r2, so a refusal at r2 is one at any
    larger r2 too.
    """
    half = math.sqrt(max(r2, 0.0)) / chol[2, 2]
    lo, hi = math.ceil(-half), math.floor(half)
    _check_cap(hi - lo + 1)
    ki = np.arange(lo, hi + 1, dtype=float)
    k, rem = ki[:, None], r2 - (chol[2, 2] * ki) ** 2
    for i in (1, 0):
        d = chol[i, i]
        mid = -(k @ (chol[i, i + 1 :] / d))  # window center for k_i
        half = np.sqrt(np.maximum(rem, 0)) / d
        lo = np.ceil(mid - half)
        counts = np.floor(mid + half) - lo + 1
        total = np.add.reduce(counts)
        _check_cap(total)
        counts = counts.astype(int)
        if not i:
            return k, lo, counts
        ki = (lo - counts.cumsum() + counts).repeat(counts) + np.arange(total)
        k = np.concatenate((ki[:, None], k.repeat(counts, axis=0)), axis=1)
        rem = rem.repeat(counts) - (d * (ki - mid.repeat(counts))) ** 2


def _ellipsoid(chol: np.ndarray, r2: float) -> np.ndarray:
    """The integer points k with |chol.k|^2 <= r2, as float rows.

    The levels of :func:`_levels`, with the last one written into one
    (N, 3) array column by column.  The rows come in ascending
    (k_3, k_2, k_1) order, the order the class sums of :func:`_series`
    are taken in.
    """
    k, lo, counts = _levels(chol, r2)
    first = (lo - counts.cumsum() + counts).repeat(counts)
    out = np.empty((len(first), 3))
    np.add(first, np.arange(len(first)), out=out[:, 0])
    out[:, 1] = k[:, 0].repeat(counts)
    out[:, 2] = k[:, 1].repeat(counts)
    return out


def _packing_radius(tau: PeriodMatrix) -> float:
    """The shortest nonzero lattice vector in u-units, or RHO_CAP if that is shorter.

    Balls of half this radius around the lattice points are disjoint,
    which is all the tail bound needs; below the cap the bound barely
    depends on it.
    """
    n = _ellipsoid(tau.chol, RHO_CAP**2 / math.pi)
    norms = math.pi * np.add.reduce((n @ tau.chol.T) ** 2, axis=1)
    return math.sqrt(np.minimum.reduce(norms[norms > 0], initial=RHO_CAP**2))


def _radius2(tau: PeriodMatrix, pol: TruncationPolicy) -> float:
    """R^2 of the summation ellipsoid: the smallest the tail bound allows for pol.target_tail.

    The packing radius rho is RHO_CAP when pi lam_min says so, and is
    enumerated otherwise (:func:`_packing_radius`), which for a
    near-singular Im tau takes up to a million points.  So before that
    the pass is counted at a lower bound on R^2 for every rho <= RHO_CAP
    (:func:`_levels`), and a count over the cap refuses tau there.
    """
    w_grad = 2 * math.sqrt(math.pi / tau.lam_min)  # the value terms weigh 1

    def bound(t, rho):  # neglected value plus gradient mass at T = t, for packing radius rho
        s = math.sqrt(t)
        gamma_3_2 = s * math.exp(-t) + math.sqrt(math.pi) / 2 * math.erfc(s)
        gamma_2 = (1 + t) * math.exp(-t)
        return 1.5 * (2 / rho) ** 3 * (gamma_3_2 + w_grad * gamma_2)

    def search(rho):  # the T the bound accepts at rho, and the largest T it rejected (_T_MIN if none)
        t = low = _T_MIN
        while (b := bound(t, rho)) > pol.target_tail:
            # ln(bound) falls a little slower than t grows, so these steps
            # approach the root from below and stop at most 0.01 past it
            low, t = t, t + max(math.log(b / pol.target_tail), 0.01)
        return t, low

    if math.pi * tau.lam_min >= RHO_CAP**2:
        rho = RHO_CAP  # |u|^2 >= pi * lam_min * |n|^2
    else:
        # the bound falls with T and grows as rho shrinks, so at any rho <= RHO_CAP it rejects
        # every T it rejected at RHO_CAP: R^2 = (sqrt(T) + rho/2)^2 / pi > low / pi
        _levels(tau.chol / 2, search(RHO_CAP)[1] / math.pi)
        rho = _packing_radius(tau)
    r = math.sqrt(search(rho)[0]) + rho / 2
    return r * r / math.pi


def _series(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Values (64,) and z-gradients (64, 3) of theta at z = 0 at every reduced characteristic, by packed index.

    One lattice pass over k = 2p that exponentiates only rows 0..h of the N
    points, h = N // 2, and mirrors the rest (see the module docstring).
    The pass sums at tau - 2B, B = rint(Re tau / 2), so a large Re tau
    costs no digits in the phases.  The units i^(m'.B.m') follow only if B
    is non-zero, as in no benchmark pass (|Re tau| <= 1/2): a step on
    every pass cost 1-2%.
    """
    # theta[m](tau + 2B) = i^(m'.B.m') theta[m](tau) for integer symmetric B
    b = np.rint(tau.tau.real / 2)
    k = _ellipsoid(tau.chol / 2, _radius2(tau, pol))  # (k/2).Y.(k/2) <= R^2
    km = k.astype(np.intp) & 3
    cls = km[:, 0] + 4 * km[:, 1] + 16 * km[:, 2]  # the class of k mod 4
    p = np.divide(k, 2, out=k)  # p = k/2, in place
    # row j: the weights of the value (j = 0) or of d/dz_j
    terms = np.empty((4, len(p)), dtype=complex)
    # the parity of theta: row h + j is -(row h - j), so w is exponentiated on rows 0..h only
    h = len(p) // 2
    if len(p) % 2 == 0 or np.logical_or.reduce(p[h]):
        raise RuntimeError(f"the lattice pass at z = 0 is not symmetric: {len(p)} points, middle row {p[h]}")
    half = p[: h + 1]
    q = (half @ (tau.tau - 2 * b)) * half
    w = np.exp(1j * np.pi * (q[:, 0] + q[:, 1] + q[:, 2]), out=terms[0, : h + 1])  # e(x) convention
    terms[0, h + 1 :] = w[-2::-1]
    out = _class_sums(cls, p, terms)
    if np.logical_or.reduce(b, axis=None):
        b4 = np.fmod(b, 4).astype(np.int8)  # fmod takes B mod 4 exactly, 0 from 2^54 on
        out *= _UNITS[np.add.reduce((_MP @ b4) * _MP, axis=1) & 3]
    return out[0], out[1:].T.copy()


def _class_sums(cls: np.ndarray, p: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The values (row 0) and gradients (rows 1-3) at the 64 rows from the classes (N,) and points (N, 3) of a pass.

    ``terms`` (4, N) holds the value weights w in row 0; rows 1-3 are filled here with the gradient weights p w,
    one product over every point (the mirrored rows have -p and the same w, so they are exactly negated).
    """
    np.multiply(p.T, terms[0], out=terms[1:])
    idx = (cls + _ROW_OFFSETS).ravel()
    sums = np.bincount(idx, terms.real.ravel(), 256) + 1j * np.bincount(idx, terms.imag.ravel(), 256)
    out = sums.reshape(4, 64) @ _CLASS_UNITS.T
    out[1:] *= 2j * np.pi
    return out


def _lookup(table: np.ndarray, m: Characteristic):
    """theta_m's entry of a table by packed index, for any integer m: reduce m, index, apply the sign."""
    r, sign = reduce_characteristic(m)
    return sign * table[pack(r)]


def theta(m: Characteristic, tau: PeriodMatrix) -> complex:
    """The theta constant theta_m(tau, 0) for an arbitrary integer characteristic m, from the kept table.

    Reduces m first and premultiplies by the reduction sign, so callers
    may pass non-reduced sums of characteristics directly.
    """
    return _lookup(theta_tables(tau).values, m)


def theta_const(m: Characteristic, tau: PeriodMatrix) -> complex:
    """The theta constant theta_m(tau) := theta_m(tau, 0)."""
    return theta(m, tau)


def grad_theta0(m: Characteristic, tau: PeriodMatrix) -> np.ndarray:
    """The z-gradient of theta_m at z = 0, by the termwise differentiated series, from the kept table."""
    return _lookup(theta_tables(tau).grads, m)


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

    One lattice pass (:func:`_series`), kept on ``tau`` per policy;
    tau and the policy are immutable, so it never goes stale.  A pass
    that raises keeps nothing.
    """
    kept = tau._tables.get(pol)
    if kept is None:
        values, grads = _series(tau, pol)
        for arr in (values, grads):
            arr.setflags(write=False)
        mags = np.abs(values[_EVEN_IDX])  # _EVEN is in (m', m'') order
        vanishing = tuple(compress(_EVEN, (mags < VANISHING_REL_TOL * np.maximum.reduce(mags)).tolist()))
        kept = tau._tables[pol] = ThetaTables(values, grads, vanishing)
    return kept


def even_constant_table(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """All 36 even theta constants by reduced Characteristic: a fresh dict over :func:`theta_tables`."""
    return dict(zip(_EVEN, theta_tables(tau, pol).values[_EVEN_IDX]))


def odd_gradient_table(tau: PeriodMatrix) -> dict:
    """All 28 odd theta gradients at z = 0 by reduced Characteristic: read-only rows of :func:`theta_tables`."""
    rows = theta_tables(tau).grads[_ODD_IDX]
    rows.setflags(write=False)
    return dict(zip(_ODD, rows))


def vanishing_even_characteristics(tau: PeriodMatrix) -> list[Characteristic]:
    """Reduced even characteristics whose constant is numerically zero.

    "Zero" is scale-free: |theta| < VANISHING_REL_TOL * max over the
    even constants.  A non-empty answer means tau sits on (or hugs) the
    hyperelliptic/decomposable locus where the reconstruction formulas
    divide by zero.  The scan runs once per tau, with the default-tail
    lattice pass, and is kept in :func:`theta_tables`.
    """
    return list(theta_tables(tau).vanishing)


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

    The wire form of every complex number the package writes.  Tau files
    (:func:`tau_to_json`) are written with it; the command line writes
    the text ``json.dumps`` makes of it directly, and tests build its
    reports number by number with it to check that text.  An array is
    converted in one pass over its real and imaginary parts, then nested
    back to its shape, innermost axis first, by grouping consecutive items.
    """
    if not np.ndim(z):
        z = complex(z)
        return {"re": z.real, "im": z.imag}
    z = np.asarray(z, dtype=complex)
    items = [{"re": x, "im": y} for x, y in zip(z.real.ravel().tolist(), z.imag.ravel().tolist())]
    for axis in range(z.ndim - 1, 0, -1):
        if n := z.shape[axis]:
            items = list(map(list, zip(*[iter(items)] * n)))  # consecutive runs of n
        else:
            items = [[] for _ in range(math.prod(z.shape[:axis]))]
    return items


def tau_to_json(tau) -> dict:
    """Serialize a 3x3 complex matrix as {"tau": complex_to_json(tau)}."""
    return {"tau": complex_to_json(tau)}


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"entry {x!r} is not a number")
    return float(x)  # OverflowError for an integer too large for a float


def tau_from_json(obj) -> np.ndarray:
    """Parse the {"tau": ...} wire format into a raw complex matrix.

    Each "re" and "im" must be a JSON number (not a boolean) that a float can hold.
    Anything else, ragged rows included, raises :class:`InvalidTauError`; the shape is :class:`PeriodMatrix`'s check.
    """
    try:
        rows = obj["tau"]
        arr = np.array([[complex(_real(c["re"]), _real(c["im"])) for c in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, IndexError, OverflowError, ValueError) as exc:  # ValueError: ragged rows
        raise InvalidTauError(f"malformed tau JSON: {exc}") from exc
    return arr
