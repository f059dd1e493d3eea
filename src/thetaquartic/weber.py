"""Bitangent reconstruction from theta constants, in the Aronhold frame.

Fixing an ordered Aronhold system q_1..q_7 puts seven bitangents of the
quartic into the normal form

    b_1: X1 = 0   b_2: X2 = 0   b_3: X3 = 0   b_4: X1+X2+X3 = 0
    b_{4+i}: a_i1 X1 + a_i2 X2 + a_i3 X3 = 0      (i = 1, 2, 3)

and Weber's formula expresses each a_ij as a ratio of four theta
constants times an explicit fourth-root-of-unity phase.  With that
normalization the scaling system for the remaining construction has the
distinguished solution k = (1, 1, 1), the three linear forms xi_23,
xi_13, xi_12 follow from one 12-equation linear system with three
right-hand sides, the curve itself is recovered from its three-radical
model as 15 coefficients in MONOMIALS order, and the map between
this frame and the theta-gradient frame is a single 3x3 matrix (see
:func:`frame_matrix`).  Writing c[q] for the coordinates of grad theta[q]
in the basis grad theta[q_1], grad theta[q_2], grad theta[q_3], the
bitangent of q has Weber-frame covector c[q] / c[q_4] (entrywise); by
Cramer's rule these are the Jacobian-determinant ratios, so the 28 lines
and the determinant-ratio rows come from one 3x3 solve.

After the lattice pass everything per system is an integer gather.  The
theta tables kept at the default tail are arrays by packed index
(:func:`thetaquartic.thetaeval.theta_tables`; no stage here takes a
truncation policy), and each ordered system
has a gather plan, built once from :func:`weber_symbolic` and the
bitangent labels: the packed indices (n1, n2, d1, d2) and the phase of
each a_ij, and the packed indices of its 28 odd forms.  So the nine
coefficients are one gather of four constants, and the 28 lines are the
gathered gradients times one 3x3 matrix.

Phase bookkeeping: all theta arguments here are non-reduced integer
characteristic sums such as (q_4 + q_r + q_j); the reduction signs they
pick up are part of the formula, and :func:`weber_symbolic` folds them
into each coefficient's phase, so the gather reads reduced constants.

Results stay arrays: a stack of line covectors is an (L, 3) complex
array, checked as :class:`ProjLine` checks one line
(:func:`line_covectors`).  Laying them out as a report is the command
line's job.  Covectors and quartic coefficients are scaled for output by
:func:`unit_pivot`.  numpy is called at its C entry points, for the
reason and in the way :mod:`~thetaquartic.thetaeval` states.

The seven small LAPACK calls per curve (the SVD and LU solve of the
lambda and k systems, the xi least-squares fit, and the SVD and inverse
of the frame) enter numpy's LAPACK gufuncs directly (``svd``,
``solve1``, ``lstsq`` with numpy's default rcond, ``inv``), the loops
``numpy.linalg`` runs on the same complex128 inputs, so the bits are
its bits; the names are those of numpy 2 and an older numpy fails at
import.  Where a loop fails it returns NaN instead of raising
``LinAlgError``, and every gate after one is written to refuse NaN, so
the run still ends in :class:`~thetaquartic.errors.SingularSystemError`
naming that gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from numpy.linalg._umath_linalg import inv as _inv, lstsq as _lstsq, solve1 as _solve1, svd as _svd

from .charalgebra import (
    AronholdSystem,
    Characteristic,
    arf,
    char_sum,
    derived_forms,
    is_aronhold,
    is_azygetic_triple,
    pack,
    reduce_characteristic,
)
from .errors import DegenerateCurveError, SingularSystemError, SpecialLocusError
# even_constant_table, odd_gradient_table, arf, is_aronhold and is_azygetic_triple are not
# called here: perfbench/tracing.py wraps this module's bindings of them
from .thetaeval import (
    PeriodMatrix,
    ThetaTables,
    even_constant_table,
    odd_gradient_table,
    theta_tables,
    vanishing_even_characteristics,
)

#: Exponent triples (a, b, c) of X1^a X2^b X3^c with a+b+c = 4, graded-lex order.
MONOMIALS = tuple(sorted(((a, b, 4 - a - b) for a in range(5) for b in range(5 - a)), reverse=True))

#: _QUARTIC_SUM[m, 27i + 9j + 3k + l] is 1 iff X_i X_j X_k X_l is monomial m
_QUARTIC_SUM = np.array(
    [[tuple(map(idx.count, range(3))) == e for idx in product(range(3), repeat=4)] for e in MONOMIALS],
    dtype=complex,
)

#: Guards for the small dense solves.  The condition limit only has to
#: catch genuine rank deficiency (cond = inf); admissible-but-marginal
#: period matrices legitimately produce badly conditioned systems.
COND_LIMIT = 1e14
SOLVE_RESIDUAL_GATE = 1e-10
FRAME_COND_LIMIT = 1e10
#: a denominator D[.., q_4, ..] below this times its three gradient norms vanishes
JACOBIAN_DET_REL_TOL = 1e-12
XI_RESIDUAL_GATE = 1e-8
#: numpy.linalg.lstsq's default rcond for the 12x3 xi fit: eps times the larger dimension
_XI_RCOND = np.finfo(float).eps * 12

#: bound of the cache keyed by an Aronhold system: the 288 of enumerate_aronhold and REFERENCE_SYSTEM, a 289th
SYSTEM_CACHE_SIZE = 288 + 1

#: the row (1, 1, 1), minus it the lambda and k right-hand side (norm sqrt(3)), and e_i as a (3, 3, 1) stack
_ONES, _EYE = np.ones((1, 3), dtype=complex), np.eye(3)[:, :, None]
_RHS, _RHS_NORM = -_ONES[0], np.sqrt(3.0)
for _const in (_ONES, _RHS, _EYE):
    _const.setflags(write=False)


def norm(x: np.ndarray, axis=None, keepdims: bool = False):
    """``np.linalg.norm(x, axis=axis, keepdims=keepdims)`` of a complex array, bit for bit, without its dispatch.

    numpy's own expressions: with ``axis`` None, the square root of the
    dot products of the real and imaginary parts in memory order; along
    an axis, the square root of the reduced sum of |x|^2.
    """
    if axis is None:
        x = x.ravel(order="K")
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis, keepdims=keepdims))


def _cond(s: np.ndarray):
    """The condition number from a finite matrix's descending singular values ``s``: s[0] / s[-1], inf where s[-1] is 0.

    With ``s = _svd(mat)``, which is ``np.linalg.svd(mat, compute_uv=False)``, it is ``np.linalg.cond(mat)``,
    bit for bit.
    """
    return s[0] / s[-1] if s[-1] else np.inf


def line_covectors(rows) -> np.ndarray:
    """``rows`` as a read-only (L, 3) complex array of line covectors.

    Raises ValueError unless every row has 3 finite entries, not all zero:
    the checks of :class:`ProjLine`, on a whole stack at once.
    """
    rows = np.array(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != 3 or not np.logical_and.reduce(np.isfinite(rows), axis=None):
        raise ValueError("a line covector has 3 finite entries")
    if not np.logical_and.reduce(np.logical_or.reduce(rows != 0, axis=1)):
        raise ValueError("zero covector does not define a line")
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class ProjLine:
    """A line in P^2 given by a covector, defined up to complex scale; ``c`` is a read-only (3,) array."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", line_covectors([self.c])[0])

    def residual_to(self, other) -> float:
        """Normalized cross-product residual against the covector ``other``; 0 iff projectively equal."""
        u, w = self.c, np.asarray(other, dtype=complex)
        return float(norm(np.cross(u, w)) / (norm(u) * norm(w)))


def unit_pivot(rows) -> np.ndarray:
    """Rows scaled so each one's largest-modulus entry (first such index) is exactly 1.

    The scale in which covectors and quartic coefficients are reported.
    """
    rows = np.asarray(rows, dtype=complex)
    flat = rows.reshape(-1, rows.shape[-1])
    return rows / flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)].reshape(rows.shape[:-1] + (1,))


@dataclass(frozen=True, eq=False)
class QuarticCurve:
    """A ternary quartic up to scale; ``coeffs`` is a read-only (15,) complex array in MONOMIALS order."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (15,) or not np.logical_and.reduce(np.isfinite(c)):
            raise ValueError("a ternary quartic has 15 finite coefficients")
        if not np.logical_or.reduce(c):
            raise DegenerateCurveError("zero polynomial is not a quartic curve")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class WeberEntry:
    """Symbolic content of one coefficient a_ij before series evaluation.

    ``phase`` is the fourth root of unity of the reduced-characteristic
    formula, in Weber's printed row-sign convention (the reduction-sign
    product ``rho`` is already folded in); ``chars`` holds the reduced
    characteristics (num1, num2, den1, den2) of the four constants.
    """

    phase: complex
    chars: tuple[Characteristic, Characteristic, Characteristic, Characteristic]
    rho: int


@dataclass(frozen=True, eq=False)
class AronholdFrame:
    """Everything Weber's normalization attaches to (system, tau), in read-only arrays.

    ``a`` is the 3x3 coefficient matrix, ``k`` and ``lam`` the scaling
    solutions, and ``xi`` the 3x3 array whose rows are the covectors of
    xi_23, xi_13 and xi_12 (:func:`xi_forms`).
    """

    system: AronholdSystem
    a: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class _GatherPlan:
    """The integer gather of one ordered Aronhold system (see the module docstring).

    ``chars[c, i - 1, j - 1]`` is the packed index of characteristic c of
    a_ij, in the order (n1, n2, d1, d2) of ``WeberEntry.chars``;
    ``phase`` is the 3x3 matrix of phases; ``labels`` are the 28 odd
    forms in line order and ``lines`` their packed indices.
    """

    chars: np.ndarray
    phase: np.ndarray
    labels: tuple[Characteristic, ...]
    lines: np.ndarray


# ---------------------------------------------------------------------------
# admission gate

def require_generic(tau: PeriodMatrix) -> ThetaTables:
    """Return the theta tables kept at the default tail, refusing on the special locus.

    Single source of truth for pipeline admission: exactly the verdict of
    :func:`thetaquartic.thetaeval.vanishing_even_characteristics`, kept
    with the tables.  The pipeline's stages here read the tables
    through this call.
    """
    vanishing = vanishing_even_characteristics(tau)
    if vanishing:
        raise SpecialLocusError(
            "even theta constants vanish (hyperelliptic or decomposable tau): "
            + ", ".join(m.bracket() for m in vanishing),
            vanishing=vanishing,
        )
    return theta_tables(tau)


# ---------------------------------------------------------------------------
# determinant ratios

def aronhold_coeffs_dets(system: AronholdSystem, tau: PeriodMatrix) -> np.ndarray:
    """The rows (a_i1 : a_i2 : a_i3) as Jacobian determinant ratios: the lines b_5..b_7 of :func:`all_bitangents`.

    Row i is (D[q_{4+i},q2,q3]/D[q4,q2,q3], D[q1,q_{4+i},q3]/D[q1,q4,q3],
    D[q1,q2,q_{4+i}]/D[q1,q2,q4]); by Cramer's rule that is
    grad theta[q_{4+i}] . T with T from :func:`frame_matrix`, which also
    gates the denominators, so it is the covector of b_{4+i}.  The
    overall scalar of each row is not meaningful, only its projective
    class.  The (3, 3) array is read-only.
    """
    return all_bitangents(system, tau)[1][4:7]


# ---------------------------------------------------------------------------
# Weber's coefficient formula

def weber_symbolic(system: AronholdSystem, i: int, j: int) -> WeberEntry:
    """Exact symbolic content of a_ij: phase, reduced characteristics, rho.

    The full coefficient is

        a_ij = phase * theta[n1] theta[n2] / (theta[d1] theta[d2])

    with phase = i^t * (-1)^d * rho, where t = (q4+q_{4+i})'.(q4+q5+q6+q7)'',
    d = (q_j+q_r+q_s)'.(q4+q_{4+i})'', and rho the product of the four
    reduction signs of the non-reduced constants.  Weber's formula fixes
    each row only up to a sign eps_i; the convention here is his printed
    one, eps = (+1, +1, +1), which reproduces the classical table for the
    reference system.  The signs cancel in lambda_i a_ij, so k, xi, the
    quartic and the 28 lines do not depend on them.
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("row and column indices must be in {1, 2, 3}")
    q4 = system[3]
    q4i = system[3 + i]
    r, s = [x for x in (5, 6, 7) if x != 4 + i]
    qr, qs = system[r - 1], system[s - 1]
    qj = system[j - 1]

    s4i, s4567, sjrs = char_sum(q4, q4i), char_sum(q4, *system.forms[4:]), char_sum(qj, qr, qs)
    t = sum(a * b for a, b in zip(s4i.mp, s4567.mpp))
    d = sum(a * b for a, b in zip(sjrs.mp, s4i.mpp))

    rho = 1
    reduced = []
    for c in (char_sum(q4, qr, qj), char_sum(q4, qs, qj), char_sum(q4i, qr, qj), char_sum(q4i, qs, qj)):
        rc, sign = reduce_characteristic(c)
        rho *= sign
        reduced.append(rc)
    phase = 1j ** (t % 4) * (-1 if d % 2 else 1) * rho
    return WeberEntry(phase=phase, chars=tuple(reduced), rho=rho)


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _plan(system: AronholdSystem) -> _GatherPlan:
    """The gather plan of ``system``, built on first use from :func:`weber_symbolic` and the labels."""
    entries = [weber_symbolic(system, i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    chars = np.array([[pack(c) for c in e.chars] for e in entries]).T.reshape(4, 3, 3)
    phase = np.array([e.phase for e in entries]).reshape(3, 3)
    labels = _bitangent_labels(system)
    lines = np.array([pack(q) for q in labels])
    for arr in (chars, phase, lines):
        arr.setflags(write=False)
    return _GatherPlan(chars, phase, labels, lines)


def _weber_matrix(plan: _GatherPlan, values: np.ndarray) -> np.ndarray:
    """a = phase * (t[n1] t[n2]) / (t[d1] t[d2]) over the plan's gather of the constants t.

    The products are formed as Python's complex type forms them, with no
    fused multiply-add, so each a_ij keeps the bits of the scalar formula.
    """
    x, y = values[plan.chars[0::2]], values[plan.chars[1::2]]  # (n1, d1) and (n2, d2)
    prod = np.empty(x.shape, dtype=complex)
    prod.real = x.real * y.real - x.imag * y.imag
    prod.imag = x.real * y.imag + x.imag * y.real
    return plan.phase * prod[0] / prod[1]


def _solve3(mat: np.ndarray, what: str) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(mat), None) or not _cond(_svd(mat)) <= COND_LIMIT:
        raise SingularSystemError(f"{what} is singular")
    x = _solve1(mat, _RHS)
    resid = norm(mat @ x - _RHS) / (norm(mat) * norm(x) + _RHS_NORM)
    if not np.logical_and.reduce(np.isfinite(x)) or not resid <= SOLVE_RESIDUAL_GATE:
        raise SingularSystemError(f"{what} is numerically singular (residual {resid:.2e})")
    return x


def solve_lambda(a: np.ndarray) -> np.ndarray:
    """Solve the reciprocal system R.lam = (-1,-1,-1), R[j][i] = 1/a[i][j]."""
    a = np.asarray(a, dtype=complex)
    return _solve3((1.0 / a).T, "reciprocal coefficient matrix")


def solve_k(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve M.k = (-1,-1,-1) with M[j][i] = lam_i * a[i][j]."""
    a = np.asarray(a, dtype=complex)
    m = (a * np.asarray(lam, dtype=complex)[:, None]).T
    return _solve3(m, "lambda-weighted coefficient matrix")


def xi_forms(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The linear forms (xi_23, xi_13, xi_12) of the three-radical model, as the rows of a 3x3 array.

    Coefficient-wise, each coordinate column y = (xi_23[l], xi_13[l],
    xi_12[l]) satisfies the same 4x3 system

        [1, 1, 1]              . y = -1
        [1/a_i1, 1/a_i2, 1/a_i3] . y = -k_i a_il     (i = 1, 2, 3)

    (12 scalar equations for 9 unknowns, consistent of rank 3 per
    column for genuine input).  The three columns are one least-squares
    solve with three right-hand sides, rows equilibrated, and each
    column's relative residual must pass the consistency gate.  The rows
    are checked as line covectors (:func:`line_covectors`).
    """
    a, k = np.asarray(a, dtype=complex), np.asarray(k, dtype=complex)
    b = np.concatenate((_ONES, 1.0 / a))
    w = 1.0 / np.maximum.reduce(np.abs(b), axis=1)
    rhs = -np.concatenate((_ONES, k[:, None] * a))  # column l: -(1, k_i a_il)
    y = _lstsq(b * w[:, None], rhs * w[:, None], _XI_RCOND)[0]
    resid = np.maximum.reduce(norm(b @ y - rhs, axis=0) / np.maximum(norm(rhs, axis=0), 1e-300))
    if not resid <= XI_RESIDUAL_GATE:
        raise SingularSystemError(f"three-radical scaling system inconsistent (residual {resid:.2e})")
    return line_covectors(y)


def riemann_quartic(xi: np.ndarray) -> QuarticCurve:
    """The quartic recovered from the three scaled bitangent products.

    ``xi`` holds the covectors of xi_23, xi_13, xi_12 as rows, as
    :attr:`AronholdFrame.xi` does.  With A = X1*xi_23, B = X2*xi_13,
    C = X3*xi_12, eliminating the radicals from
    sqrt(A) + sqrt(B) + sqrt(C) = 0 gives

        4AB - (A + B - C)^2  =  2(AB + BC + CA) - A^2 - B^2 - C^2,

    which is symmetric under every permutation of the three products
    (the relative sign inside the square is a branch choice with no
    invariant meaning).  A, B and C are 3x3 coefficient matrices
    (entry (i, j) multiplies X_i X_j).  With S = A + B - C, the 81
    entries of each 4-tensor A(x)B and S(x)S are summed into MONOMIALS
    order by one 0/1 table built from MONOMIALS, and the quartic is
    4 AB - SS.  The 15 coefficients are scaled by :func:`unit_pivot`.
    """
    a, b, c = _EYE * np.asarray(xi, dtype=complex)[:, None, :]
    s = a + b - c
    ab, ss = (_QUARTIC_SUM @ np.multiply.outer(x, y).ravel() for x, y in ((a, b), (s, s)))
    coeffs = 4 * ab - ss
    if np.maximum.reduce(np.abs(coeffs)) == 0:
        raise DegenerateCurveError("reconstruction produced the zero polynomial")
    return QuarticCurve(unit_pivot(coeffs))


def frame_matrix(system: AronholdSystem, tau: PeriodMatrix) -> np.ndarray:
    """The 3x3 matrix T taking theta-frame gradients to Weber-frame covectors.

    With G the gradients of theta[q_1], theta[q_2], theta[q_3] at 0
    stacked as rows and c[q] = grad theta[q] . G^{-1}, the bitangent of
    an odd form q has Weber-frame covector grad theta[q] . T = c[q] / c[q_4]
    (entrywise), which puts b_1..b_4 at X1, X2, X3, X1+X2+X3.  By Cramer's
    rule entry j is D[.., q, ..] / D[.., q_4, ..], q and q_4 in slot j of
    D[q1,q2,q3].  G is inverted with its rows scaled to unit norm: row
    norms vary exponentially in Im(tau) and cancel in the ratio.

    Refuses on the special locus.  Raises :class:`SingularSystemError`,
    naming the gate and the measured value, when that equilibrated G has
    condition number above FRAME_COND_LIMIT, or when a denominator
    D[.., q_4, ..] is below JACOBIAN_DET_REL_TOL times the product of its
    three gradient norms: a frame double precision cannot represent,
    which says nothing about the even constants.  One SVD of G gives both
    gates their figures: the condition number s_0 / s_2 and |det G|,
    the product s_0 s_1 s_2 of its singular values.
    """
    grads, lines = require_generic(tau).grads, _plan(system).lines
    g, g4 = grads[lines[:3]], grads[lines[3]]
    norms = norm(g, axis=1, keepdims=True)
    s = _svd(g := g / norms) if np.minimum.reduce(norms, axis=None) > 0 else np.zeros(3)
    cond = _cond(s)
    if not cond <= FRAME_COND_LIMIT:
        raise SingularSystemError(
            f"frame matrix condition number {cond:.2e} exceeds FRAME_COND_LIMIT {FRAME_COND_LIMIT:.0e}"
        )
    inv = _inv(g)
    c4 = g4 @ inv
    # |c4_j det g| / |g4| is |D[.., q_4, ..]| over its three gradient norms;
    # numerators may legitimately be tiny (a near-zero coefficient), only a
    # vanishing denominator poisons the frame
    denominator, scale = np.minimum.reduce(np.abs(c4)) * (s[0] * s[1] * s[2]), norm(g4)
    if not denominator >= JACOBIAN_DET_REL_TOL * scale:
        raise SingularSystemError(
            f"Jacobian determinant denominator {denominator / scale:.2e} (relative to its gradient norms) "
            f"is below JACOBIAN_DET_REL_TOL {JACOBIAN_DET_REL_TOL:.0e}"
        )
    return inv / c4


def weber_coefficients(system: AronholdSystem, tau: PeriodMatrix) -> AronholdFrame:
    """Weber's formula end to end: the normalized Aronhold frame.

    Refuses on the special locus, evaluates the nine coefficients a_ij
    in Weber's printed row-sign convention (see :func:`weber_symbolic`),
    solves for lambda and k, and solves for the xi forms.  In exact
    arithmetic Weber's normalization gives k = (1, 1, 1); numerically k
    drifts from it as tau nears the special locus, where the smallest
    even constants enter denominators, while the curve and its lines can
    stay accurate, so |k - 1| is a diagnostic, not a measure of accuracy.
    """
    a = _weber_matrix(_plan(system), require_generic(tau).values)
    lam = solve_lambda(a)
    k = solve_k(a, lam)
    xi = xi_forms(a, k)
    for arr in (a, lam, k):
        arr.setflags(write=False)
    return AronholdFrame(system=system, a=a, k=k, lam=lam, xi=xi)


def all_bitangents(system: AronholdSystem, tau: PeriodMatrix) -> tuple[tuple[Characteristic, ...], np.ndarray]:
    """All 28 bitangents in the Weber frame: (labels, covectors).

    ``labels`` are the 28 odd forms, the seven system forms b_1..b_7
    followed by the 21 derived pair forms in (i, j) lexicographic order,
    the same tuple on every call for a system.  ``covectors`` is the
    read-only (28, 3) array whose row l is the line of labels[l]:
    grad theta[q] . T with T from :func:`frame_matrix`, one gather of
    the kept gradients and one product for all 28.  It is not checked
    here: :func:`thetaquartic.verify.bitangency_summary` checks it as it
    certifies it.  The tables are finite and both gates of T passed, so
    a row is zero only where a gradient is.
    """
    t = frame_matrix(system, tau)
    plan = _plan(system)
    covectors = require_generic(tau).grads[plan.lines] @ t
    covectors.setflags(write=False)
    return plan.labels, covectors


def _bitangent_labels(system: AronholdSystem) -> tuple[Characteristic, ...]:
    # the seven system forms, then the 21 pair forms in (i, j) order
    pairs = derived_forms(system).pair
    return tuple(system.forms) + tuple(pairs[key] for key in sorted(pairs))

