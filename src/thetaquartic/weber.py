"""Bitangent reconstruction from theta constants, in the Aronhold frame.

Fixing an ordered Aronhold system q_1..q_7 puts seven bitangents of the
quartic into the normal form

    b_1: X1 = 0   b_2: X2 = 0   b_3: X3 = 0   b_4: X1+X2+X3 = 0
    b_{4+i}: a_i1 X1 + a_i2 X2 + a_i3 X3 = 0      (i = 1, 2, 3)

and Weber's formula expresses each a_ij as a ratio of four theta
constants times an explicit fourth-root-of-unity phase.  With that
normalization the scaling system for the remaining construction has the
distinguished solution k = (1, 1, 1), the three linear forms xi_23,
xi_13, xi_12 follow from one 12-equation linear system, the curve
itself is recovered from its three-radical model, and the map between
this frame and the theta-gradient frame is a single 3x3 matrix whose
columns are Jacobian-determinant-weighted gradients.

Phase bookkeeping: all theta arguments here are non-reduced integer
characteristic sums such as (q_4 + q_r + q_j); the reduction signs they
pick up are part of the formula and are either tracked explicitly
(:func:`weber_symbolic`) or absorbed by evaluating through
:func:`thetaquartic.thetaeval.theta`, which reduces internally.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .charalgebra import (
    AronholdSystem,
    Characteristic,
    QuadForm,
    arf,
    char_sum,
    derived_forms,
    is_aronhold,
    is_azygetic_triple,
    reduce_characteristic,
)
from .errors import DegenerateCurveError, SingularSystemError, SpecialLocusError
from .thetaeval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    _ODD,
    _tables,
    even_constant_table,
    jacobian_det,
    odd_gradient_table,
    vanishing_even_characteristics,
)

#: Exponent triples (a, b, c) of X1^a X2^b X3^c with a+b+c = 4, graded-lex order.
MONOMIALS = tuple(sorted(((a, b, 4 - a - b) for a in range(5) for b in range(5 - a)), reverse=True))

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

#: Guards for the small dense solves.  The condition limit only has to
#: catch genuine rank deficiency (cond = inf); admissible-but-marginal
#: period matrices legitimately produce badly conditioned systems.
COND_LIMIT = 1e14
SOLVE_RESIDUAL_GATE = 1e-10
FRAME_COND_LIMIT = 1e10
XI_RESIDUAL_GATE = 1e-8

#: bound of the caches keyed by an Aronhold system: one entry per system
SYSTEM_CACHE_SIZE = 288


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass(frozen=True)
class ProjLine:
    """A line in P^2 given by a covector, defined up to complex scale."""

    c: tuple[complex, complex, complex]

    def __post_init__(self):
        c = tuple(complex(x) for x in self.c)
        if len(c) != 3 or not all(map(cmath.isfinite, c)):
            raise ValueError("a line covector has 3 finite entries")
        if max(abs(x) for x in c) == 0:
            raise ValueError("zero covector does not define a line")
        object.__setattr__(self, "c", c)

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.c, dtype=complex)

    def normalized(self) -> "ProjLine":
        """Scale so the largest-modulus entry (first such index) is exactly 1."""
        v = self.vec
        pivot = int(np.argmax(np.abs(v)))
        return ProjLine(tuple(v / v[pivot]))

    def residual_to(self, other) -> float:
        """Normalized cross-product residual; 0 iff projectively equal."""
        u = self.vec
        w = other.vec if isinstance(other, ProjLine) else np.asarray(other, dtype=complex)
        return float(np.linalg.norm(np.cross(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w)))

    def to_json(self) -> list:
        return [complex_to_json(x) for x in self.normalized().c]


@dataclass(frozen=True)
class QuarticCurve:
    """A ternary quartic: 15 coefficients in MONOMIALS order, up to scale."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        if len(c) != 15 or not all(map(cmath.isfinite, c)):
            raise ValueError("a ternary quartic has 15 finite coefficients")
        if max(abs(x) for x in c) == 0:
            raise DegenerateCurveError("zero polynomial is not a quartic curve")
        object.__setattr__(self, "coeffs", c)

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)

    def __call__(self, point) -> complex:
        x = np.asarray(point, dtype=complex)
        return complex(
            sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for c, e in zip(self.coeffs, MONOMIALS))
        )

    def to_json(self) -> list:
        return [complex_to_json(x) for x in self.coeffs]


@dataclass(frozen=True)
class WeberEntry:
    """Symbolic content of one coefficient a_ij before series evaluation.

    ``phase`` is the fourth root of unity multiplying the free row sign
    eps_i in the reduced-characteristic formula (the reduction-sign
    product ``rho`` is already folded in); ``chars`` holds the reduced
    characteristics (num1, num2, den1, den2) of the four constants.
    """

    phase: complex
    chars: tuple[Characteristic, Characteristic, Characteristic, Characteristic]
    rho: int


@dataclass
class AronholdFrame:
    """Everything Weber's normalization attaches to (system, tau)."""

    system: AronholdSystem
    a: np.ndarray
    eta: tuple
    k: np.ndarray
    lam: np.ndarray
    xi: tuple[ProjLine, ProjLine, ProjLine]
    phi: np.ndarray


# ---------------------------------------------------------------------------
# admission gate

def require_generic(tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """Return the even-constant table, refusing on the special locus.

    Single source of truth for pipeline admission: exactly the scan in
    :func:`thetaquartic.thetaeval.vanishing_even_characteristics`.
    """
    vanishing = vanishing_even_characteristics(tau, pol)
    if vanishing:
        raise SpecialLocusError(
            "even theta constants vanish (hyperelliptic or decomposable tau): "
            + ", ".join(m.bracket() for m in vanishing),
            vanishing=vanishing,
        )
    return even_constant_table(tau, pol)


def _theta_from_table(table: dict, m: Characteristic) -> complex:
    r, sign = reduce_characteristic(m)
    return sign * table[r]


# ---------------------------------------------------------------------------
# determinant ratios

def jacobi_ratio(
    quad: tuple[QuadForm, QuadForm, QuadForm, QuadForm],
    completion: tuple[QuadForm, QuadForm, QuadForm],
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
):
    """Both sides of the determinant-ratio identity for an azygetic 4-tuple.

    lhs = D[q4,q2,q3] / D[q1,q2,q3]; rhs is the closed form
    -e((q5+q6+q7)'.(q1+q4)'') times a ratio of six theta constants at
    non-reduced characteristic sums.  The identity is completion
    independent; callers may verify by passing either completing triple.
    """
    q1, q2, q3, q4 = quad
    if len(set(quad)) != 4 or any(arf(q) != 1 for q in quad):
        raise ValueError("need four distinct odd forms")
    if not all(is_azygetic_triple(*t) for t in combinations(quad, 3)):
        raise ValueError("the 4-tuple is not azygetic")
    q5, q6, q7 = completion
    if not is_aronhold(quad + tuple(completion)):
        raise ValueError("completion does not extend the 4-tuple to an Aronhold system")

    table = require_generic(tau, pol)
    lhs = jacobian_det(q4.characteristic, q2.characteristic, q3.characteristic, tau, pol) / jacobian_det(
        q1.characteristic, q2.characteristic, q3.characteristic, tau, pol
    )

    s567 = char_sum(q5, q6, q7)
    s14 = char_sum(q1, q4)
    pref = -_int_sign(sum(s567.mp[i] * s14.mpp[i] for i in range(3)))
    num = den = 1.0 + 0.0j
    for x, y in ((q5, q6), (q5, q7), (q6, q7)):
        num *= _theta_from_table(table, char_sum(x, y, q1))
        den *= _theta_from_table(table, char_sum(x, y, q4))
    rhs = pref * num / den
    return lhs, rhs


def _int_sign(n: int) -> int:
    return -1 if n % 2 else 1


def aronhold_coeffs_dets(
    system: AronholdSystem,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """The rows (a_i1 : a_i2 : a_i3) as Jacobian determinant ratios.

    Row i is (D[q_{4+i},q2,q3]/D[q4,q2,q3], D[q1,q_{4+i},q3]/D[q1,q4,q3],
    D[q1,q2,q_{4+i}]/D[q1,q2,q4]); the overall scalar of each row is not
    meaningful, only its projective class.
    """
    require_generic(tau, pol)
    grads = odd_gradient_table(tau, pol)

    def det(*forms):
        rows = np.array([grads[f.characteristic] for f in forms])
        return complex(np.linalg.det(rows)), float(np.prod([np.linalg.norm(g) for g in rows]))

    def denominator(*forms):
        d, scale = det(*forms)
        # numerators may legitimately be tiny (a near-zero coefficient);
        # only a vanishing denominator poisons the row
        if abs(d) < 1e-12 * scale:
            raise SpecialLocusError("vanishing Jacobian determinant denominator")
        return d

    q1, q2, q3, q4 = system[0], system[1], system[2], system[3]
    out = np.zeros((3, 3), dtype=complex)
    dens = (denominator(q4, q2, q3), denominator(q1, q4, q3), denominator(q1, q2, q4))
    for i in (1, 2, 3):
        qe = system[3 + i]
        out[i - 1] = (
            det(qe, q2, q3)[0] / dens[0],
            det(q1, qe, q3)[0] / dens[1],
            det(q1, q2, qe)[0] / dens[2],
        )
    return out


# ---------------------------------------------------------------------------
# Weber's coefficient formula

@lru_cache(maxsize=9 * SYSTEM_CACHE_SIZE)
def weber_symbolic(system: AronholdSystem, i: int, j: int) -> WeberEntry:
    """Exact symbolic content of a_ij: phase, reduced characteristics, rho.

    The full coefficient is

        a_ij = eps_i * phase * theta[n1] theta[n2] / (theta[d1] theta[d2])

    with phase = i^t * (-1)^d * rho, where t = (q4+q_{4+i})'.(q4+q5+q6+q7)'',
    d = (q_j+q_r+q_s)'.(q4+q_{4+i})'', and rho the product of the four
    reduction signs of the non-reduced constants.  The per-row sign
    convention is fixed so that the classical printed table for the
    reference system is reproduced with eps = (+1, +1, +1).
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("row and column indices must be in {1, 2, 3}")
    q4 = system[3]
    q4i = system[3 + i]
    r, s = [x for x in (5, 6, 7) if x != 4 + i]
    qr, qs = system[r - 1], system[s - 1]
    qj = system[j - 1]

    t = _row_exponent(system, i)
    d = sum(char_sum(qj, qr, qs).mp[l] * char_sum(q4, q4i).mpp[l] for l in range(3))

    rho = 1
    reduced = []
    for c in (char_sum(q4, qr, qj), char_sum(q4, qs, qj), char_sum(q4i, qr, qj), char_sum(q4i, qs, qj)):
        rc, sign = reduce_characteristic(c)
        rho *= sign
        reduced.append(rc)
    phase = _I_POW[t % 4] * _int_sign(d) * rho
    return WeberEntry(phase=phase, chars=tuple(reduced), rho=rho)


@lru_cache(maxsize=3 * SYSTEM_CACHE_SIZE)
def _row_exponent(system: AronholdSystem, i: int) -> int:
    # t = (q4+q_{4+i})'.(q4+q5+q6+q7)'' of row i
    q4 = system[3]
    return sum(char_sum(q4, system[3 + i]).mp[l] * char_sum(q4, *system.forms[4:]).mpp[l] for l in range(3))


def _weber_matrix(system, table, eps) -> tuple[np.ndarray, tuple]:
    a = np.zeros((3, 3), dtype=complex)
    etas = []
    for i in (1, 2, 3):
        etas.append(eps[i - 1] * _I_POW[_row_exponent(system, i) % 4])
        for j in (1, 2, 3):
            entry = weber_symbolic(system, i, j)
            n1, n2, d1, d2 = entry.chars
            a[i - 1, j - 1] = eps[i - 1] * entry.phase * (table[n1] * table[n2]) / (table[d1] * table[d2])
    return a, tuple(etas)


def _solve3(mat: np.ndarray, what: str) -> np.ndarray:
    rhs = -np.ones(3, dtype=complex)
    if not np.all(np.isfinite(mat)) or np.linalg.cond(mat) > COND_LIMIT:
        raise SingularSystemError(f"{what} is singular")
    x = np.linalg.solve(mat, rhs)
    resid = np.linalg.norm(mat @ x - rhs) / (
        np.linalg.norm(mat) * np.linalg.norm(x) + np.linalg.norm(rhs)
    )
    if not np.all(np.isfinite(x)) or resid > SOLVE_RESIDUAL_GATE:
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


def xi_forms(a: np.ndarray, k: np.ndarray) -> tuple[ProjLine, ProjLine, ProjLine]:
    """The linear forms (xi_23, xi_13, xi_12) of the three-radical model.

    Coefficient-wise, each coordinate column y = (xi_23[l], xi_13[l],
    xi_12[l]) satisfies the same 4x3 system

        [1, 1, 1]              . y = -1
        [1/a_i1, 1/a_i2, 1/a_i3] . y = -k_i a_il     (i = 1, 2, 3)

    (12 scalar equations for 9 unknowns, consistent of rank 3 per
    column for genuine input).  Solved per column by row-equilibrated
    least squares with a consistency gate on the relative residual.
    """
    a = np.asarray(a, dtype=complex)
    k = np.asarray(k, dtype=complex)
    b = np.vstack([np.ones(3, dtype=complex), 1.0 / a])
    w = 1.0 / np.abs(b).max(axis=1)
    y = np.zeros((3, 3), dtype=complex)
    for l in range(3):
        rhs = -np.concatenate(([1.0 + 0j], k * a[:, l]))
        sol, *_ = np.linalg.lstsq(b * w[:, None], rhs * w, rcond=None)
        resid = np.linalg.norm(b @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if resid > XI_RESIDUAL_GATE:
            raise SpecialLocusError(
                f"three-radical scaling system inconsistent (residual {resid:.2e})"
            )
        y[:, l] = sol
    return ProjLine(tuple(y[0])), ProjLine(tuple(y[1])), ProjLine(tuple(y[2]))


def _lin_poly(c) -> dict:
    return {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2]}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def _poly_add(*ps) -> dict:
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return out


def _poly_scale(p: dict, s) -> dict:
    return {e: s * c for e, c in p.items()}


def riemann_quartic(xi: tuple[ProjLine, ProjLine, ProjLine]) -> QuarticCurve:
    """The quartic recovered from the three scaled bitangent products.

    With A = X1*xi_23, B = X2*xi_13, C = X3*xi_12, eliminating the
    radicals from sqrt(A) + sqrt(B) + sqrt(C) = 0 gives

        4AB - (A + B - C)^2  =  2(AB + BC + CA) - A^2 - B^2 - C^2,

    which is symmetric under every permutation of the three products
    (the relative sign inside the square is a branch choice with no
    invariant meaning).  The 15 coefficients are normalized so the
    largest-modulus one is exactly 1.
    """
    x23, x13, x12 = xi
    ta = _poly_mul(_lin_poly((1, 0, 0)), _lin_poly(x23.c))
    tb = _poly_mul(_lin_poly((0, 1, 0)), _lin_poly(x13.c))
    tc = _poly_mul(_lin_poly((0, 0, 1)), _lin_poly(x12.c))
    s = _poly_add(ta, tb, _poly_scale(tc, -1))
    f = _poly_add(_poly_scale(_poly_mul(ta, tb), 4), _poly_scale(_poly_mul(s, s), -1))
    coeffs = np.array([f.get(e, 0) for e in MONOMIALS], dtype=complex)
    mags = np.abs(coeffs)
    if mags.max() == 0:
        raise DegenerateCurveError("reconstruction produced the zero polynomial")
    pivot = int(np.argmax(mags))
    return QuarticCurve(tuple(coeffs / coeffs[pivot]))


def frame_matrix(
    system: AronholdSystem,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """The matrix carrying the Aronhold frame to the theta-gradient frame.

    Column j is D_j * grad theta[q_j] with D_1 = D[q4,q2,q3],
    D_2 = D[q1,q4,q3], D_3 = D[q1,q2,q4]; a Weber-frame line covector u
    corresponds to the theta-frame covector u . A^T, so the bitangent of
    an odd form q has Weber-frame covector A^{-1} . grad theta[q].
    """
    grads = odd_gradient_table(tau, pol)
    q1, q2, q3, q4 = (system[i] for i in range(4))

    def det(*forms):
        return complex(np.linalg.det(np.array([grads[f.characteristic] for f in forms])))

    cols = [
        det(q4, q2, q3) * grads[q1.characteristic],
        det(q1, q4, q3) * grads[q2.characteristic],
        det(q1, q2, q4) * grads[q3.characteristic],
    ]
    phi = np.column_stack(cols)
    # column norms vary exponentially in Im(tau); gate the intrinsic
    # (equilibrated) conditioning, not the scaling artifact
    scales = np.linalg.norm(phi, axis=0)
    if scales.min() == 0 or np.linalg.cond(phi / scales) > FRAME_COND_LIMIT:
        raise SpecialLocusError("frame matrix is numerically singular")
    return phi


def weber_coefficients(
    system: AronholdSystem,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
    eps=(1, 1, 1),
) -> AronholdFrame:
    """Weber's formula end to end: the full normalized Aronhold frame.

    Refuses on the special locus, evaluates the nine coefficients a_ij,
    solves for lambda and k (k = (1,1,1) up to roundoff is the
    normalization contract), solves for the xi forms, and assembles the
    frame transport matrix.
    """
    eps = tuple(int(e) for e in eps)
    if len(eps) != 3 or any(e not in (-1, 1) for e in eps):
        raise ValueError("eps must be three signs +-1")
    table = require_generic(tau, pol)
    a, etas = _weber_matrix(system, table, eps)
    lam = solve_lambda(a)
    k = solve_k(a, lam)
    xi = xi_forms(a, k)
    phi = frame_matrix(system, tau, pol)
    return AronholdFrame(system=system, a=a, eta=etas, k=k, lam=lam, xi=xi, phi=phi)


def all_bitangents(
    system: AronholdSystem,
    tau: PeriodMatrix,
    pol: TruncationPolicy = DEFAULT_POLICY,
) -> list[tuple[QuadForm, ProjLine]]:
    """All 28 bitangents in the Weber frame, labelled by their odd forms.

    Ordered as the seven system forms b_1..b_7 followed by the 21
    derived pair forms in (i, j) lexicographic order.  Each line is the
    theta-frame gradient covector of its form transported through the
    frame matrix.
    """
    require_generic(tau, pol)
    phi = frame_matrix(system, tau, pol)
    grads = dict(zip(_ODD, _tables(tau, pol)[1]))  # the kept pass frame_matrix just read
    # solve through the column-equilibrated matrix: the raw inverse
    # loses the small columns' digits when gradient scales spread
    scales = np.linalg.norm(phi, axis=0)
    inv_scaled = np.linalg.inv(phi / scales)
    out = []
    for q in _bitangent_labels(system):
        covector = (inv_scaled @ grads[q.characteristic]) / scales
        out.append((q, ProjLine(tuple(covector))))
    return out


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _bitangent_labels(system: AronholdSystem) -> tuple[QuadForm, ...]:
    # the seven system forms, then the 21 pair forms in (i, j) order
    pairs = derived_forms(system).pair
    return tuple(system.forms) + tuple(pairs[key] for key in sorted(pairs))


def frame_to_json(frame: AronholdFrame, bitangents, quartic: QuarticCurve) -> dict:
    """The machine-readable pipeline output."""
    return {
        "aronhold": [q.characteristic.to_json() for q in frame.system],
        "a": [[complex_to_json(x) for x in row] for row in frame.a],
        "bitangents": [
            {"q": q.characteristic.to_json(), "line": line.to_json()} for q, line in bitangents
        ],
        "quartic": quartic.to_json(),
        "k": [complex_to_json(x) for x in frame.k],
        "lambda": [complex_to_json(x) for x in frame.lam],
    }
