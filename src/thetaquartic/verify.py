"""The pipeline's entry point, :func:`reconstruct`, and independent verification of its claims.

The bitangency certificate is deliberately oblivious to how a line was
produced.  A line is bitangent exactly when the quartic restricted to
it is a square, and the two roots of the square root are the contact
points.  So the certificate restricts the quartic to the line, fits a
square to the restriction by least squares, and tests whether the
fitted square reproduces the restriction.  The fit also yields the
contact points for the report.

All entry points run one batched pass over a stack of line covectors, an
(L, 3) array such as :func:`thetaquartic.weber.all_bitangents` returns.
A stacked SVD gives each line's spanning points p, q.  An exact binomial
contraction gives every restriction g(s, t) = F(s p + t q) of the curve
scaled to unit largest coefficient; sampling F at five roots of unity
and taking an inverse DFT is exact in exact arithmetic too, but mixes
all 15 monomials into every sample and certified fewer digits (mean
13.34 against 13.41 over 200 random period matrices).  Each restriction
is then moved to one of six charts of P^1, centred on the octahedron
points 0, oo, +-1, +-i, chosen so that the chart's point at infinity is
far from every root; a double root anywhere, [1 : 0] included, is then
an ordinary affine root.  The monic restriction x^4 + h_1 x^3 + ...
gets one least-squares square root x^2 + a x + b: the square root of
its top three coefficients, then one Gauss-Newton step on all four.
The fit only proposes the two contact points: the verdict is the
residual of the restriction itself against the squared form on those
points, so a poor fit can fail a true bitangent but never pass another
line.  The fit, the residuals and the canonical contact points are
array operations, and the result stays arrays:
:func:`bitangency_summary` returns them with their pass count, and
only :func:`bitangency_check` builds a :class:`BitangencyReport`.
Laying the certificates out as a report is the command line's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import weber as wb
from .charalgebra import REFERENCE_SYSTEM, AronholdSystem, Characteristic
from .errors import DegenerateCurveError, ThetaQuarticError
from .thetaeval import PeriodMatrix, random_tau, vanishing_even_characteristics
from .weber import MONOMIALS, AronholdFrame, ProjLine, QuarticCurve

#: a line is certified bitangent when the residual of its fitted square is below this
BITANGENCY_TOL = 1e-6

#: restriction coefficients below this (relative to the curve's scale)
#: mean the line lies on the curve
RESTRICTION_ZERO_TOL = 1e-12

#: draws :func:`random_admissible_tau` makes before it gives up
MAX_TRIES = 100


def random_admissible_tau(seed: int) -> PeriodMatrix:
    """Seeded random period matrix, rejection-sampled off the special locus."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        tau = PeriodMatrix(random_tau(rng))
        if not vanishing_even_characteristics(tau):
            return tau
    raise ThetaQuarticError(f"no admissible period matrix found in {MAX_TRIES} draws (seed {seed})")


@dataclass(frozen=True, eq=False)
class BitangencyReport:
    """Certificate that a line is (or is not) bitangent to a quartic, with read-only (2, 3) ``contact_points``."""

    line: ProjLine
    is_bitangent: bool
    contact_points: np.ndarray
    residual: float
    near_flex: bool = False


# ---------------------------------------------------------------------------
# the batched certificate

def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # product of binary forms stored as coefficient vectors (last axis,
    # length 5), truncated at degree 4: the anti-diagonal sums of the outer
    # product a x b, accumulated slice by slice in a fixed order
    out = a[..., :1] * b
    for k in range(1, 5):
        out[..., k:] += a[..., k : k + 1] * b[..., : 5 - k]
    return out


_EXPONENTS = np.array(MONOMIALS)
#: _BINOM[e, k] = C(e, k), zero for k > e
_BINOM = np.array([[math.comb(e, k) for k in range(5)] for e in range(5)], dtype=float)
_E_MINUS_K = np.clip(np.arange(5)[:, None] - np.arange(5), 0, None)


def _restrictions(curve: QuarticCurve, covectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict the curve, scaled to unit largest coefficient, to a stack of line covectors (L, 3).

    Returns (g, p, q): p[l], q[l] are unit spanning points of line l (the
    SVD null space of its covector) and g[l, k] is the coefficient of
    s^(4-k) t^k in F(s p[l] + t q[l]).  Raises
    :class:`DegenerateCurveError` if any restriction vanishes, i.e. a
    line is a component of the curve.
    """
    covectors = np.asarray(covectors, dtype=complex).reshape(-1, 3)
    _, _, vh = np.linalg.svd(covectors[:, None, :])
    p, q = vh[:, 1].conj(), vh[:, 2].conj()
    coeffs = curve.coeffs / np.abs(curve.coeffs).max()

    # term[l, i, e, k] = C(e, k) p_i^(e-k) q_i^k: the binomial expansion of (s p_i + t q_i)^e
    powers = np.arange(5)
    term = _BINOM * (p[..., None] ** powers)[:, :, _E_MINUS_K] * (q[..., None] ** powers)[:, :, None, :]
    x1, x2, x3 = (term[:, i][:, _EXPONENTS[:, i]] for i in range(3))
    g = (coeffs[:, None] * _poly_mul(_poly_mul(x1, x2), x3)).sum(axis=1)
    if np.any(np.abs(g).max(axis=1) < RESTRICTION_ZERO_TOL):
        raise DegenerateCurveError("the line lies on the curve; restriction is zero")
    return g, p, q


def _chart_transforms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The six octahedral charts of P^1 as exact binomial transforms.

    Chart c substitutes (s, t) = s' a_c + t' b_c, where the centre b_c is
    one of the octahedron points 0, oo, 1, -1, i, -i (as [s : t]) and a_c
    is its antipode, so the substitution is a multiple of a unitary map.
    Returns (M, a, b) with M[c] the 5x5 matrix taking the coefficients of
    g to those of h(s', t') = g(s' a_c + t' b_c); its entries are small
    Gaussian integers, exact in floating point.
    """
    b = np.array([[0, 1], [1, 0], [1, 1], [-1, 1], [1j, 1], [-1j, 1]])
    a = np.stack([-b[:, 1].conj(), b[:, 0].conj()], axis=1)
    m = np.zeros((6, 5, 5), dtype=complex)
    for c in range(6):
        for k in range(5):
            # g_k s^(4-k) t^k with s = s' a0 + t' b0, t = s' a1 + t' b1: the
            # coefficient of s'^(4-j) t'^j is that of u^j in (a0 + b0 u)^(4-k) (a1 + b1 u)^k
            col = np.ones(1, dtype=complex)
            for _ in range(4 - k):
                col = np.convolve(col, [a[c, 0], b[c, 0]])
            for _ in range(k):
                col = np.convolve(col, [a[c, 1], b[c, 1]])
            m[c, :, k] = col
    return m, a, b


_CHART_M, _CHART_INF, _CHART_CENTRE = _chart_transforms()


def _norm(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm(x, axis=-1, keepdims=True) by numpy's own expression, bit for bit, without its dispatch
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1, keepdims=True))


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the roots of x^2 + b x + c: the larger-modulus one without cancellation, the
    # other as c over it, and 0 where both are 0 (x^2 itself)
    d = np.sqrt(b * b - 4 * c)
    big = -(b + np.where((b.conj() * d).real >= 0, d, -d)) / 2
    return big, np.divide(c, big, out=np.zeros_like(big), where=big != 0)


def _sphere_centres(g: np.ndarray) -> np.ndarray:
    """The two roots of a least-squares square root of each binary quartic, as unit vectors [s : t] (L, 2, 2).

    Each g is moved to the octahedral chart whose point at infinity
    carries the largest |h_0| / max|h|, where h = M_c g and h_0 = g(a_c)
    is the value there.  Four roots cannot crowd all six chart
    infinities, so h_0 is never small and the monic h(x, 1) / h_0 has
    bounded roots.  Its square root s = x^2 + a x + b is fitted to it:
    the start matches the top three coefficients, a = h_1/2 and
    b = (h_2 - a^2)/2, and one Gauss-Newton step on all four equations
    (2a - h_1, a^2 + 2b - h_2, 2ab - h_3, b^2 - h_4) follows.  Their
    Jacobian has the columns (2, 2a, 2b, 0) and (0, 2, 2a, 2b), which
    are never parallel, so the 2x2 normal equations are never singular.
    The roots of s map back to x a_c + b_c.  Since neither lies near the
    chart's infinity, a double root at or near [1 : 0] is an ordinary
    root of s, like any other.
    """
    h = np.einsum("cjk,lk->lcj", _CHART_M, g)
    chart = np.argmax(np.abs(h[:, :, 0]) / np.abs(h).max(axis=2), axis=1)
    h = h[np.arange(len(g)), chart]
    h1, h2, h3, h4 = (h[:, 1:] / h[:, :1]).T
    a = h1 / 2
    b = (h2 - a * a) / 2
    e0, e1, e2, e3 = 2 * a - h1, a * a + 2 * b - h2, 2 * a * b - h3, b * b - h4
    # with J the Jacobian and e the residuals: J^H e = 2 (u, v) and J^H J = 4 [[n, m], [m*, n]]
    ac, bc = a.conj(), b.conj()
    u, v = e0 + ac * e1 + bc * e2, e1 + ac * e2 + bc * e3
    n, m = 1 + (ac * a).real + (bc * b).real, ac + bc * a
    det = 2 * (n * n - (m.conj() * m).real)
    a, b = a - (n * u - m * v) / det, b - (n * v - m.conj() * u) / det
    x = np.stack(_quadratic_roots(a, b), axis=1)
    centres = x[..., None] * _CHART_INF[chart, None] + _CHART_CENTRE[chart, None]
    return centres / _norm(centres)


def _chord(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def _canonical(x: np.ndarray) -> np.ndarray:
    """Unit plane points (L, 2, 3) with a fixed phase and order.

    The first entry whose modulus is within 1e-9 (relative) of the
    largest is made real positive, and the two points of a line are put
    in ascending lexicographic order of the (Re, Im) pairs of their
    coordinates rounded to 1e-9: entries equal up to rounding noise (two
    of equal modulus, zeros on a coordinate line) decide neither the
    phase nor the order.
    """
    x = x / _norm(x)
    rows = np.arange(len(x))
    size = np.abs(x)
    lead = np.argmax(size >= (1 - 1e-9) * size.max(axis=-1, keepdims=True), axis=-1)
    pivot = x[rows[:, None], [0, 1], lead][..., None]
    x = x * (pivot.conj() / np.abs(pivot))
    keys = np.round(x.view(float), 9)
    diff = keys[:, 0] - keys[:, 1]
    first = diff[rows, np.argmax(diff != 0, axis=1)]
    return np.where((first > 0)[:, None, None], x[:, ::-1], x)


def _certify(curve: QuarticCurve, covectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Square-fit certificates for a stack of L line covectors (L may be 0), in one array pass.

    Returns read-only arrays (is_bitangent, residual, contacts, near_flex):
    boolean and float of length L, and contacts of shape (L, 2, 3), the
    two canonical contact points of each line (see :func:`bitangency_check`).
    """
    g, p, q = _restrictions(curve, covectors)
    centers = _sphere_centres(g)

    # squared pair form: (s1*t - t1*s)^2 (s2*t - t2*s)^2, coefficients in t
    s0, t0 = centers[..., 0], centers[..., 1]
    square = np.stack([t0 * t0, -2 * s0 * t0, s0 * s0, 0 * s0, 0 * s0], axis=-1)
    model = _poly_mul(square[:, 0], square[:, 1])
    amp = np.sum(model.conj() * g, axis=1, keepdims=True) / np.sum(model.conj() * model, axis=1, keepdims=True)
    residual = (_norm(g - amp * model) / _norm(g))[:, 0]

    # if g = amp (square + e), e splits each double root of the square by about
    # sqrt(|e|) / separation, and |e| is at least the rounding level eps of g however
    # small the residual reads; near-flex is a split of at least a tenth of the
    # separation, i.e. separation^2 <= 10 sqrt(max(residual, eps))
    separation = _chord(centers[:, 0], centers[:, 1])
    is_bitangent = residual < BITANGENCY_TOL
    near_flex = is_bitangent & (separation * separation <= 10 * np.sqrt(np.maximum(residual, np.finfo(float).eps)))
    contacts = _canonical(s0[..., None] * p[:, None, :] + t0[..., None] * q[:, None, :])
    for arr in (is_bitangent, residual, contacts, near_flex):
        arr.setflags(write=False)
    return is_bitangent, residual, contacts, near_flex


def bitangency_check(curve: QuarticCurve, line: ProjLine) -> BitangencyReport:
    """Square-fit bitangency certificate.

    The line is bitangent iff the restriction of the curve to it is a
    square up to scale.  A least-squares square root of the restriction
    proposes the two contact points; the squared form on them, scaled to
    the restriction, must reproduce it with relative residual below
    :data:`BITANGENCY_TOL`, the one threshold every caller certifies
    against.  Contact points are the roots of the square root mapped
    back to the plane, in canonical phase and order.  ``near_flex``
    flags the degenerate case where the two contact points themselves
    (nearly) collide, i.e. a hyperflex-like contact: their chordal
    separation squared is at most 10 sqrt(max(residual, eps)), eps the
    machine epsilon, so the contacts carry few digits.
    """
    ok, residual, contacts, flex = _certify(curve, line.c)
    return BitangencyReport(line, bool(ok[0]), contacts[0], float(residual[0]), bool(flex[0]))


def bitangency_summary(curve: QuarticCurve, labelled_lines) -> tuple[tuple, dict]:
    """Check labelled lines against the curve in one pass.

    ``labelled_lines`` is (labels, covectors) as
    :func:`thetaquartic.weber.all_bitangents` returns it: L labels and an
    (L, 3) array of covectors, taken as it is.  Returns (certs, summary).
    certs is the tuple of arrays (is_bitangent, residual, contacts,
    near_flex) of the batched certificate, aligned with the covectors:
    row l holds the verdict of
    :func:`bitangency_check` at :data:`BITANGENCY_TOL`, the residual, the
    two canonical contact points (shape (2, 3)) and the near-flex flag of
    line l.  summary counts passes/failures and the worst residual (0.0
    for no lines).
    """
    _, covectors = labelled_lines
    certs = _certify(curve, covectors)
    ok, residual = certs[:2]
    n_pass = int(ok.sum())
    return certs, {"pass": n_pass, "fail": len(ok) - n_pass, "max_residual": float(residual.max(initial=0.0))}


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """One run of :func:`reconstruct` in read-only arrays; ``certs`` and ``summary`` are :func:`bitangency_summary`'s."""

    frame: AronholdFrame
    quartic: QuarticCurve
    labels: tuple[Characteristic, ...]
    covectors: np.ndarray
    certs: tuple
    summary: dict


def reconstruct(tau: PeriodMatrix, system: AronholdSystem = REFERENCE_SYSTEM) -> Reconstruction:
    """Weber's formula end to end: tau to the quartic and its 28 certified bitangents.

    Runs :func:`~thetaquartic.weber.weber_coefficients`, then
    ``riemann_quartic``, ``all_bitangents`` and :func:`bitangency_summary`,
    so a refusal is the error of the first stage that refuses.  Fewer
    than 28 certified lines is a result, not an error.
    """
    # each stage is looked up on its module at call time, the binding perfbench/tracing.py swaps
    frame = wb.weber_coefficients(system, tau)
    quartic = wb.riemann_quartic(frame.xi)
    labels, covectors = wb.all_bitangents(system, tau)
    certs, summary = bitangency_summary(quartic, (labels, covectors))
    return Reconstruction(frame, quartic, labels, covectors, certs, summary)
