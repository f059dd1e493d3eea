"""The pipeline's entry point, :func:`reconstruct`, and independent verification of its claims.

The bitangency certificate is deliberately oblivious to how a line was
produced: restrict the quartic to the line, find the four roots of the
resulting binary quartic on the Riemann sphere, pair them greedily by
chordal distance, and test whether the squared pair form reproduces the
restriction.  Root clustering (rather than resultant conditions) is
used because it also yields the two contact points for the report and
degrades gracefully near degenerate tangencies.

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
an ordinary pair of close affine roots.  The roots come from one
quadratic factorization of all the monic restrictions at once: two
Newton steps from the polynomial square root, since the restriction to
a bitangent is a square up to scale.  A row whose factors do not
multiply back to its restriction within a few ulps, such as a fourfold
root, a near-flex or a line far from bitangent, takes the eigenvalues of
its companion matrix instead.  Either path only proposes roots: the
verdict is the residual of the restriction itself against the fitted
squared pair form, so poor roots can fail a true bitangent but never
pass another line.  Pairing, residuals and
canonical contact points are array operations, and the result stays
arrays: :func:`bitangency_summary` returns them with their pass count,
and only :func:`bitangency_check` builds a :class:`BitangencyReport`.
Laying the certificates out as a report is the command line's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.linalg import LinAlgError, eigvals

from . import weber as wb
from .charalgebra import REFERENCE_SYSTEM, AronholdSystem, Characteristic
from .errors import DegenerateCurveError, ThetaQuarticError
from .thetaeval import PeriodMatrix, random_tau, vanishing_even_characteristics
from .weber import MONOMIALS, AronholdFrame, ProjLine, QuarticCurve

#: a line is certified bitangent when its root-clustering residual is below this
BITANGENCY_TOL = 1e-6

#: restriction coefficients below this (relative to the curve's scale)
#: mean the line lies on the curve
RESTRICTION_ZERO_TOL = 1e-12

#: draws :func:`random_admissible_tau` makes before it gives up
MAX_TRIES = 100

#: the certificate's root finder keeps a row's quadratic factorization when the
#: factors' product matches the monic restriction to this many ulps of its
#: largest coefficient, and otherwise solves that row's companion matrix
FACTOR_GATE_ULPS = 32


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
#: the six root pairs in combinations order; pair 5 - b is the complement of pair b
_PAIRS = np.array(list(combinations(range(4), 2)))


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
    # the roots of x^2 + b x + c: the larger-modulus one without cancellation, the other as c over it
    d = np.sqrt(b * b - 4 * c)
    big = -(b + np.where((b.conj() * d).real >= 0, d, -d)) / 2
    return big, c / big


def _factor_roots(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots (L, 4) of the monic quartics h (L, 5) from a quadratic factorization, and the rows it vouches for.

    h = (x^2 + u x + v)(x^2 + U x + W) with U = h_1 - u and W = h_2 - v - u U
    leaves two equations in (u, v): u W + v U = h_3 and v W = h_4.  Newton
    starts from (x - x_1)^2, x_1 a root of the polynomial square root
    x^2 + (h_1/2) x + (h_2 - h_1^2/4)/2, and takes two steps, each a 2x2
    Cramer solve over all rows.  Near a bitangent h is nearly a square:
    the start is off by about the squared spread of each pair of roots,
    and the Jacobian, the resultant of the two factors, stays away from 0
    unless the two pairs meet.  A row is vouched for when the product of
    its factors matches h to :data:`FACTOR_GATE_ULPS` ulps of max|h| and
    its roots are finite: they are then the roots of a quartic that close
    to h.  Call under ``np.errstate``, since a far-off or degenerate row
    divides by 0.
    """
    h1, h2, h3, h4 = h[:, 1], h[:, 2], h[:, 3], h[:, 4]
    x1 = (np.sqrt(0.75 * h1 * h1 - 2 * h2) - h1 / 2) / 2
    u, v = -2 * x1, x1 * x1
    for _ in range(2):
        U = h1 - u
        W = h2 - v - u * U
        f1, f2 = u * W + v * U - h3, v * W - h4
        j11, j12, j21, j22 = W + u * (u - U) - v, U - u, v * (u - U), W - v
        det = j11 * j22 - j12 * j21
        u = u - (f1 * j22 - f2 * j12) / det
        v = v - (j11 * f2 - j21 * f1) / det
    U = h1 - u
    W = h2 - v - u * U
    backward = np.abs(u * W + v * U - h3) + np.abs(v * W - h4) + np.abs(v + u * U + W - h2)
    x = np.stack(_quadratic_roots(u, v) + _quadratic_roots(U, W), axis=1)
    ok = (backward <= FACTOR_GATE_ULPS * np.finfo(float).eps * np.abs(h).max(axis=1)) & np.isfinite(x).all(axis=1)
    return x, ok


def _sphere_roots(g: np.ndarray) -> np.ndarray:
    """Roots of each binary quartic as unit vectors [s : t], shape (L, 4, 2).

    Each g is moved to the octahedral chart whose point at infinity
    carries the largest |h_0| / max|h|, where h = M_c g and h_0 = g(a_c)
    is the value there.  Four roots cannot crowd all six chart
    infinities, so h_0 is never small and every root's affine coordinate
    x = s'/t' stays bounded.  The roots of the monic h(x, 1) / h_0 come
    from one Newton-refined quadratic factorization over all rows
    (:func:`_factor_roots`).  The rows it does not vouch for, such as a
    fourfold root, a near-flex or a line far from bitangent, go to the
    eigenvalues of their companion matrices, a backward-stable root
    finder while the leading coefficient is not small.  The roots map
    back to x a_c + b_c.  Since no root lies near the chart's infinity, a
    double root at or near [1 : 0] comes out as two close roots, like any
    other double root, not as one finite root and one that overflows a
    fixed affine chart.
    """
    h = np.einsum("cjk,lk->lcj", _CHART_M, g)
    chart = np.argmax(np.abs(h[:, :, 0]) / np.abs(h).max(axis=2), axis=1)
    h = h[np.arange(len(g)), chart]
    h = h / h[:, :1]
    with np.errstate(all="ignore"):
        x, ok = _factor_roots(h)
    bad = ~ok
    if bad.any():
        companion = np.zeros((bad.sum(), 4, 4), dtype=complex)
        companion[:, 0] = -h[bad, 1:]
        companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1
        try:
            x[bad] = eigvals(companion)
        except LinAlgError as exc:
            raise ThetaQuarticError(f"bitangency certificate: the root solve of a line restriction failed ({exc})") from exc
    roots = x[..., None] * _CHART_INF[chart, None] + _CHART_CENTRE[chart, None]
    return roots / _norm(roots)


def _chord(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def _canonical(x: np.ndarray) -> np.ndarray:
    """Unit plane points (L, 2, 3) with a fixed phase and order.

    The largest-modulus entry (first such index) is made real positive;
    the two points of a line are put in ascending lexicographic order of
    the (Re, Im) pairs of their coordinates rounded to 1e-9, so that
    coordinates equal up to rounding noise (zeros on a coordinate line)
    do not decide the order.
    """
    x = x / _norm(x)
    rows = np.arange(len(x))
    pivot = x[rows[:, None], [0, 1], np.argmax(np.abs(x), axis=-1)][..., None]
    x = x * (pivot.conj() / np.abs(pivot))
    keys = np.round(x.view(float), 9)
    diff = keys[:, 0] - keys[:, 1]
    first = diff[rows, np.argmax(diff != 0, axis=1)]
    return np.where((first > 0)[:, None, None], x[:, ::-1], x)


def _certify(curve: QuarticCurve, covectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Root-clustering certificates for a stack of L line covectors (L may be 0), in one array pass.

    Returns read-only arrays (is_bitangent, residual, contacts, near_flex):
    boolean and float of length L, and contacts of shape (L, 2, 3), the
    two canonical contact points of each line (see :func:`bitangency_check`).
    """
    g, p, q = _restrictions(curve, covectors)
    pts = _sphere_roots(g)

    # closest pair first (chordal metric, first minimum), the remaining two are forced
    u, v = pts[:, _PAIRS[:, 0]], pts[:, _PAIRS[:, 1]]
    chords = _chord(u, v)
    best = np.argmin(chords, axis=1)
    rows = np.arange(len(g))[:, None]
    pick = np.stack([best, 5 - best], axis=1)
    radii = chords[rows, pick]
    u, v = u[rows, pick], v[rows, pick]

    # cluster centres: phase-align each pair, then average
    ip = np.sum(u.conj() * v, axis=-1, keepdims=True)
    aligned = np.abs(ip) > 1e-14
    v = v * np.where(aligned, ip.conj() / np.where(aligned, np.abs(ip), 1), 1)
    centers = (u + v) / _norm(u + v)

    # squared pair form: (s1*t - t1*s)^2 (s2*t - t2*s)^2, coefficients in t
    s0, t0 = centers[..., 0], centers[..., 1]
    square = np.stack([t0 * t0, -2 * s0 * t0, s0 * s0, 0 * s0, 0 * s0], axis=-1)
    model = _poly_mul(square[:, 0], square[:, 1])
    amp = np.sum(model.conj() * g, axis=1, keepdims=True) / np.sum(model.conj() * model, axis=1, keepdims=True)
    residual = (_norm(g - amp * model) / _norm(g))[:, 0]

    separation = _chord(centers[:, 0], centers[:, 1])
    is_bitangent = residual < BITANGENCY_TOL
    near_flex = is_bitangent & (separation <= 10 * np.maximum(radii.max(axis=1), 1e-300))
    contacts = _canonical(s0[..., None] * p[:, None, :] + t0[..., None] * q[:, None, :])
    for arr in (is_bitangent, residual, contacts, near_flex):
        arr.setflags(write=False)
    return is_bitangent, residual, contacts, near_flex


def bitangency_check(curve: QuarticCurve, line: ProjLine) -> BitangencyReport:
    """Root-clustering bitangency certificate.

    The line is bitangent iff the four restriction roots pair into two
    double roots: the squared pair form must reproduce the restriction
    with relative residual below :data:`BITANGENCY_TOL`, the one threshold
    every caller certifies against.  Contact points are the pair
    centers mapped back to the plane, in canonical phase and order.
    ``near_flex`` flags the degenerate case where the two double roots
    themselves (nearly) collide, i.e. a hyperflex-like contact.
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
