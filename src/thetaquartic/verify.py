"""Independent numerical verification of the reconstruction's claims.

The bitangency certificate is deliberately oblivious to how a line was
produced: restrict the quartic to the line, find the four roots of the
resulting binary quartic on the Riemann sphere, pair them greedily by
chordal distance, and test whether the squared pair form reproduces the
restriction.  Root clustering (rather than resultant conditions) is
used because it also yields the two contact points for the report and
degrades gracefully near degenerate tangencies.

All entry points run one batched pass over a list of lines.  A stacked
SVD gives each line's spanning points p, q.  An exact binomial
contraction gives every restriction g(s, t) = F(s p + t q) of the curve
scaled to unit largest coefficient; sampling F at five roots of unity
and taking an inverse DFT is exact in exact arithmetic too, but mixes
all 15 monomials into every sample and certified fewer digits (mean
13.34 against 13.41 over 200 random period matrices).  Each restriction
is then moved to one of six charts of P^1, centred on the octahedron
points 0, oo, +-1, +-i, chosen so that the chart's point at infinity
is far from every root; a double root anywhere, [1 : 0] included, is
then an ordinary pair of close affine roots.  One batched eigenvalue
call on the 28 companion matrices gives the roots.  Pairing, residuals
and canonical contact points are array operations, and the result stays
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

from .errors import DegenerateCurveError, ThetaQuarticError
from .thetaeval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    random_tau,
    vanishing_even_characteristics,
)
from .weber import MONOMIALS, ProjLine, QuarticCurve

#: a line is certified bitangent when its root-clustering residual is below this
BITANGENCY_TOL = 1e-6

#: restriction coefficients below this (relative to the curve's scale)
#: mean the line lies on the curve
RESTRICTION_ZERO_TOL = 1e-12


def random_admissible_tau(
    seed: int, pol: TruncationPolicy = DEFAULT_POLICY, max_tries: int = 100
) -> PeriodMatrix:
    """Seeded random period matrix, rejection-sampled off the special locus."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        tau = PeriodMatrix(random_tau(rng))
        if not vanishing_even_characteristics(tau, pol):
            return tau
    raise ThetaQuarticError(
        f"no admissible period matrix found in {max_tries} draws (seed {seed})"
    )


@dataclass
class BitangencyReport:
    """Certificate that a line is (or is not) bitangent to a quartic."""

    line: ProjLine
    is_bitangent: bool
    contact_points: tuple
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


def _restrictions(curve: QuarticCurve, lines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict the curve, scaled to unit largest coefficient, to a stack of lines.

    Returns (g, p, q): p[l], q[l] are unit spanning points of line l (the
    SVD null space of its covector) and g[l, k] is the coefficient of
    s^(4-k) t^k in F(s p[l] + t q[l]).  Raises
    :class:`DegenerateCurveError` if any restriction vanishes, i.e. a
    line is a component of the curve.
    """
    covectors = np.array([line.c for line in lines], dtype=complex).reshape(-1, 3)
    _, _, vh = np.linalg.svd(covectors[:, None, :])
    p, q = vh[:, 1].conj(), vh[:, 2].conj()
    coeffs = curve.vec / np.abs(curve.vec).max()

    # term[l, i, e, k] = C(e, k) p_i^(e-k) q_i^k: the binomial expansion of (s p_i + t q_i)^e
    powers = np.arange(5)
    term = _BINOM * (p[..., None] ** powers)[:, :, _E_MINUS_K] * (q[..., None] ** powers)[:, :, None, :]
    x1, x2, x3 = (term[:, i][:, _EXPONENTS[:, i]] for i in range(3))
    g = (coeffs[:, None] * _poly_mul(_poly_mul(x1, x2), x3)).sum(axis=1)
    if np.any(np.abs(g).max(axis=1) < RESTRICTION_ZERO_TOL):
        raise DegenerateCurveError("the line lies on the curve; restriction is zero")
    return g, p, q


def restrict_to_line(curve: QuarticCurve, line: ProjLine) -> np.ndarray:
    """Pull the quartic back to the line: a binary quartic in (s, t).

    The curve is first scaled to unit largest coefficient; (s, t) are
    coordinates on the SVD null-space basis of the line's covector.
    Raises :class:`DegenerateCurveError` when the restriction vanishes
    identically, i.e. the line is a component of the curve.
    """
    return _restrictions(curve, [line])[0][0]


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


def _sphere_roots(g: np.ndarray) -> np.ndarray:
    """Roots of each binary quartic as unit vectors [s : t], shape (L, 4, 2).

    Each g is moved to the octahedral chart whose point at infinity
    carries the largest |h_0| / max|h|, where h = M_c g and h_0 = g(a_c)
    is the value there.  Four roots cannot crowd all six chart
    infinities, so h_0 is never small and every root's affine coordinate
    x = s'/t' stays bounded.  The roots of the monic h(x, 1) / h_0 come
    from one batched eigenvalue call on the companion matrices, a
    backward-stable root finder while the leading coefficient is not
    small, and map back to x a_c + b_c.  Since no root lies near the
    chart's infinity, a double root at or near [1 : 0] comes out as two
    close roots, like any other double root, not as one finite root and
    one that overflows a fixed affine chart.
    """
    h = np.einsum("cjk,lk->lcj", _CHART_M, g)
    chart = np.argmax(np.abs(h[:, :, 0]) / np.abs(h).max(axis=2), axis=1)
    h = h[np.arange(len(g)), chart]
    companion = np.zeros((len(g), 4, 4), dtype=complex)
    companion[:, 0] = -h[:, 1:] / h[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1
    try:
        x = eigvals(companion)
    except LinAlgError as exc:
        raise ThetaQuarticError(f"bitangency certificate: the root solve of a line restriction failed ({exc})") from exc
    roots = x[..., None] * _CHART_INF[chart, None] + _CHART_CENTRE[chart, None]
    return roots / np.linalg.norm(roots, axis=2, keepdims=True)


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
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    pivot = np.take_along_axis(x, np.argmax(np.abs(x), axis=-1)[..., None], -1)
    x = x * (pivot.conj() / np.abs(pivot))
    keys = np.round(x.view(float), 9)
    diff = keys[:, 0] - keys[:, 1]
    first = np.take_along_axis(diff, np.argmax(diff != 0, axis=1)[:, None], 1)[:, 0]
    return np.where((first > 0)[:, None, None], x[:, ::-1], x)


def _certify(curve: QuarticCurve, lines) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Root-clustering certificates for a list of L lines (L may be 0), in one array pass.

    Returns (is_bitangent, residual, contacts, near_flex): boolean and
    float arrays of length L, and contacts of shape (L, 2, 3), the two
    canonical contact points of each line (see :func:`bitangency_check`).
    """
    g, p, q = _restrictions(curve, lines)
    pts = _sphere_roots(g)

    # closest pair first (chordal metric, first minimum), the remaining two are forced
    u, v = pts[:, _PAIRS[:, 0]], pts[:, _PAIRS[:, 1]]
    chords = _chord(u, v)
    best = np.argmin(chords, axis=1)
    pick = np.stack([best, 5 - best], axis=1)
    radii = np.take_along_axis(chords, pick, 1)
    u, v = (np.take_along_axis(w, pick[..., None], 1) for w in (u, v))

    # cluster centres: phase-align each pair, then average
    ip = np.sum(u.conj() * v, axis=-1, keepdims=True)
    aligned = np.abs(ip) > 1e-14
    v = v * np.where(aligned, ip.conj() / np.where(aligned, np.abs(ip), 1), 1)
    centers = (u + v) / np.linalg.norm(u + v, axis=-1, keepdims=True)

    # squared pair form: (s1*t - t1*s)^2 (s2*t - t2*s)^2, coefficients in t
    s0, t0 = centers[..., 0], centers[..., 1]
    square = np.stack([t0 * t0, -2 * s0 * t0, s0 * s0, 0 * s0, 0 * s0], axis=-1)
    model = _poly_mul(square[:, 0], square[:, 1])
    amp = np.sum(model.conj() * g, axis=1, keepdims=True) / np.sum(model.conj() * model, axis=1, keepdims=True)
    residual = np.linalg.norm(g - amp * model, axis=1) / np.linalg.norm(g, axis=1)

    separation = _chord(centers[:, 0], centers[:, 1])
    is_bitangent = residual < BITANGENCY_TOL
    near_flex = is_bitangent & (separation <= 10 * np.maximum(radii.max(axis=1), 1e-300))
    contacts = _canonical(s0[..., None] * p[:, None, :] + t0[..., None] * q[:, None, :])
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
    ok, residual, contacts, flex = _certify(curve, [line])
    return BitangencyReport(line, bool(ok[0]), tuple(contacts[0]), float(residual[0]), bool(flex[0]))


def bitangency_summary(curve: QuarticCurve, labelled_lines) -> tuple[tuple, dict]:
    """Check every labelled (odd form, line) pair against the curve in one pass.

    Returns (certs, summary).  certs is the tuple of arrays (is_bitangent,
    residual, contacts, near_flex) of the batched certificate, aligned
    with the input lines: row l holds the verdict of
    :func:`bitangency_check` at :data:`BITANGENCY_TOL`, the residual, the
    two canonical contact points (shape (2, 3)) and the near-flex flag of
    line l.  summary counts passes/failures and the worst residual (0.0
    for no lines).
    """
    certs = _certify(curve, [line for _, line in labelled_lines])
    ok, residual = certs[:2]
    n_pass = int(ok.sum())
    return certs, {"pass": n_pass, "fail": len(ok) - n_pass, "max_residual": float(residual.max(initial=0.0))}
