"""The pipeline's entry point, :func:`reconstruct`, and independent verification of its claims.

The bitangency certificate is deliberately oblivious to how a line was
produced.  A line is bitangent exactly when the quartic restricted to
it is a square, and the two roots of the square root are the contact
points.  So the certificate restricts the quartic to the line, fits a
square to the restriction by least squares, and tests whether the
fitted square reproduces the restriction.  The fit also yields the
contact points for the report.

The certificate has one entry, :func:`bitangency_summary`: one batched
pass over a stack of line covectors, an (L, 3) array such as
:func:`thetaquartic.weber.all_bitangents` returns, which it checks first.
:func:`reconstruct` calls it on the 28 lines, and :func:`bitangency_check`
on one.  Each line's spanning points p, q are LAPACK's SVD basis in
closed form (:func:`_spanning_points`).  The curve, scaled to unit largest
coefficient, is a 6x6 matrix C on the six quadratic monomials X_i X_j,
each of its 15 coefficients on the one entry whose row and column
multiply to its monomial.  With Q the coefficients of the six quadratics
(s p_i + t q_i)(s p_j + t q_j), each restriction g(s, t) =
F(s p + t q) is the anti-diagonal sums of Q^T C Q.  Sampling F at five
roots of unity and taking an inverse DFT mixes all 15 monomials into
every sample and certified fewer digits (mean 13.55 against 13.58 on the
199 of 200 random period matrices that certify 28/28).  Each restriction
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
numpy is called at its C entry points, as :mod:`~thetaquartic.thetaeval` says.
"""

from __future__ import annotations

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

#: contact point entries equal to this many decimals (relative to the largest, for the phase) are ties
CANONICAL_DIGITS = 9

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

#: the six quadratic monomials X_i X_j, i <= j: 00, 01, 02, 11, 12, 22; _PAIRS[i, j] is the index of X_i X_j
_PAIR_I, _PAIR_J = np.triu_indices(3)
_PAIRS = np.zeros((3, 3), dtype=int)
_PAIRS[_PAIR_I, _PAIR_J] = _PAIRS[_PAIR_J, _PAIR_I] = np.arange(6)
#: monomial m = X_i X_j X_k X_l, i <= j <= k <= l, is entry (_ROW[m], _COL[m]) = ((i, j), (k, l)) of C
_VARS = np.array([np.repeat([0, 1, 2], e) for e in MONOMIALS])  # row m: i, j, k, l
_ROW, _COL = _PAIRS[_VARS[:, ::2], _VARS[:, 1::2]].T
#: e_1, e_2 as the (2, 1, 3) stack of _spanning_points, and the machine epsilon that near_flex floors residuals at
_E12, _EPS = np.eye(3)[1:, None], np.finfo(float).eps
_E12.setflags(write=False)


def _spanning_points(covectors) -> np.ndarray:
    """LAPACK's SVD null-space basis p, q (2, L, 3) of each row c of a covector stack (L, 3), row by row.

    Columns 1 and 2 of the reflector H = I - tau v v^H, H conj(c) = beta e_0, of its LQ step (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 19.1); each row first scaled by a power of two, which changes no bit.
    """
    parts = np.ascontiguousarray(covectors, dtype=complex).reshape(-1, 3).view(float)
    a = np.ldexp(parts, -np.frexp(np.maximum.reduce(np.abs(parts), axis=1, keepdims=True))[1]).view(complex).conj()
    a0 = a[:, :1]
    beta = -np.copysign(wb.norm(a, axis=-1, keepdims=True), a0.real)
    v = a / (a0 - beta)
    v[:, 0] = 1
    return _E12 - (beta - a0) / beta * v * v[:, 1:].T.conj()[..., None]  # e_j - tau conj(v_j) v


def _restrictions(curve: QuarticCurve, covectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict the curve, scaled to unit largest coefficient, to a stack of line covectors (L, 3).

    Returns (g, p, q): p[l], q[l] are the orthonormal spanning points of
    line l (:func:`_spanning_points`) and g[l, k] is the coefficient of
    s^(4-k) t^k in F(s p[l] + t q[l]), the anti-diagonal sum u + v = k of
    Q^T C Q (see the module docstring).  Raises :class:`DegenerateCurveError`
    if any restriction vanishes, i.e. a line is a component of the curve.
    """
    pq = _spanning_points(covectors)
    # quad[l, a, u]: the coefficient of s^(2-u) t^u in (s p_i + t q_i)(s p_j + t q_j), pair a = (i, j)
    (pi, qi), (pj, qj) = pq[..., _PAIR_I], pq[..., _PAIR_J]
    quad = np.concatenate(((pi * pj)[..., None], (pi * qj + qi * pj)[..., None], (qi * qj)[..., None]), axis=-1)
    c = np.zeros((6, 6), dtype=complex)
    c[_ROW, _COL] = curve.coeffs / np.maximum.reduce(np.abs(curve.coeffs))
    # F(s p + t q) = sum_ab c[a, b] quad_a quad_b; stacked, not 2-D, products keep rows batch-independent
    form = quad.transpose(0, 2, 1) @ (c @ quad)
    f = form.reshape(-1, 9).T  # f[3 u + v] = form[:, u, v]
    g = np.concatenate([col[:, None] for col in (f[0], f[1] + f[3], f[2] + f[4] + f[6], f[5] + f[7], f[8])], 1)
    if np.logical_or.reduce(np.maximum.reduce(np.abs(g), axis=1) < RESTRICTION_ZERO_TOL):
        raise DegenerateCurveError("the line lies on the curve; restriction is zero")
    return g, pq[0], pq[1]


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


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the roots of x^2 + b x + c: the larger-modulus one without cancellation, the
    # other as c over it, and 0 where both are 0 (x^2 itself)
    d = np.sqrt(b * b - 4 * c)
    big = -(b + np.where((b.conj() * d).real >= 0, d, -d)) / 2
    return big, np.divide(c, big, out=np.zeros(big.shape, dtype=complex), where=big != 0)


def _sphere_centres(g: np.ndarray) -> np.ndarray:
    """The two roots of a least-squares square root of each binary quartic, as unit vectors [s : t] (L, 2, 2).

    Each g is moved to the octahedral chart whose point at infinity
    carries the largest |h_0| / max|h|, where h = M_c g and h_0 = g(a_c)
    is the value there.  Four roots cannot crowd all six chart
    infinities, so h_0 is never small and the monic h(x, 1) / h_0 has
    bounded roots.  Its square root s = x^2 + a x + b is fitted to it:
    the start matches the top three coefficients, a = h_1/2 and
    b = (h_2 - a^2)/2, and one Gauss-Newton step on all four equations
    (2a - h_1, a^2 + 2b - h_2, 2ab - h_3, b^2 - h_4) follows; the first
    is exactly 0 at the start.  Their Jacobian has the columns
    (2, 2a, 2b, 0) and (0, 2, 2a, 2b), which are never parallel, so the
    2x2 normal equations are never singular.
    The roots of s map back to x a_c + b_c.  Since neither lies near the
    chart's infinity, a double root at or near [1 : 0] is an ordinary
    root of s, like any other.
    """
    h = np.einsum("cjk,lk->lcj", _CHART_M, g)
    size = np.abs(h)
    top = np.maximum(np.maximum(size[:, :, 0], size[:, :, 1]), np.maximum(size[:, :, 2], size[:, :, 3]))
    chart = (size[:, :, 0] / np.maximum(top, size[:, :, 4])).argmax(axis=1)
    h = h[np.arange(len(g)), chart]
    h1, h2, h3, h4 = (h[:, 1:] / h[:, :1]).T
    a = h1 / 2
    aa = a * a
    b = (h2 - aa) / 2
    e1, e2, e3 = aa + 2 * b - h2, 2 * a * b - h3, b * b - h4
    # with J the Jacobian and e the residuals (e0 = 0): J^H e = 2 (u, v) and J^H J = 4 [[n, m], [m*, n]]
    ac, bc = a.conj(), b.conj()
    u, v = ac * e1 + bc * e2, e1 + ac * e2 + bc * e3
    n, m = 1 + (ac * a).real + (bc * b).real, ac + bc * a
    mc = m.conj()
    det = 2 * (n * n - (mc * m).real)
    a, b = a - (n * u - m * v) / det, b - (n * v - mc * u) / det
    x = np.concatenate([root[:, None] for root in _quadratic_roots(a, b)], 1)
    centres = x[..., None] * _CHART_INF[chart, None] + _CHART_CENTRE[chart, None]
    return centres / wb.norm(centres, axis=-1, keepdims=True)


def _canonical(x: np.ndarray) -> np.ndarray:
    """Unit plane points (L, 2, 3), unit already on input, with a fixed phase and order.

    The first entry whose modulus is within 10^-CANONICAL_DIGITS
    (relative) of the largest is made real positive, and the two points
    of a line are put in ascending lexicographic order of the (Re, Im)
    pairs of their coordinates rounded to CANONICAL_DIGITS decimals:
    entries equal up to rounding noise (two of equal modulus, zeros on a
    coordinate line) decide neither the phase nor the order.
    """
    rows = np.arange(len(x))
    size = np.abs(x)
    lead = (size >= (1 - 10.0 ** -CANONICAL_DIGITS) * np.maximum.reduce(size, axis=-1, keepdims=True)).argmax(axis=-1)
    pivot = x[rows[:, None], [0, 1], lead][..., None]
    x = x * (pivot.conj() / np.abs(pivot))
    keys = x.view(float).round(CANONICAL_DIGITS)
    diff = keys[:, 0] - keys[:, 1]
    first = diff[rows, (diff != 0).argmax(axis=1)]
    return np.where((first > 0)[:, None, None], x[:, ::-1], x)


def bitangency_summary(curve: QuarticCurve, labelled_lines) -> tuple[tuple, dict]:
    """Square-fit certificates of labelled lines against the curve, in one array pass.

    ``labelled_lines`` is (labels, covectors) as
    :func:`thetaquartic.weber.all_bitangents` returns it: L labels and an
    (L, 3) stack of covectors (L may be 0).  This is the one place a
    stack is checked as a :class:`ProjLine` is
    (:func:`~thetaquartic.weber.line_covectors`): a row without 3 finite
    entries, not all zero, raises ValueError.  Returns (certs, summary).
    certs is the tuple of read-only arrays (is_bitangent, residual,
    contacts, near_flex), aligned with the covectors: row l holds the
    verdict of :func:`bitangency_check` at :data:`BITANGENCY_TOL`, the
    residual, the two canonical contact points (shape (2, 3)) and the
    near-flex flag of line l.  summary counts passes/failures and the
    worst residual (0.0 for no lines).
    """
    g, p, q = _restrictions(curve, wb.line_covectors(labelled_lines[1]))
    centers = _sphere_centres(g)

    # the square of the pair form (s1 t - t1 s)(s2 t - t2 s) = r0 s^2 + r1 s t + r2 t^2
    s0, t0 = centers[..., 0], centers[..., 1]
    st, ts = s0[:, 0] * t0[:, 1], t0[:, 0] * s0[:, 1]
    r0, r1, r2 = t0[:, 0] * t0[:, 1], -(st + ts), s0[:, 0] * s0[:, 1]
    model = np.concatenate([x[:, None] for x in (r0 * r0, 2 * r0 * r1, r1 * r1 + 2 * r0 * r2, 2 * r1 * r2, r2 * r2)], 1)
    amp = np.add.reduce(model.conj() * g, 1, keepdims=True) / np.add.reduce(model.conj() * model, 1, keepdims=True)
    residual = (wb.norm(g - amp * model, axis=-1, keepdims=True) / wb.norm(g, axis=-1, keepdims=True))[:, 0]

    # if g = amp (square + e), e splits each double root of the square by about
    # sqrt(|e|) / separation, and |e| is at least the rounding level eps of g however
    # small the residual reads; near-flex is a split of at least a tenth of the
    # separation, i.e. separation^2 <= 10 sqrt(max(residual, eps))
    separation = np.abs(st - ts)  # chordal, the centres being unit
    is_bitangent = residual < BITANGENCY_TOL
    near_flex = is_bitangent & (separation * separation <= 10 * np.sqrt(np.maximum(residual, _EPS)))
    contacts = _canonical(s0[..., None] * p[:, None, :] + t0[..., None] * q[:, None, :])
    for arr in (is_bitangent, residual, contacts, near_flex):
        arr.setflags(write=False)
    n_pass, worst = int(np.add.reduce(is_bitangent)), float(np.maximum.reduce(residual, initial=0.0))
    summary = {"pass": n_pass, "fail": len(residual) - n_pass, "max_residual": worst}
    return (is_bitangent, residual, contacts, near_flex), summary


def bitangency_check(curve: QuarticCurve, line: ProjLine) -> BitangencyReport:
    """Square-fit bitangency certificate of one line: row 0 of :func:`bitangency_summary` on the stack (line.c,).

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
    (ok, residual, contacts, flex), _ = bitangency_summary(curve, ((), line.c[None]))
    return BitangencyReport(line, bool(ok[0]), contacts[0], float(residual[0]), bool(flex[0]))


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
    ``riemann_quartic``, ``all_bitangents`` and the certificates of
    :func:`bitangency_summary`, so a refusal is the error of the first
    stage that refuses.  The certificate is the one check of the
    covectors ``all_bitangents`` returns.  Fewer than 28 certified lines
    is a result, not an error.
    """
    # each stage is looked up on its module at call time, the binding perfbench/tracing.py swaps
    frame = wb.weber_coefficients(system, tau)
    quartic = wb.riemann_quartic(frame.xi)
    labels, covectors = wb.all_bitangents(system, tau)
    certs, summary = bitangency_summary(quartic, (labels, covectors))
    return Reconstruction(frame, quartic, labels, covectors, certs, summary)
