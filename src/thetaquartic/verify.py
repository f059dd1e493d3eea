"""Independent numerical verification of the reconstruction's claims.

The bitangency certificate is deliberately oblivious to how a line was
produced: restrict the quartic to the line, find the four roots of the
resulting binary quartic on the Riemann sphere, pair them greedily by
chordal distance, and test whether the squared pair form reproduces the
restriction.  Root clustering (rather than resultant conditions) is
used because it also yields the two contact points for the report and
degrades gracefully near degenerate tangencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.linalg

from .charalgebra import Characteristic
from .errors import DegenerateCurveError, ThetaQuarticError
from .thetaeval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    random_tau,
    vanishing_even_characteristics,
)
from .weber import MONOMIALS, ProjLine, QuarticCurve, complex_to_json

DEFAULT_BITANGENCY_TOL = 1e-6

#: restriction coefficients below this (relative to the curve's scale)
#: mean the line lies on the curve
RESTRICTION_ZERO_TOL = 1e-12


def validate_tau(tau_raw) -> PeriodMatrix:
    """Symmetrize and validate a raw 3x3 matrix as a period matrix.

    Errors name the violated invariant (asymmetry beyond tolerance, or
    imaginary part not positive definite).
    """
    return PeriodMatrix(tau_raw)


def special_locus_scan(
    tau: PeriodMatrix, pol: TruncationPolicy = DEFAULT_POLICY
) -> list[Characteristic]:
    """Even characteristics with vanishing constants; empty iff the

    Weber pipeline will accept this tau (same tolerance, same scan).
    """
    return vanishing_even_characteristics(tau, pol)


def random_admissible_tau(
    seed: int, pol: TruncationPolicy = DEFAULT_POLICY, max_tries: int = 100
) -> PeriodMatrix:
    """Seeded random period matrix, rejection-sampled off the special locus."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        tau = PeriodMatrix(random_tau(rng))
        if not special_locus_scan(tau, pol):
            return tau
    raise ThetaQuarticError(
        f"no admissible period matrix found in {max_tries} draws (seed {seed})"
    )


# ---------------------------------------------------------------------------
# restriction of a quartic to a line

def _line_basis(line: ProjLine) -> tuple[np.ndarray, np.ndarray]:
    # unit-norm spanning points of {x : c.x = 0}, from the SVD null space
    c = line.vec.reshape(1, 3)
    _, _, vh = np.linalg.svd(c)
    return vh[1].conj(), vh[2].conj()


def _restrict(curve: QuarticCurve, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # coefficients g_k of g(s,t) = F(s*p + t*q) = sum_k g_k s^(4-k) t^k
    coeffs = np.zeros(5, dtype=complex)
    for c, e in zip(curve.coeffs, MONOMIALS):
        part = np.array([1.0 + 0j])
        for idx in range(3):
            deg = e[idx]
            if deg == 0:
                continue
            base = np.array(
                [math.comb(deg, k) * p[idx] ** (deg - k) * q[idx] ** k for k in range(deg + 1)],
                dtype=complex,
            )
            part = np.convolve(part, base)
        coeffs[: len(part)] += c * part
    return coeffs


def restrict_to_line(curve: QuarticCurve, line: ProjLine) -> np.ndarray:
    """Pull the quartic back to the line: a binary quartic in (s, t).

    Raises :class:`DegenerateCurveError` when the restriction vanishes
    identically, i.e. the line is a component of the curve.
    """
    p, q = _line_basis(line)
    coeffs = _restrict(curve, p, q)
    scale = max(abs(x) for x in curve.coeffs)
    if np.abs(coeffs).max() < RESTRICTION_ZERO_TOL * scale:
        raise DegenerateCurveError("the line lies on the curve; restriction is zero")
    return coeffs


def _sphere_roots(coeffs: np.ndarray) -> list[np.ndarray]:
    """Roots of the binary quartic as unit vectors [s : t].

    Uses the companion pencil det(t*B - s*A) = g(s, t) solved by QZ, so
    roots at or near infinity come out as homogeneous pairs with small
    beta instead of overflowing an affine chart (an affine-chart solve
    halves a double root that sits close to infinity).
    """
    g = coeffs / np.abs(coeffs).max()
    a = np.zeros((4, 4), dtype=complex)
    a[1, 0] = a[2, 1] = a[3, 2] = 1
    a[:, 3] = -g[:4]
    b = np.eye(4, dtype=complex)
    b[3, 3] = g[4]
    alpha, beta = scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    pts = []
    for al, be in zip(alpha, beta):
        v = np.array([be, al], dtype=complex)
        n = np.linalg.norm(v)
        pts.append(v / n if n > 0 else np.array([0.0, 1.0], dtype=complex))
    return pts


def _chord(u: np.ndarray, v: np.ndarray) -> float:
    return abs(u[0] * v[1] - u[1] * v[0])


def _pair_greedy(pts):
    # closest pair first (chordal metric), the remaining two are forced
    best = min(combinations(range(4), 2), key=lambda ij: _chord(pts[ij[0]], pts[ij[1]]))
    rest = tuple(x for x in range(4) if x not in best)
    return best, rest


def _cluster_center(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    ip = np.vdot(u, v)
    if abs(ip) > 1e-14:
        v = v * (ip / abs(ip))  # phase-align before averaging
    c = u + v
    n = np.linalg.norm(c)
    if n == 0:
        return u
    return c / n


@dataclass
class BitangencyReport:
    """Certificate that a line is (or is not) bitangent to a quartic."""

    line: ProjLine
    is_bitangent: bool
    contact_points: tuple
    residual: float
    near_flex: bool = False

    def to_json(self, q: Characteristic | None = None) -> dict:
        out = {}
        if q is not None:
            out["q"] = q.to_json()
        out.update(
            {
                "is_bitangent": bool(self.is_bitangent),
                "residual": float(self.residual),
                "contacts": [[complex_to_json(x) for x in pt] for pt in self.contact_points],
            }
        )
        return out


def bitangency_check(
    curve: QuarticCurve, line: ProjLine, tol: float = DEFAULT_BITANGENCY_TOL
) -> BitangencyReport:
    """Root-clustering bitangency certificate.

    The line is bitangent iff the four restriction roots pair into two
    double roots: the squared pair form must reproduce the restriction
    with relative residual below ``tol``.  Contact points are the pair
    centers mapped back to the plane.  ``near_flex`` flags the
    degenerate case where the two double roots themselves (nearly)
    collide, i.e. a hyperflex-like contact.
    """
    p, q = _line_basis(line)
    coeffs = _restrict(curve, p, q)
    scale = max(abs(x) for x in curve.coeffs)
    if np.abs(coeffs).max() < RESTRICTION_ZERO_TOL * scale:
        raise DegenerateCurveError("the line lies on the curve; restriction is zero")

    pts = _sphere_roots(coeffs)
    (i, j), (u, v) = _pair_greedy(pts)
    radii = (_chord(pts[i], pts[j]), _chord(pts[u], pts[v]))
    centers = (_cluster_center(pts[i], pts[j]), _cluster_center(pts[u], pts[v]))

    # squared pair form: (s1*t - t1*s)^2 (s2*t - t2*s)^2, coefficients in t
    def square_factor(c):
        s0, t0 = c
        return np.array([t0 * t0, -2 * s0 * t0, s0 * s0], dtype=complex)

    model = np.convolve(square_factor(centers[0]), square_factor(centers[1]))
    amp = np.vdot(model, coeffs) / np.vdot(model, model)
    residual = float(np.linalg.norm(coeffs - amp * model) / np.linalg.norm(coeffs))

    separation = _chord(centers[0], centers[1])
    is_bitangent = residual < tol
    near_flex = bool(is_bitangent and separation <= 10 * max(max(radii), 1e-300))

    contacts = []
    for s0, t0 in centers:
        x = s0 * p + t0 * q
        contacts.append(x / np.linalg.norm(x))
    return BitangencyReport(
        line=line,
        is_bitangent=is_bitangent,
        contact_points=tuple(contacts),
        residual=residual,
        near_flex=near_flex,
    )


def bitangency_summary(
    curve: QuarticCurve,
    labelled_lines,
    tol: float = DEFAULT_BITANGENCY_TOL,
) -> tuple[list, dict]:
    """Check every labelled line against the curve.

    Returns (reports, summary): reports is a list of per-line JSON
    objects, summary counts passes/failures and the worst residual.
    """
    labelled = list(labelled_lines)
    results = [bitangency_check(curve, line, tol) for _, line in labelled]
    reports = [rep.to_json(q.characteristic) for (q, _), rep in zip(labelled, results)]
    n_pass = sum(1 for r in results if r.is_bitangent)
    summary = {
        "pass": n_pass,
        "fail": len(results) - n_pass,
        "max_residual": max((r.residual for r in results), default=0.0),
    }
    return reports, summary
