"""Independent oracles for the test suite.

These deliberately avoid the library's code paths: the genus-1 series
is one-dimensional, the restriction is expanded in mpmath, the roots of
a binary quartic come from one companion matrix in a fixed chart, and
the Aronhold recount scans all C(28,7) subsets with a lookup table
instead of backtracking.  The F2 helpers evaluate a quadratic form from
its definition on the symplectic space (F2^6, omega), not from the Arf
formula the package uses.  The direct lattice sum the theta tests
compare the engine with is not here: it is
:func:`thetaquartic.invariants.cube_sum`, which ``selftest`` runs too.
:func:`full_pass` is the exception: it is the engine's own lattice pass
at z = 0 without the parity shortcut, to pin that shortcut's bits.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from thetaquartic import thetaeval as te
from thetaquartic.weber import MONOMIALS


@dataclass(frozen=True)
class F2Vector:
    """A vector (lam, mu) in F2^3 x F2^3, as two bit tuples."""

    lam: tuple
    mu: tuple

    def __add__(self, other: "F2Vector") -> "F2Vector":
        return F2Vector(
            tuple((a + b) % 2 for a, b in zip(self.lam, other.lam)),
            tuple((a + b) % 2 for a, b in zip(self.mu, other.mu)),
        )


def all_vectors() -> list:
    """The 64 vectors of F2^6 in lexicographic (lam, mu) order."""
    return [F2Vector(b[:3], b[3:]) for b in itertools.product((0, 1), repeat=6)]


def symplectic_form(v: F2Vector, w: F2Vector) -> int:
    """omega(v, w) = lam_v.mu_w + mu_v.lam_w mod 2."""
    return sum(v.lam[i] * w.mu[i] + v.mu[i] * w.lam[i] for i in range(3)) % 2


def eval_form(q, w: F2Vector) -> int:
    """q(w) = lam.mu + lam.m' + m''.mu mod 2, for the form labelled by the reduced characteristic q."""
    return sum(w.lam[i] * w.mu[i] + w.lam[i] * q.mp[i] + q.mpp[i] * w.mu[i] for i in range(3)) % 2


def theta_genus1(a, b, tau1, z1, radius=60):
    """One-dimensional theta series with characteristic (a, b)."""
    n = np.arange(-radius, radius + 1)
    p = n + a / 2
    return np.exp(1j * np.pi * (p * p * tau1 + 2 * p * (z1 + b / 2))).sum()


def full_pass(tau):
    """The values (64,) and gradients (64, 3) of the engine's z = 0 pass, with every row exponentiated.

    The same ellipsoid, class sums and Re tau units as ``thetaeval._series``, with no mirroring.
    """
    b = np.rint(tau.tau.real / 2)
    k = te._ellipsoid(tau.chol / 2, te._radius2(tau, te.DEFAULT_POLICY))
    km = k.astype(np.intp) & 3
    p = k / 2
    q = (p @ (tau.tau - 2 * b)) * p
    terms = np.empty((4, len(p)), dtype=complex)
    np.exp(1j * np.pi * (q[:, 0] + q[:, 1] + q[:, 2]), out=terms[0])  # e(x) convention
    out = te._class_sums(km[:, 0] + 4 * km[:, 1] + 16 * km[:, 2], p, terms)
    if b.any():
        out *= te._UNITS[np.add.reduce((te._MP @ np.fmod(b, 4).astype(np.int8)) * te._MP, axis=1) & 3]
    return out[0], out[1:].T.copy()


def brute_force_aronhold_sets():
    """All 7-subsets of the odd forms whose triples are all azygetic.

    Forms are packed as 6-bit integers b0..b5 = (m'1,m'2,m'3,m''1,m''2,m''3);
    an odd triple is azygetic iff the XOR of the packed forms is even.
    Scans all C(28,7) = 1184040 subsets in vectorized chunks.
    """
    def parity(x):
        return bin((x & 7) & ((x >> 3) & 7)).count("1") & 1

    odd = [x for x in range(64) if parity(x) == 1]
    assert len(odd) == 28
    even_lut = np.array([1 - parity(x) for x in range(64)], dtype=bool)

    found = []
    combos = itertools.combinations(range(28), 7)
    chunk = 100000
    triples = list(itertools.combinations(range(7), 3))
    odd_arr = np.array(odd, dtype=np.uint8)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.uint8)
        forms = odd_arr[idx]
        ok = np.ones(len(block), dtype=bool)
        for i, j, k in triples:
            ok &= even_lut[forms[:, i] ^ forms[:, j] ^ forms[:, k]]
        for row in forms[ok]:
            found.append(frozenset(int(x) for x in row))
    return found


def pack_form(form) -> int:
    bits = form.mp + form.mpp
    return sum(b << i for i, b in enumerate(bits))


def eval_quartic(coeffs, x) -> complex:
    """F(x) for the quartic with ``coeffs`` in MONOMIALS order: a direct sum of monomials."""
    return complex(sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for c, e in zip(coeffs, MONOMIALS)))


def mp_restriction(coeffs, exponents, p, q, dps=40):
    """Coefficients of F(s p + t q) in s^(4-k) t^k, expanded in mpmath.

    Each monomial is multiplied out one linear factor (s p_i + t q_i) at a
    time at ``dps`` digits, with no binomial coefficients.
    """
    import mpmath

    with mpmath.workdps(dps):
        p = [mpmath.mpc(x) for x in p]
        q = [mpmath.mpc(x) for x in q]
        out = [mpmath.mpc(0)] * 5
        for c, e in zip(coeffs, exponents):
            poly = [mpmath.mpc(c)]
            for i in range(3):
                for _ in range(e[i]):
                    shifted = [mpmath.mpc(0)] + poly
                    poly = [a * p[i] for a in poly] + [mpmath.mpc(0)]
                    poly = [a + b * q[i] for a, b in zip(poly, shifted)]
            for k, x in enumerate(poly):
                out[k] += x
        return np.array([complex(x) for x in out])


def companion_roots(g):
    """Roots of one binary quartic g (coefficient k of s^(4-k) t^k) as four unit vectors [s : t].

    One ``np.linalg.eigvals`` call on one companion matrix, in the affine
    chart t = 1 when |g_0| >= |g_4| and s = 1 otherwise: no chart search
    and no factorization.
    """
    g = np.asarray(g, dtype=complex)
    flip = abs(g[0]) < abs(g[4])
    c = g[::-1] if flip else g
    companion = np.diag(np.ones(3, dtype=complex), -1)
    companion[0] = -c[1:] / c[0]
    x = np.linalg.eigvals(companion)
    one = np.ones(4, dtype=complex)
    pts = np.stack([one, x] if flip else [x, one], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
