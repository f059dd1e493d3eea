"""Independent oracles for the test suite.

These deliberately avoid the library's code paths: the raw theta sums
never reduce characteristics, the cube sum keeps the box truncation
the ellipsoid engine replaced, the genus-1 series is one-dimensional,
and the Aronhold recount scans all C(28,7) subsets with a lookup table
instead of backtracking.
"""

import itertools
import math

import numpy as np


def raw_theta(mp, mpp, tau, z, radius=8):
    """Direct lattice sum at an arbitrary integer characteristic."""
    total = 0.0 + 0.0j
    mp = np.asarray(mp, dtype=float)
    mpp = np.asarray(mpp, dtype=float)
    z = np.asarray(z, dtype=complex)
    for n in itertools.product(range(-radius, radius + 1), repeat=3):
        p = np.array(n, dtype=float) + mp / 2
        total += np.exp(1j * np.pi * (p @ tau @ p + 2 * p @ (z + mpp / 2)))
    return total


def raw_grad(mp, mpp, tau, radius=8):
    """Direct termwise-differentiated lattice sum at z = 0."""
    total = np.zeros(3, dtype=complex)
    mp = np.asarray(mp, dtype=float)
    mpp = np.asarray(mpp, dtype=float)
    for n in itertools.product(range(-radius, radius + 1), repeat=3):
        p = np.array(n, dtype=float) + mp / 2
        total += 2j * np.pi * p * np.exp(1j * np.pi * (p @ tau @ p + 2 * p @ (mpp / 2)))
    return total


def theta_genus1(a, b, tau1, z1, radius=60):
    """One-dimensional theta series with characteristic (a, b)."""
    n = np.arange(-radius, radius + 1)
    p = n + a / 2
    return np.exp(1j * np.pi * (p * p * tau1 + 2 * p * (z1 + b / 2))).sum()


def fd_gradient(func, step=1e-5):
    """Central finite differences of a C^3 -> C function at the origin."""
    out = np.zeros(3, dtype=complex)
    for axis in range(3):
        dz = np.zeros(3)
        dz[axis] = step
        out[axis] = (func(dz) - func(-dz)) / (2 * step)
    return out


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


def cube_series(mp, mpp, tau, tail=1e-15):
    """Theta constant and z-gradient at 0 from the cube-truncated series.

    The summation rule the package used before its ellipsoid engine: all
    p = n + m'/2 with n in the box of radius
    ceil(|m'/2|_inf + sqrt(-ln(tail) / (pi lam_min))), lam_min the smallest
    eigenvalue of Im(tau).
    """
    tau = np.asarray(tau)
    lam_min = np.linalg.eigvalsh(tau.imag).min()
    radius = math.ceil(max(mp) / 2 + math.sqrt(-math.log(tail) / (math.pi * lam_min)))
    r = np.arange(-radius, radius + 1)
    p = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3) + np.asarray(mp) / 2
    terms = np.exp(1j * np.pi * (np.einsum("ni,ij,nj->n", p, tau, p) + p @ np.asarray(mpp)))
    return terms.sum(), 2j * np.pi * p.T @ terms
