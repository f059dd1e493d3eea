import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from thetaquartic import AronholdSystem, Characteristic, PeriodMatrix, even_forms, random_admissible_tau, theta
from thetaquartic.invariants import cube_sum

from oracles import theta_genus1

#: the alternative Aronhold system whose seven forms sum to the origin form
ORIGIN_SUM_SYSTEM = AronholdSystem((
    Characteristic((1, 1, 1), (1, 1, 1)),
    Characteristic((1, 1, 0), (1, 0, 0)),
    Characteristic((1, 0, 1), (0, 0, 1)),
    Characteristic((1, 0, 0), (1, 1, 0)),
    Characteristic((0, 1, 0), (0, 1, 1)),
    Characteristic((0, 0, 1), (1, 0, 1)),
    Characteristic((0, 1, 1), (0, 1, 0)),
))


def xor_char(*chars) -> Characteristic:
    """The sum of characteristics, reduced entrywise mod 2."""
    return Characteristic(
        tuple(sum(c.mp[i] for c in chars) % 2 for i in range(3)),
        tuple(sum(c.mpp[i] for c in chars) % 2 for i in range(3)),
    )


def near_singular_tau(rng, eps) -> np.ndarray:
    """0.1 + i Q diag(eps, 1, 2) Q^T, with Q from the QR factorization of a standard normal draw."""
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return 0.1 + 1j * q @ np.diag([eps, 1, 2]) @ q.T


def genus1_factorization_residual(forms) -> float:
    """Worst relative gap, at a diagonal tau, between theta and its product of genus-1 series.

    Theta at ``forms`` and a z off 0 is the direct sum ``invariants.cube_sum``; the 36 even
    constants at z = 0 are the engine's.
    """
    tau = PeriodMatrix(np.diag([0.1 + 0.9j, -0.2 + 1.1j, 0.05 + 1.3j]))
    z = np.array([0.1 + 0.05j, -0.2 + 0.02j, 0.3 - 0.1j])
    pairs = [(m, z, cube_sum(m.mp, m.mpp, tau.tau, z)[0]) for m in forms]
    pairs += [(m, np.zeros(3), theta(m, tau)) for m in even_forms()]
    worst = 0.0
    for m, at, full in pairs:
        product = np.prod([theta_genus1(m.mp[j], m.mpp[j], tau.tau[j, j], at[j]) for j in range(3)])
        worst = max(worst, abs(full - product) / max(abs(full), abs(product), 1e-6))
    return worst


@pytest.fixture(scope="session")
def tau_seed1() -> PeriodMatrix:
    return random_admissible_tau(1)


@pytest.fixture(scope="session")
def tau_seed2() -> PeriodMatrix:
    return random_admissible_tau(2)


@pytest.fixture(scope="session")
def tau_identity() -> PeriodMatrix:
    return PeriodMatrix(1j * np.eye(3))
