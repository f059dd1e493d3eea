"""Bitangents of a genus-3 plane quartic from its period matrix.

Exact F2 characteristic combinatorics, numerical Riemann theta
evaluation, Weber's coefficient formula with the Riemann-model curve
reconstruction, and independent bitangency verification.
"""

from .charalgebra import (
    REFERENCE_SYSTEM,
    AronholdSystem,
    Characteristic,
    arf,
    char_sum,
    derived_forms,
    enumerate_aronhold,
    even_forms,
    form_sum,
    is_aronhold,
    is_azygetic_triple,
    odd_forms,
    reduce_characteristic,
)
from .errors import (
    DegenerateCurveError,
    InvalidTauError,
    SingularSystemError,
    SpecialLocusError,
    ThetaQuarticError,
    TruncationError,
)
from .thetaeval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    grad_theta0,
    random_tau,
    tau_from_json,
    tau_to_json,
    theta,
    theta_const,
)
from .verify import Reconstruction, random_admissible_tau, reconstruct
from .weber import (
    AronholdFrame,
    ProjLine,
    QuarticCurve,
    WeberEntry,
    aronhold_coeffs_dets,
    weber_symbolic,
)

__version__ = "0.1.0"
