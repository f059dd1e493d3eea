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
    complete_4tuple,
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
    addition_formula_residual,
    grad_theta0,
    jacobian_det,
    quasi_periodicity_residual,
    random_tau,
    tau_from_json,
    tau_to_json,
    theta,
    theta_const,
)
from .verify import (
    BitangencyReport,
    bitangency_check,
    bitangency_summary,
    random_admissible_tau,
    restrict_to_line,
)
from .weber import (
    AronholdFrame,
    ProjLine,
    QuarticCurve,
    WeberEntry,
    all_bitangents,
    aronhold_coeffs_dets,
    frame_matrix,
    jacobi_ratio,
    riemann_quartic,
    solve_k,
    solve_lambda,
    weber_coefficients,
    weber_symbolic,
    xi_forms,
)

__version__ = "0.1.0"
