import numpy as np
import pytest

from thetaquartic.charalgebra import Characteristic
from thetaquartic.errors import (
    DegenerateCurveError,
    InvalidTauError,
    SpecialLocusError,
    ThetaQuarticError,
)
from thetaquartic.verify import (
    BitangencyReport,
    bitangency_check,
    bitangency_summary,
    random_admissible_tau,
    restrict_to_line,
    special_locus_scan,
    validate_tau,
)
from thetaquartic.weber import (
    MONOMIALS,
    ProjLine,
    QuarticCurve,
    all_bitangents,
    require_generic,
    riemann_quartic,
    weber_coefficients,
)
from thetaquartic.charalgebra import REFERENCE_SYSTEM


def _curve(monomial_coeffs: dict) -> QuarticCurve:
    return QuarticCurve(tuple(monomial_coeffs.get(e, 0) for e in MONOMIALS))


X1_FOURTH = _curve({(4, 0, 0): 1})

# (X1 X2 - X3^2)^2 = X1^2 X2^2 - 2 X1 X2 X3^2 + X3^4
DOUBLE_CONIC = _curve({(2, 2, 0): 1, (1, 1, 2): -2, (0, 0, 4): 1})


def test_validate_tau_examples():
    assert validate_tau(1j * np.eye(3)).lam_min == 1.0
    with pytest.raises(InvalidTauError, match="positive definite"):
        validate_tau(np.diag([1j, 1j, -1j]))
    nearly = 1j * np.eye(3) + 0j
    nearly[1, 0] = 1e-13
    pm = validate_tau(nearly)
    assert np.abs(pm.tau - pm.tau.T).max() == 0


def test_special_locus_identity_tau(tau_identity):
    vanishing = special_locus_scan(tau_identity)
    assert len(vanishing) == 9
    assert Characteristic((1, 1, 0), (1, 1, 0)) in vanishing
    assert all(m.parity() == 0 for m in vanishing)


def test_special_locus_generic_empty(tau_seed1, tau_seed2):
    assert special_locus_scan(tau_seed1) == []
    assert special_locus_scan(tau_seed2) == []


def test_gate_agrees_with_scan(tau_seed1, tau_identity):
    # single source of truth: the pipeline admits iff the scan is empty
    require_generic(tau_seed1)
    with pytest.raises(SpecialLocusError) as info:
        require_generic(tau_identity)
    assert list(info.value.vanishing) == special_locus_scan(tau_identity)


def test_random_admissible_tau_deterministic():
    a = random_admissible_tau(11)
    b = random_admissible_tau(11)
    assert np.array_equal(a.tau, b.tau)
    assert special_locus_scan(a) == []


def test_restrict_pure_power():
    coeffs = restrict_to_line(X1_FOURTH, ProjLine((0, 1, 0)))
    # the restriction of X1^4 to X2 = 0 is a nonzero 4th power of a
    # linear form: (s p1 + t q1)^4
    assert np.abs(coeffs).max() > 0.1
    roots_poly = np.roots(coeffs[::-1]) if abs(coeffs[4]) > 1e-12 else None
    if roots_poly is not None:
        assert np.abs(roots_poly - roots_poly.mean()).max() < 1e-6


def test_restrict_scale_invariance():
    line = ProjLine((0.3 + 0.1j, -1.2, 0.7j))
    a = restrict_to_line(X1_FOURTH, line)
    b = restrict_to_line(X1_FOURTH, ProjLine(tuple((2 - 1j) * line.vec)))
    # same line, so the same restriction up to overall scale
    amp = np.vdot(a, b) / np.vdot(a, a)
    assert np.linalg.norm(b - amp * a) < 1e-12 * np.linalg.norm(b)


def test_restrict_degenerate_line_on_curve():
    with pytest.raises(DegenerateCurveError):
        restrict_to_line(X1_FOURTH, ProjLine((1, 0, 0)))


def test_double_conic_every_line_bitangent():
    rng = np.random.default_rng(8)
    for _ in range(5):
        line = ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        report = bitangency_check(DOUBLE_CONIC, line)
        assert report.is_bitangent
        assert report.residual < 1e-10


def test_random_line_not_bitangent(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    rng = np.random.default_rng(9)
    for _ in range(5):
        line = ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        report = bitangency_check(quartic, line)
        assert not report.is_bitangent
        assert report.residual > 1e-3


def test_bitangency_scale_invariance(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    line = ProjLine((1, 0, 0))
    r1 = bitangency_check(quartic, line).residual
    scaled_curve = QuarticCurve(tuple((3 - 4j) * c for c in quartic.coeffs))
    scaled_line = ProjLine(tuple((0.01j - 2) * x for x in line.vec))
    r2 = bitangency_check(scaled_curve, scaled_line).residual
    assert abs(r1 - r2) < 1e-12


def test_bitangent_contacts_on_curve_and_line(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    scale = max(abs(c) for c in quartic.coeffs)
    for q, line in lines[:9]:
        report = bitangency_check(quartic, line)
        assert report.is_bitangent
        for x in report.contact_points:
            assert abs(quartic(x)) < 1e-7 * scale
            assert abs(line.vec @ x) < 1e-7 * np.linalg.norm(line.vec)


def test_double_root_separation_or_flag(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    for q, line in all_bitangents(REFERENCE_SYSTEM, tau_seed1):
        report = bitangency_check(quartic, line)
        assert report.is_bitangent
        # the two contact points are distinct unless flagged near-flex
        if not report.near_flex:
            u, v = report.contact_points
            assert abs(np.vdot(u, v)) < 1 - 1e-10


def test_bitangency_summary(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    lines = all_bitangents(REFERENCE_SYSTEM, tau_seed1)
    reports, summary = bitangency_summary(quartic, lines)
    assert summary["pass"] == 28 and summary["fail"] == 0
    assert len(reports) == 28
    assert set(reports[0]) == {"q", "is_bitangent", "residual", "contacts"}


def test_report_json_structure(tau_seed1):
    frame = weber_coefficients(REFERENCE_SYSTEM, tau_seed1)
    quartic = riemann_quartic(frame.xi)
    report = bitangency_check(quartic, ProjLine((1, 0, 0)))
    obj = report.to_json(REFERENCE_SYSTEM.forms[0].characteristic)
    assert obj["is_bitangent"] is True
    assert len(obj["contacts"]) == 2
    assert all(len(pt) == 3 for pt in obj["contacts"])


def test_random_admissible_tau_exhaustion():
    with pytest.raises(ThetaQuarticError, match="seed"):
        random_admissible_tau(3, max_tries=0)
