import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import companion_roots, mp_restriction
from thetaquartic import verify
from thetaquartic.charalgebra import Characteristic, arf
from thetaquartic.errors import (
    DegenerateCurveError,
    InvalidTauError,
    SingularSystemError,
    SpecialLocusError,
    ThetaQuarticError,
)
from thetaquartic.verify import (
    BitangencyReport,
    Reconstruction,
    bitangency_check,
    bitangency_summary,
    random_admissible_tau,
    reconstruct,
)
from thetaquartic.thetaeval import PeriodMatrix, vanishing_even_characteristics
from thetaquartic.weber import (
    MONOMIALS,
    ProjLine,
    QuarticCurve,
    all_bitangents,
    line_covectors,
    require_generic,
    riemann_quartic,
    weber_coefficients,
)
from thetaquartic.charalgebra import REFERENCE_SYSTEM, enumerate_aronhold


def _restrict(curve: QuarticCurve, line: ProjLine) -> np.ndarray:
    # the binary quartic g(s, t) the certificate makes of one line: the curve scaled to unit
    # largest coefficient, on the SVD null-space basis of the covector
    return verify._restrictions(curve, [line.c])[0][0]


def _curve(monomial_coeffs: dict) -> QuarticCurve:
    return QuarticCurve(tuple(monomial_coeffs.get(e, 0) for e in MONOMIALS))


X1_FOURTH = _curve({(4, 0, 0): 1})

# (X1 X2 - X3^2)^2 = X1^2 X2^2 - 2 X1 X2 X3^2 + X3^4
DOUBLE_CONIC = _curve({(2, 2, 0): 1, (1, 1, 2): -2, (0, 0, 4): 1})


def test_validate_tau_examples():
    assert PeriodMatrix(1j * np.eye(3)).lam_min == 1.0
    with pytest.raises(InvalidTauError, match="positive definite"):
        PeriodMatrix(np.diag([1j, 1j, -1j]))
    nearly = 1j * np.eye(3) + 0j
    nearly[1, 0] = 1e-13
    pm = PeriodMatrix(nearly)
    assert np.abs(pm.tau - pm.tau.T).max() == 0


def test_special_locus_identity_tau(tau_identity):
    vanishing = vanishing_even_characteristics(tau_identity)
    assert len(vanishing) == 9
    assert Characteristic((1, 1, 0), (1, 1, 0)) in vanishing
    assert all(arf(m) == 0 for m in vanishing)


def test_special_locus_generic_empty(tau_seed1, tau_seed2):
    assert vanishing_even_characteristics(tau_seed1) == []
    assert vanishing_even_characteristics(tau_seed2) == []


def test_gate_agrees_with_scan(tau_seed1, tau_identity):
    # single source of truth: the pipeline admits iff the scan is empty
    require_generic(tau_seed1)
    with pytest.raises(SpecialLocusError) as info:
        require_generic(tau_identity)
    assert list(info.value.vanishing) == vanishing_even_characteristics(tau_identity)


def test_random_admissible_tau_deterministic():
    a = random_admissible_tau(11)
    b = random_admissible_tau(11)
    assert np.array_equal(a.tau, b.tau)
    assert vanishing_even_characteristics(a) == []


def test_restrict_pure_power():
    coeffs = _restrict(X1_FOURTH, ProjLine((0, 1, 0)))
    # the restriction of X1^4 to X2 = 0 is a nonzero 4th power of a
    # linear form: (s p1 + t q1)^4
    assert np.abs(coeffs).max() > 0.1
    roots_poly = np.roots(coeffs[::-1]) if abs(coeffs[4]) > 1e-12 else None
    if roots_poly is not None:
        assert np.abs(roots_poly - roots_poly.mean()).max() < 1e-6


def test_restrict_scale_invariance():
    line = ProjLine((0.3 + 0.1j, -1.2, 0.7j))
    a = _restrict(X1_FOURTH, line)
    b = _restrict(X1_FOURTH, ProjLine(tuple((2 - 1j) * line.vec)))
    # same line, so the same restriction up to overall scale
    amp = np.vdot(a, b) / np.vdot(a, a)
    assert np.linalg.norm(b - amp * a) < 1e-12 * np.linalg.norm(b)


def test_restrict_degenerate_line_on_curve():
    with pytest.raises(DegenerateCurveError):
        _restrict(X1_FOURTH, ProjLine((1, 0, 0)))


def test_double_conic_every_line_bitangent():
    rng = np.random.default_rng(8)
    for _ in range(5):
        line = ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        report = bitangency_check(DOUBLE_CONIC, line)
        assert report.is_bitangent
        assert report.residual < 1e-10


def test_random_line_not_bitangent(tau_seed1):
    quartic = reconstruct(tau_seed1).quartic
    rng = np.random.default_rng(9)
    for _ in range(5):
        line = ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        report = bitangency_check(quartic, line)
        assert not report.is_bitangent
        assert report.residual > 1e-3


def test_bitangency_scale_invariance(tau_seed1):
    quartic = reconstruct(tau_seed1).quartic
    line = ProjLine((1, 0, 0))
    r1 = bitangency_check(quartic, line).residual
    scaled_curve = QuarticCurve(tuple((3 - 4j) * c for c in quartic.coeffs))
    scaled_line = ProjLine(tuple((0.01j - 2) * x for x in line.vec))
    r2 = bitangency_check(scaled_curve, scaled_line).residual
    assert abs(r1 - r2) < 1e-12


def test_bitangent_contacts_on_curve_and_line(tau_seed1):
    run = reconstruct(tau_seed1)
    quartic, covectors = run.quartic, run.covectors
    scale = max(abs(c) for c in quartic.coeffs)
    for row in covectors[:9]:
        report = bitangency_check(quartic, ProjLine(row))
        assert report.is_bitangent
        for x in report.contact_points:
            assert abs(quartic(x)) < 1e-7 * scale
            assert abs(row @ x) < 1e-7 * np.linalg.norm(row)


def test_double_root_separation_or_flag(tau_seed1):
    run = reconstruct(tau_seed1)
    for row in run.covectors:
        report = bitangency_check(run.quartic, ProjLine(row))
        assert report.is_bitangent
        # the two contact points are distinct unless flagged near-flex
        if not report.near_flex:
            u, v = report.contact_points
            assert abs(np.vdot(u, v)) < 1 - 1e-10


def test_bitangency_summary(tau_seed1):
    run = reconstruct(tau_seed1)
    (ok, residual, contacts, flex), summary = run.certs, run.summary
    assert summary == {"pass": 28, "fail": 0, "max_residual": float(residual.max())}
    assert ok.shape == residual.shape == flex.shape == (28,) and contacts.shape == (28, 2, 3)
    assert ok.dtype == flex.dtype == bool and residual.dtype == float


def test_bitangency_summary_of_no_lines(tau_seed1):
    certs, summary = bitangency_summary(reconstruct(tau_seed1).quartic, ((), np.empty((0, 3), dtype=complex)))
    assert summary == {"pass": 0, "fail": 0, "max_residual": 0.0}
    assert [c.shape for c in certs] == [(0,), (0,), (0, 2, 3), (0,)]


def test_random_admissible_tau_exhaustion(monkeypatch):
    monkeypatch.setattr(verify, "MAX_TRIES", 0)
    with pytest.raises(ThetaQuarticError, match="seed"):
        random_admissible_tau(3)


def _chain(tau, system):
    # the four stage calls reconstruct makes, written out
    frame = weber_coefficients(system, tau)
    quartic = riemann_quartic(frame.xi)
    labels, covectors = all_bitangents(system, tau)
    return frame, quartic, labels, covectors, bitangency_summary(quartic, (labels, covectors))


@pytest.mark.parametrize("seed, index", [*((seed, None) for seed in range(1, 6)), (7, 5), (7, 287)])
def test_reconstruct_matches_the_chain(seed, index):
    tau = random_admissible_tau(seed)
    system = REFERENCE_SYSTEM if index is None else enumerate_aronhold()[index]
    run = reconstruct(tau, system)
    frame, quartic, labels, covectors, (certs, summary) = _chain(tau, system)
    assert run.frame.system == frame.system
    for field in ("a", "k", "lam", "xi"):
        assert getattr(run.frame, field).tobytes() == getattr(frame, field).tobytes(), field
    assert np.array(run.quartic.coeffs).tobytes() == np.array(quartic.coeffs).tobytes()
    assert run.labels == labels
    assert run.covectors.tobytes() == covectors.tobytes()
    assert [c.tobytes() for c in run.certs] == [c.tobytes() for c in certs]
    assert run.summary == summary


@pytest.mark.parametrize("index", [5, 287])
def test_reconstruct_refuses_as_the_chain(index):
    # at seed 3, system 5's xi solve and system 287's lambda solve refuse
    tau, system = random_admissible_tau(3), enumerate_aronhold()[index]
    with pytest.raises(SingularSystemError) as chained:
        _chain(tau, system)
    with pytest.raises(SingularSystemError) as refused:
        reconstruct(tau, system)
    assert type(refused.value) is type(chained.value) and str(refused.value) == str(chained.value)


def test_reconstruction_is_frozen(tau_seed1):
    run = reconstruct(tau_seed1)
    assert isinstance(run, Reconstruction) and run.covectors.shape == (28, 3)
    with pytest.raises(AttributeError):
        run.summary = {}
    with pytest.raises(ValueError, match="read-only"):
        run.covectors[0, 0] = 1


def _pipeline(seed):
    return reconstruct(random_admissible_tau(seed))


def _random_lines(seed, count):
    rng = np.random.default_rng(seed)
    return [ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_restriction_matches_mpmath_on_bitangents(seed):
    run = _pipeline(seed)
    _check_restrictions_against_mpmath(run.quartic, [ProjLine(row) for row in run.covectors])


@pytest.mark.parametrize("curve", [X1_FOURTH, DOUBLE_CONIC], ids=["x1_fourth", "double_conic"])
def test_restriction_matches_mpmath_on_special_curves(curve):
    _check_restrictions_against_mpmath(curve, _random_lines(12, 10))


def _check_restrictions_against_mpmath(curve, lines):
    # the kernel restricts the curve scaled to unit largest coefficient, in the
    # null-space basis of the covector's SVD
    coeffs = curve.vec / np.abs(curve.vec).max()
    for line in lines:
        _, _, vh = np.linalg.svd(line.vec.reshape(1, 3))
        want = mp_restriction(coeffs, MONOMIALS, vh[1].conj(), vh[2].conj())
        got = _restrict(curve, line)
        assert np.abs(got - want).max() < 1e-12 * np.abs(coeffs).sum()


def test_check_equals_summary_row():
    # row l of the batched certificate is the single-line certificate of line l, field by field
    run = _pipeline(1)
    ok, residual, contacts, flex = run.certs
    for l, row in enumerate(run.covectors):
        report = bitangency_check(run.quartic, ProjLine(row))
        assert (ok[l], residual[l], flex[l]) == (report.is_bitangent, report.residual, report.near_flex)
        assert np.array_equal(contacts[l], report.contact_points)


@pytest.mark.parametrize("position", [0, 13, 27])
def test_line_on_curve_anywhere_in_batch(position):
    lines = _random_lines(13, 27)
    lines.insert(position, ProjLine((1, 0, 0)))
    labelled = (REFERENCE_SYSTEM.forms * 4, np.array([line.c for line in lines]))
    with pytest.raises(DegenerateCurveError):
        bitangency_summary(X1_FOURTH, labelled)


def test_contacts_canonical_under_rescaling():
    run = _pipeline(1)
    quartic = run.quartic
    scaled_curve = QuarticCurve(tuple((3 - 4j) * c for c in quartic.coeffs))
    for row in run.covectors:
        line = ProjLine(row)
        scaled_line = ProjLine(tuple((0.01j - 2) * x for x in line.vec))
        a = bitangency_check(quartic, line).contact_points
        b = bitangency_check(scaled_curve, scaled_line).contact_points
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-12
        for x in a:
            pivot = x[np.argmax(np.abs(x))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-15


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_quartic_rejects_non_finite(bad):
    coeffs = [1.0] * 15
    coeffs[4] = bad
    with pytest.raises(ValueError, match="finite"):
        QuarticCurve(tuple(coeffs))


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_line_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ProjLine((1.0, bad, 0.5))


@pytest.mark.parametrize("row", [0, 13, 27])
@pytest.mark.parametrize("bad, message", [
    ((1.0, float("nan"), 0.5), "finite"), ((0, 0, 0), "zero covector"),
], ids=["non-finite", "zero"])
def test_covector_stack_checks_every_row(row, bad, message):
    # a stack of covectors is refused as one ProjLine of its bad row is
    rows = np.array([line.c for line in _random_lines(14, 28)])
    rows[row] = bad
    for build in (line_covectors, lambda rows: ProjLine(rows[row])):
        with pytest.raises(ValueError, match=message):
            build(rows)


def test_huge_coefficients_certified():
    run = _pipeline(1)
    huge = QuarticCurve(tuple(1e308 * c for c in run.quartic.coeffs))
    want = run.summary
    _, got = bitangency_summary(huge, (run.labels, run.covectors))
    assert got["pass"] == 28
    assert abs(got["max_residual"] - want["max_residual"]) < 1e-12


def test_eigensolver_failure_is_typed(monkeypatch):
    def failing_eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(verify, "eigvals", failing_eigvals)
    with pytest.raises(ThetaQuarticError, match="bitangency certificate"):
        bitangency_check(X1_FOURTH, ProjLine((0, 1, 0)))


def _product_curve(*forms) -> QuarticCurve:
    """The quartic that is the product of four linear forms (covectors)."""
    poly = {(0, 0, 0): 1}
    for f in forms:
        grown = {}
        for e, c in poly.items():
            for i in range(3):
                key = tuple(x + (j == i) for j, x in enumerate(e))
                grown[key] = grown.get(key, 0) + c * f[i]
        poly = grown
    return _curve(poly)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_double_root_near_infinity_stays_double(eps):
    # on the line's SVD basis p, q, the factor L1 = -eps p* + q* vanishes at
    # [s : t] = [1 : eps] and L2 = p* - c q* at [c : 1]
    line = ProjLine((0.3 + 0.1j, -1.2, 0.7j))
    _, _, vh = np.linalg.svd(line.vec.reshape(1, 3))
    p, q = vh[1].conj(), vh[2].conj()
    c = 0.3 + 0.7j
    l1, l2 = -eps * p.conj() + q.conj(), p.conj() - c * q.conj()
    curve = _product_curve(l1, l1, l2, l2)
    # g = (t - eps s)^2 (s - c t)^2 up to scale
    want = np.convolve(np.convolve([-eps, 1], [-eps, 1]), np.convolve([1, -c], [1, -c]))
    got = _restrict(curve, line)
    assert np.abs(got / got[2] - want / want[2]).max() < 1e-14
    report = bitangency_check(curve, line)
    assert report.is_bitangent and not report.near_flex
    assert report.residual < 1e-12
    for form in (l1, l2):
        assert min(abs(form @ x) for x in report.contact_points) < 1e-12


@pytest.mark.parametrize("g, centres", [
    ([0, 1, 0, -1, 0], [[0, 1], [1, 0], [1, 1], [-1, 1]]),  # s t (s - t)(s + t): 0, oo, 1, -1
    ([0, 1, 0, 1, 0], [[0, 1], [1, 0], [1j, 1], [-1j, 1]]),  # s t (s - it)(s + it): 0, oo, i, -i
])
def test_roots_on_chart_centres_to_roundoff(g, centres):
    roots = verify._sphere_roots(np.array([g], dtype=complex))[0]
    for w in np.array(centres) / np.linalg.norm(centres, axis=1, keepdims=True):
        assert np.abs(roots[:, 0] * w[1] - roots[:, 1] * w[0]).min() < 1e-15


@pytest.fixture
def eigvals_rows(monkeypatch):
    """The number of rows of each companion stack the certificate hands to ``eigvals``."""
    calls = []

    def counting_eigvals(a):
        calls.append(len(a))
        return np.linalg.eigvals(a)

    monkeypatch.setattr(verify, "eigvals", counting_eigvals)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_bitangents_need_no_eigenvalue_solve(seed, eigvals_rows):
    assert _pipeline(seed).summary["pass"] == 28
    assert eigvals_rows == []


def test_fourfold_root_falls_back_to_eigenvalues(eigvals_rows):
    # the restriction of X1^4 to X2 = 0 is a fourth power: the two quadratic factors coincide
    report = bitangency_check(X1_FOURTH, ProjLine((0, 1, 0)))
    assert eigvals_rows == [1]
    assert report.is_bitangent and report.near_flex


def test_only_unvouched_rows_fall_back(eigvals_rows):
    # a canonical system at seed 6 whose frame leaves lines uncertified: the rows the
    # factorization cannot vouch for go to one eigenvalue call, the others do not
    assert reconstruct(random_admissible_tau(6), enumerate_aronhold()[4]).summary["fail"] > 0
    assert len(eigvals_rows) == 1 and 0 < eigvals_rows[0] < 28


_PARTITIONS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _chord(u, v):
    return np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def _match_distance(want, got):
    """Largest chordal distance between two equal-sized sets of points of P^1, under the best matching."""
    orders = np.array(list(itertools.permutations(range(len(want)))))
    return _chord(want[None], got[orders]).max(axis=1).min()


def _pair_centres(roots):
    """The two double-root centres: the tightest partition into pairs, each pair phase-aligned and averaged."""
    pairs = min(_PARTITIONS, key=lambda part: max(_chord(roots[i], roots[j]) for i, j in part))
    centres = []
    for i, j in pairs:
        u, v = roots[i], roots[j]
        ip = np.vdot(u, v)
        centres.append(u + v * ip.conj() / abs(ip))
    return np.array(centres) / np.linalg.norm(centres, axis=1, keepdims=True)


def _check_roots_against_companion(curve, covectors, root_tol, centre_tol=None):
    g = verify._restrictions(curve, covectors)[0]
    for want, got in zip((companion_roots(row) for row in g), verify._sphere_roots(g)):
        assert _match_distance(want, got) <= root_tol
        if centre_tol is not None:
            assert _match_distance(_pair_centres(want), _pair_centres(got)) <= centre_tol


@pytest.mark.parametrize("seed", range(1, 11))
def test_bitangent_roots_match_companion_oracle(seed):
    # a double root is only sqrt(eps)-conditioned, each pair's centre is well conditioned
    run = _pipeline(seed)
    _check_roots_against_companion(run.quartic, run.covectors, root_tol=1e-7, centre_tol=1e-12)


def test_random_line_roots_match_companion_oracle():
    lines = np.array([line.c for line in _random_lines(12, 10)])
    _check_roots_against_companion(_pipeline(1).quartic, lines, root_tol=1e-12)
    _check_roots_against_companion(DOUBLE_CONIC, lines, root_tol=1e-7, centre_tol=1e-12)


def test_residuals_of_the_reference_system():
    # README "Numerical behavior" quotes these figures: median 2.3e-14 and one run above 1e-10
    worst = []
    for seed in range(1, 101):
        summary = _pipeline(seed).summary
        assert summary["pass"] == 28, seed
        worst.append(summary["max_residual"])
    assert np.median(worst) < 1e-12
    assert sum(r > 1e-10 for r in worst) <= 2


def test_import_loads_no_scipy():
    code = "import thetaquartic, sys; print('scipy' in sys.modules)"
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
