import collections
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import companion_roots, eval_quartic, mp_restriction
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
from thetaquartic.thetaeval import PeriodMatrix, tau_from_json, vanishing_even_characteristics
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


DATA = Path(__file__).parent / "data"


def _restrict(curve: QuarticCurve, line: ProjLine) -> np.ndarray:
    # the binary quartic g(s, t) the certificate makes of one line: the curve scaled to unit
    # largest coefficient, on the spanning points of verify._spanning_points
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
    b = _restrict(X1_FOURTH, ProjLine(tuple((2 - 1j) * line.c)))
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
    scaled_line = ProjLine(tuple((0.01j - 2) * x for x in line.c))
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
            assert abs(eval_quartic(quartic.coeffs, x)) < 1e-7 * scale
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


def _count_covector_checks(monkeypatch) -> list:
    """Record the length of every stack ``weber.line_covectors`` checks from now on."""
    from thetaquartic import weber

    stacks = []
    check = weber.line_covectors

    def counting(rows):
        stacks.append(len(rows))
        return check(rows)

    monkeypatch.setattr(weber, "line_covectors", counting)
    return stacks


def test_reconstruct_checks_the_28_covectors_once(tau_seed1, monkeypatch):
    # all_bitangents returns the stack unchecked; the certificate checks it as it certifies it
    stacks = _count_covector_checks(monkeypatch)
    run = reconstruct(PeriodMatrix(tau_seed1.tau))
    assert stacks == [3, 28]  # xi_forms' three rows, then the certificate's 28 lines
    assert run.summary == bitangency_summary(run.quartic, (run.labels, run.covectors))[1]
    assert stacks == [3, 28, 28]


def test_reconstruct_certifies_through_bitangency_summary(tau_seed1, monkeypatch):
    # the certificate runs under its public name, the binding perfbench/tracing.py wraps,
    # once, on the very stack the run returns
    calls = []
    certify = verify.bitangency_summary

    def recording(curve, labelled_lines):
        calls.append(labelled_lines)
        return certify(curve, labelled_lines)

    monkeypatch.setattr(verify, "bitangency_summary", recording)
    run = reconstruct(tau_seed1)
    assert len(calls) == 1
    labels, covectors = calls[0]
    assert labels == run.labels and covectors is run.covectors


def test_chain_checks_the_28_covectors_once(tau_seed1, monkeypatch):
    # the four stages perfbench's generic op calls check the 28 lines once, at the certificate
    stacks = _count_covector_checks(monkeypatch)
    _chain(PeriodMatrix(tau_seed1.tau), REFERENCE_SYSTEM)
    assert stacks == [3, 28]


#: numpy's Python layers in front of C entry points: the array methods' reductions (.max, .sum, .any, ...),
#: the function forms of array methods (np.sum, np.argmax, np.repeat, ...) and np.stack / np.vstack
_NUMPY_WRAPPERS = {"_methods.py", "fromnumeric.py", "shape_base.py"}
#: the numpy.linalg calls of one run: the PeriodMatrix check, the lattice pass, the two solves and their
#: condition numbers, the xi fit and the frame
_LINALG_CALLS = {"eigvalsh": 1, "cholesky": 1, "svd": 3, "solve": 2, "lstsq": 1, "inv": 1}


def test_one_run_enters_numpy_at_its_c_entry_points(tau_seed1):
    # a reconstruct on a fresh PeriodMatrix, its gather plan built, calls none of numpy's Python wrappers
    # and numpy.linalg 9 times; files are matched by name, as numpy 1 keeps them in numpy/core
    reconstruct(tau_seed1)
    wrapped, linalg = [], collections.Counter()

    def record(frame, event, arg):
        if event != "call":
            return
        path, name = Path(frame.f_code.co_filename), frame.f_code.co_name
        package = (path.parent.parent.name, path.parent.name)
        if package in (("numpy", "_core"), ("numpy", "core")) and path.name in _NUMPY_WRAPPERS:
            wrapped.append(f"{path.name}:{name}")
        elif path.parent.name == "linalg" and not name.endswith("_dispatcher"):
            if Path(frame.f_back.f_code.co_filename).parent.name != "linalg":  # an entry, not a helper it calls
                linalg[name] += 1

    sys.setprofile(record)
    try:
        reconstruct(PeriodMatrix(tau_seed1.tau))
    finally:
        sys.setprofile(None)
    assert wrapped == []
    assert linalg == _LINALG_CALLS


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


def test_reconstruct_refuses_a_zero_gradient_line(tau_seed1, monkeypatch):
    # all_bitangents does not check its stack: a line is zero only where an odd gradient is,
    # and the certificate refuses it as a ProjLine would; weber reads the tables through theta_tables
    from thetaquartic import weber

    tables = weber.theta_tables(tau_seed1)
    grads = tables.grads.copy()
    grads[weber._plan(REFERENCE_SYSTEM).lines[27]] = 0
    monkeypatch.setattr(weber, "theta_tables", lambda tau: tables._replace(grads=grads))
    for run in (reconstruct, _chain):
        with pytest.raises(ValueError, match="zero covector does not define a line"):
            run(tau_seed1, REFERENCE_SYSTEM)


def test_reconstruction_is_frozen(tau_seed1):
    run = reconstruct(tau_seed1)
    assert isinstance(run, Reconstruction) and run.covectors.shape == (28, 3)
    with pytest.raises(AttributeError):
        run.summary = {}
    with pytest.raises(ValueError, match="read-only"):
        run.covectors[0, 0] = 1


def _arrays(obj):
    """Every ndarray reachable from obj through dataclass fields, tuples and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays(x)


def test_reconstruction_holds_read_only_arrays_and_compares_by_identity():
    tau = random_admissible_tau(1)
    run = reconstruct(tau)
    named = [run.frame.a, run.frame.k, run.frame.lam, run.frame.xi, run.quartic.coeffs, run.covectors, *run.certs]
    reachable = list(_arrays(run))
    assert len(reachable) == len(named) == 10
    assert {id(x) for x in reachable} == {id(x) for x in named}
    for arr in reachable:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.frame.k = np.ones(3)
    assert (run == reconstruct(tau)) is False
    assert run == run


def test_bitangency_report_is_frozen():
    run = _pipeline(1)
    report = bitangency_check(run.quartic, ProjLine(run.covectors[3]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.residual = 0.0
    contacts = report.contact_points
    assert contacts.shape == (2, 3) and not contacts.flags.writeable
    assert contacts.tobytes() == run.certs[2][3].tobytes()


def test_curve_and_line_keep_read_only_copies():
    coeffs, covector = np.arange(1, 16, dtype=complex), np.array([1, 2j, 3])
    curve, line = QuarticCurve(coeffs), ProjLine(covector)
    coeffs[0] = covector[0] = 0
    assert curve.coeffs[0] == line.c[0] == 1
    assert curve.coeffs.shape == (15,) and line.c.shape == (3,)
    assert not curve.coeffs.flags.writeable and not line.c.flags.writeable


def _pipeline(seed):
    return reconstruct(random_admissible_tau(seed))


def _random_lines(seed, count):
    rng = np.random.default_rng(seed)
    return [ProjLine(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "tau_rng201_draw213.json"])
def test_restriction_matches_mpmath_on_bitangents(seed):
    # rows 6, 9, 13 and 25 of draw 213 have restrictions of only about 1.4e-12
    if isinstance(seed, str):
        run = reconstruct(PeriodMatrix(tau_from_json(json.loads((DATA / seed).read_text()))))
    else:
        run = _pipeline(seed)
    _check_restrictions_against_mpmath(run.quartic, [ProjLine(row) for row in run.covectors])


@pytest.mark.parametrize("curve", [X1_FOURTH, DOUBLE_CONIC], ids=["x1_fourth", "double_conic"])
def test_restriction_matches_mpmath_on_special_curves(curve):
    _check_restrictions_against_mpmath(curve, _random_lines(12, 10))


def _check_restrictions_against_mpmath(curve, lines):
    # the kernel restricts the curve scaled to unit largest coefficient, on the
    # spanning points of its own basis helper
    coeffs = curve.coeffs / np.abs(curve.coeffs).max()
    for line in lines:
        (p,), (q,) = verify._spanning_points(line.c)
        want = mp_restriction(coeffs, MONOMIALS, p, q)
        got = _restrict(curve, line)
        assert np.abs(got - want).max() < 1e-15 * np.abs(coeffs).sum()


def _basis_rows() -> np.ndarray:
    # seeded random rows; rows whose c_0 is 0, -0.0, negative real, purely imaginary or
    # -0.0 + i y; the axis rows times 1, -1, i and -i; then all of them scaled by 2^+-1000
    # and 1e+-300
    rng = np.random.default_rng(27)
    rows = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
    edge = rows[:24].copy()
    for i, c0 in enumerate([0.0, -0.0, -1.5, 0.8j, -0.8j, complex(-0.0, 0.8)]):
        edge[4 * i : 4 * i + 4, 0] = c0
    axes = np.concatenate([unit * np.eye(3) for unit in (1, -1, 1j, -1j)])
    rows = np.concatenate((rows, edge, axes))
    return np.concatenate([rows] + [scale * rows for scale in (2.0**1000, 2.0**-1000, 1e300, 1e-300)])


def test_spanning_points_are_lapacks_svd_basis():
    # the closed form is the null-space basis np.linalg.svd returns, conjugated
    rows = _basis_rows()
    assert np.copysign(1, rows[304:308, 0].real).tolist() == [-1] * 4  # the -0.0 rows kept their sign
    p, q = verify._spanning_points(rows)
    assert verify._spanning_points(np.asfortranarray(rows)).tobytes() == np.stack((p, q)).tobytes()
    want = np.linalg.svd(rows[:, None, :])[2][:, 1:].conj()
    assert np.abs(p - want[:, 0]).max() <= 2e-15
    assert np.abs(q - want[:, 1]).max() <= 2e-15


def test_spanning_points_are_an_orthonormal_null_space():
    rows = _basis_rows()
    p, q = verify._spanning_points(rows)
    unit = rows / np.abs(rows).max(axis=1, keepdims=True)  # c up to scale, without overflow
    for x in (p, q):
        assert np.abs(np.linalg.norm(x, axis=1) - 1).max() <= 1e-15
        assert np.abs((unit * x).sum(axis=1)).max() <= 1e-15  # c.x = 0, no conjugate
    assert np.abs((p.conj() * q).sum(axis=1)).max() <= 1e-15


@pytest.mark.parametrize("seed", [1, 2, 6])
@pytest.mark.parametrize("index", [None, 5], ids=["reference", "system5"])
def test_check_equals_summary_row(seed, index):
    # row l of the batched certificate is bit for bit the single-line certificate of line l,
    # field by field, and the same row of any batch that holds line l: random sub-stacks of
    # 2, 7 and 28 lines, and the 28 lines twice over
    system = REFERENCE_SYSTEM if index is None else enumerate_aronhold()[index]
    run = reconstruct(random_admissible_tau(seed), system)
    for l, row in enumerate(run.covectors):
        report = bitangency_check(run.quartic, ProjLine(row))
        fields = (report.is_bitangent, report.residual, report.contact_points, report.near_flex)
        for got, want in zip(fields, run.certs):
            assert np.asarray(got, dtype=want.dtype).tobytes() == want[l].tobytes(), l
    rng = np.random.default_rng(seed)
    stacks = [rng.choice(28, size, replace=False) for size in (2, 7, 28)] + [np.tile(np.arange(28), 2)]
    for rows in stacks:
        for got, want in zip(bitangency_summary(run.quartic, ((), run.covectors[rows]))[0], run.certs):
            assert got.tobytes() == want[rows].tobytes(), rows


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
        scaled_line = ProjLine(tuple((0.01j - 2) * x for x in line.c))
        a = bitangency_check(quartic, line).contact_points
        b = bitangency_check(scaled_curve, scaled_line).contact_points
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-12
        for x in a:
            pivot = x[np.argmax(np.abs(x))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-15


@pytest.mark.parametrize("scale", [1j, 3 - 4j])
def test_contacts_canonical_when_entries_tie_in_modulus(scale):
    # at seed 133, lines 4, 11 and 14 have contact points with two entries of equal
    # modulus up to roundoff; which of them is made real positive must not depend on it
    run = _pipeline(133)
    certs, _ = bitangency_summary(QuarticCurve(scale * run.quartic.coeffs), (run.labels, scale * run.covectors))
    assert np.abs(certs[2] - run.certs[2]).max() < 1e-12


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
    ((1.0, float("nan"), 0.5), "finite"), ((0, 0, 0), "zero covector"), ((-0.0, -0.0j, 0j), "zero covector"),
], ids=["non-finite", "zero", "signed-zero"])
def test_covector_stack_checks_every_row(row, bad, message):
    # a stack of covectors is refused as one ProjLine of its bad row is, by the certificate too:
    # a zero row would read as the line X1 = 0 and certify on this curve
    rows = np.array([line.c for line in _random_lines(14, 28)])
    rows[row] = bad
    curve = _pipeline(1).quartic
    for build in (line_covectors, lambda rows: ProjLine(rows[row]), lambda rows: bitangency_summary(curve, ((), rows))):
        with pytest.raises(ValueError, match=message):
            build(rows)


def test_covector_stack_keeps_a_subnormal_row():
    # a row is zero only if every entry compares equal to 0; the smallest subnormal does not
    rows = line_covectors([(0, 0, 5e-324), (0, -5e-324j, 0)])
    assert rows.shape == (2, 3) and not rows.flags.writeable


@pytest.mark.parametrize("shape", [(3, 4), (6,)], ids=["3x4", "flat"])
def test_covector_stack_of_wrong_shape(shape):
    # twelve or six numbers are not read as four or two lines
    rows = np.ones(shape, dtype=complex)
    for build in (line_covectors, lambda rows: bitangency_summary(DOUBLE_CONIC, ((), rows))):
        with pytest.raises(ValueError, match="3 finite entries"):
            build(rows)


def test_huge_coefficients_certified():
    run = _pipeline(1)
    huge = QuarticCurve(tuple(1e308 * c for c in run.quartic.coeffs))
    want = run.summary
    _, got = bitangency_summary(huge, (run.labels, run.covectors))
    assert got["pass"] == 28
    assert abs(got["max_residual"] - want["max_residual"]) < 1e-12


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
    # on the line's spanning points p, q, the factor L1 = -eps p* + q* vanishes at
    # [s : t] = [1 : eps] and L2 = p* - c q* at [c : 1]
    line = ProjLine((0.3 + 0.1j, -1.2, 0.7j))
    (p,), (q,) = verify._spanning_points(line.c)
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


@pytest.mark.parametrize("eps, flagged", [(5e-4, True), (5e-2, False)])
def test_near_flex_flag_compares_separation_with_the_split(eps, flagged):
    # contacts [1 : eps] and [1 : -eps], about 2 eps apart, and a 1e-10 bump that leaves a
    # residual of 2.9e-11: near-flex iff separation^2 <= 10 sqrt(residual) = 5.4e-5
    line = ProjLine((0.3 + 0.1j, -1.2, 0.7j))
    (p,), (q,) = verify._spanning_points(line.c)
    l1, l2 = -eps * p.conj() + q.conj(), eps * p.conj() + q.conj()
    coeffs = np.array(_product_curve(l1, l1, l2, l2).coeffs)
    coeffs[4] += 1e-10 * np.abs(coeffs).max()
    report = bitangency_check(QuarticCurve(coeffs), line)
    assert report.is_bitangent and 1e-11 < report.residual < 1e-10
    assert report.near_flex == flagged


@pytest.mark.parametrize("eps, flagged", [(1e-2, False), (1e-4, True), (1e-6, True), (1e-8, True)])
def test_near_flex_flag_is_monotone_in_the_separation(eps, flagged):
    # X3 = 0 meets (l1 l2)^2 at [1 : eps : 0] and [1 : -eps : 0], each twice, and the
    # restriction is a square to roundoff or below (1.2e-27 at eps = 1e-6): the residual
    # is floored at machine epsilon, so contacts closer than about 3.9e-4 are flagged
    line = ProjLine((0, 0, 1))
    l1, l2 = (eps, -1, 0), (eps, 1, 0)
    report = bitangency_check(_product_curve(l1, l1, l2, l2), line)
    assert report.is_bitangent and report.residual < 1e-12
    assert report.near_flex == flagged


@pytest.mark.parametrize("g, centres", [
    ([0, 0, 1, 0, 0], [[0, 1], [1, 0]]),  # (s t)^2: 0, oo
    ([1, 0, -2, 0, 1], [[1, 1], [-1, 1]]),  # (s^2 - t^2)^2: 1, -1
    ([1, 0, 2, 0, 1], [[1j, 1], [-1j, 1]]),  # (s^2 + t^2)^2: i, -i
])
def test_centres_on_chart_centres_are_exact(g, centres):
    got = verify._sphere_centres(np.array([g], dtype=complex))[0]
    want = np.array(centres) / np.linalg.norm(centres, axis=1, keepdims=True)
    assert _match_distance(want, got) == 0


def test_fourfold_root_is_near_flex():
    # the restriction of X1^4 to X2 = 0 is a fourth power: the square root is x^2, whose
    # two roots coincide
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = bitangency_check(X1_FOURTH, ProjLine((0, 1, 0)))
    assert report.is_bitangent and report.near_flex
    assert report.residual == 0


def test_near_flex_line_of_a_canonical_system_certifies_to_roundoff():
    # seed 6, system 141, line 25 is README's example of close contact points (6.6e-4
    # apart): the fitted square reproduces its restriction to roundoff
    run = reconstruct(random_admissible_tau(6), enumerate_aronhold()[141])
    assert run.certs[1][25] < 1e-12


def _moved(covectors, seed, step):
    """Each covector moved by step (relative) in a seeded random direction orthogonal to it."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(covectors.shape) + 1j * rng.standard_normal(covectors.shape)
    d -= covectors * (np.sum(covectors.conj() * d, axis=1) / np.sum(np.abs(covectors) ** 2, axis=1))[:, None]
    return covectors + step * d * (np.linalg.norm(covectors, axis=1) / np.linalg.norm(d, axis=1))[:, None]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("step", [1e-3, 1e-4])
def test_lines_near_a_bitangent_fail(seed, step):
    # the smallest residuals read 3.1e-5 and 3.1e-6; at 1e-5 a few lines pass, as the tolerance allows
    run = _pipeline(seed)
    (_, residual, _, _), summary = bitangency_summary(run.quartic, (run.labels, _moved(run.covectors, seed, step)))
    assert summary["pass"] == 0, residual.min()


def _converged_centres(g):
    # the least-squares square root of each monic restriction, in the chart the certificate
    # picks, by Gauss-Newton run to convergence, and its roots on the sphere
    h = np.einsum("cjk,lk->lcj", verify._CHART_M, g)
    charts = np.argmax(np.abs(h[:, :, 0]) / np.abs(h).max(axis=2), axis=1)
    centres = []
    for c, row in zip(charts, h[np.arange(len(g)), charts]):
        h1, h2, h3, h4 = row[1:] / row[0]
        a, b = h1 / 2, (h2 - h1 * h1 / 4) / 2
        for _ in range(30):
            e = np.array([2 * a - h1, a * a + 2 * b - h2, 2 * a * b - h3, b * b - h4])
            jac = np.array([[2, 0], [2 * a, 2], [2 * b, 2 * a], [0, 2 * b]])
            da, db = np.linalg.lstsq(jac, -e, rcond=None)[0]
            a, b = a + da, b + db
        x = np.roots([1, a, b])
        centres.append(x[:, None] * verify._CHART_INF[c] + verify._CHART_CENTRE[c])
    return np.array(centres) / np.linalg.norm(centres, axis=2, keepdims=True)


def test_centres_are_the_least_squares_square_root():
    # lines 1e-5 off a bitangent: the square root of the top three coefficients alone is
    # 1e-4 from the converged fit, and one Gauss-Newton step on all four brings it to 3e-8
    run = _pipeline(1)
    g = verify._restrictions(run.quartic, _moved(run.covectors, 1, 1e-5))[0]
    for want, got in zip(_converged_centres(g), verify._sphere_centres(g)):
        assert _match_distance(want, got) < 1e-6


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


def _check_centres_against_companion(curve, covectors):
    # a double root is only sqrt(eps)-conditioned, each pair's centre is well conditioned
    g = verify._restrictions(curve, covectors)[0]
    for want, got in zip((companion_roots(row) for row in g), verify._sphere_centres(g)):
        assert _match_distance(_pair_centres(want), got) <= 1e-12


@pytest.mark.parametrize("seed", range(1, 11))
def test_bitangent_centres_match_companion_oracle(seed):
    run = _pipeline(seed)
    _check_centres_against_companion(run.quartic, run.covectors)


def test_double_conic_centres_match_companion_oracle():
    _check_centres_against_companion(DOUBLE_CONIC, np.array([line.c for line in _random_lines(12, 10)]))


def test_residuals_of_the_reference_system():
    # README "Numerical behavior" quotes these figures: median 1.5e-14, largest 3.3e-11 (seed 36)
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
