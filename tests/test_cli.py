import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetaquartic
from thetaquartic import invariants
from thetaquartic.charalgebra import all_forms
from thetaquartic.cli import _dump, main
from thetaquartic.errors import SingularSystemError
from thetaquartic.thetaeval import PeriodMatrix, complex_to_json, tau_from_json, tau_to_json
from thetaquartic.verify import bitangency_check, reconstruct
from thetaquartic.weber import ProjLine

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, err = run_cli(capsys, "classify")
    assert code == 0
    obj = json.loads(out)
    assert obj["even"] == 36 and obj["odd"] == 28
    q0 = next(r for r in obj["characteristics"] if r["bracket"] == "[000|000]")
    assert q0["parity"] == "even" and q0["arf"] == 0


def test_random_tau_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "random-tau", "--seed", "5", "--json", str(p1))[0] == 0
    assert run_cli(capsys, "random-tau", "--seed", "5", "--json", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    obj = json.loads(p1.read_text())
    assert len(obj["tau"]) == 3


def test_bitangents_pass(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "3", "--json", str(tau_path))
    code, out, err = run_cli(capsys, "bitangents", "--tau", str(tau_path))
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"aronhold", "a", "bitangents", "quartic", "k", "lambda", "verify"}
    assert len(obj["bitangents"]) == 28
    assert obj["verify"]["summary"]["pass"] == 28
    assert "28/28" in err


def test_bitangents_deterministic_output(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "6", "--json", str(tau_path))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(capsys, "bitangents", "--tau", str(tau_path), "--json", str(p1))[0] == 0
    assert run_cli(capsys, "bitangents", "--tau", str(tau_path), "--json", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def _complexes(node):
    """The numbers of a {"re", "im"} leaf or of a nested list of them, else None."""
    if isinstance(node, dict) and set(node) == {"re", "im"}:
        return [complex(node["re"], node["im"])]
    if isinstance(node, list) and node:
        parts = [_complexes(x) for x in node]
        if all(p is not None for p in parts):
            return [z for p in parts for z in p]
    return None


def assert_matches_golden(got, want, where="$"):
    """Same keys, labels and counts; floats to 1e-12 of their array's scale.

    A bare float is a residual, a relative quantity of scale 1.  The
    tolerance absorbs last-bit differences of numpy's exp between CPUs.
    """
    numbers = _complexes(want)
    if numbers is not None:
        ours = _complexes(got)
        assert ours is not None and len(ours) == len(numbers), where
        scale = max(abs(z) for z in numbers) or 1.0
        assert np.abs(np.array(ours) - np.array(numbers)).max() <= 1e-12 * scale, where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("seed", [3, 6])
def test_bitangents_match_golden_output(seed, capsys):
    # captured from the two-table pipeline, before the tables were kept on tau
    code, out, _ = run_cli(capsys, "bitangents", "--tau", str(DATA / f"tau_seed{seed}.json"))
    assert code == 0
    golden = json.loads((DATA / f"bitangents_seed{seed}.json").read_text())
    assert_matches_golden(json.loads(out), golden)


def test_bitangents_special_locus_exit_2(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    tau_path.write_text(json.dumps(tau_to_json(1j * np.eye(3))))
    code, out, err = run_cli(capsys, "bitangents", "--tau", str(tau_path))
    assert code == 2
    assert "[110|110]" in err
    # a refused run leaves an existing --json file as it was
    report = tmp_path / "report.json"
    report.write_text("earlier report\n")
    assert run_cli(capsys, "bitangents", "--tau", str(tau_path), "--json", str(report))[0] == 2
    assert report.read_text() == "earlier report\n"


@pytest.mark.parametrize("command", ["bitangents", "quartic"])
def test_uncertified_curve_exits_3(command, capsys):
    # draw 213 of random_tau(default_rng(201)): 24 of the 28 lines certify
    code, out, err = run_cli(capsys, command, "--tau", str(DATA / "tau_rng201_draw213.json"))
    assert code == 3
    assert "24/28" in err
    assert "quartic" in json.loads(out)


def test_malformed_tau_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli(capsys, "bitangents", "--tau", str(bad))[0] == 1
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "bitangents", "--tau", str(missing))[0] == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"tau": [[1, 2], [3, 4]]}))
    assert run_cli(capsys, "bitangents", "--tau", str(wrong))[0] == 1
    # an entry that is no number, or too large for a float, is an input error, not a traceback
    for entry in (10**400, True, "a", None):
        obj = json.loads((DATA / "tau_seed3.json").read_text())
        obj["tau"][1][2]["re"] = obj["tau"][2][1]["re"] = entry
        wrong.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "bitangents", "--tau", str(wrong))
        assert code == 1 and out == "" and err.startswith("input error: malformed tau JSON")
    # a directory where a file belongs is an input error, not a traceback
    code, _, err = run_cli(capsys, "bitangents", "--tau", str(tmp_path))
    assert code == 1 and err.startswith("input error: ")
    # an unwritable --json target is refused before any work
    for target in (tmp_path, tmp_path / "missing" / "out.json", ""):
        code, _, err = run_cli(capsys, "bitangents", "--tau", str(DATA / "tau_seed3.json"), "--json", str(target))
        assert code == 1 and err.startswith("input error: ") and "bitangency:" not in err


def test_non_pd_tau_exit_1(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    tau_path.write_text(json.dumps(tau_to_json(np.diag([1j, 1j, -1j]))))
    assert run_cli(capsys, "bitangents", "--tau", str(tau_path))[0] == 1


def test_quartic_command(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "2", "--json", str(tau_path))
    code, out, _ = run_cli(capsys, "quartic", "--tau", str(tau_path))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["quartic"]) == 15
    assert len(obj["xi"]) == 3
    kvals = [complex(c["re"], c["im"]) for c in obj["k"]]
    assert max(abs(k - 1) for k in kvals) < 1e-8


def test_verify_command(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "2", "--json", str(tau_path))
    code, out, _ = run_cli(capsys, "verify", "--tau", str(tau_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"] == {"pass": 28, "fail": 0, "max_residual": obj["summary"]["max_residual"]}
    assert len(obj["reports"]) == 28


def test_aronhold_overview(capsys):
    code, out, _ = run_cli(capsys, "aronhold")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 288
    assert len(obj["systems"]) == 288


def test_aronhold_single_system(capsys):
    code, out, _ = run_cli(capsys, "aronhold", "--system-index", "0")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["system"]) == 7
    assert len(obj["pair_forms"]) == 21
    assert len(obj["triple_forms"]) == 35


#: the command whose stdout each file named in data/label_outputs.sha256 holds; CI checks the same digests
LABEL_COMMANDS = {
    "classify.json": ("classify",),
    "aronhold.json": ("aronhold",),
    "aronhold-5.json": ("aronhold", "--system-index", "5"),
}
LABEL_DIGESTS = dict(line.split()[::-1] for line in (DATA / "label_outputs.sha256").read_text().splitlines())


@pytest.mark.parametrize("name", LABEL_DIGESTS)
def test_label_outputs_are_pinned(name, capsys):
    # the labels, their order and the numbering of the 288 systems (--system-index) are public
    code, out, _ = run_cli(capsys, *LABEL_COMMANDS[name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LABEL_DIGESTS[name]


def test_aronhold_bad_index(capsys):
    assert run_cli(capsys, "aronhold", "--system-index", "288")[0] == 1


def test_system_index_pipeline(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "1", "--json", str(tau_path))
    code, out, _ = run_cli(
        capsys, "bitangents", "--tau", str(tau_path), "--system-index", "17"
    )
    assert code == 0
    assert json.loads(out)["verify"]["summary"]["pass"] == 28


def test_selftest(capsys):
    code, out, err = run_cli(capsys, "selftest", "--trials", "2")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["ok"] is True
    names = {r["name"] for r in obj["results"]}
    assert {"parity-counts", "aronhold-count", "weber-symbolic-table",
            "weber-normalization-k", "bitangency-28"} <= names
    assert err.count("PASS") == len(obj["results"])


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit code 2 is kept for special-locus refusals
    with pytest.raises(SystemExit) as info:
        main(["bitangents"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--help"])
    assert info.value.code == 0
    assert main(["selftest", "--trials", "0"]) == 1


@pytest.mark.parametrize(
    "knob",
    [["--tol", "1e-6"], ["--eps=+1,+1,+1"], ["--tail", "1e-10"],
     ["--tail", "nan"], ["--tail", "inf"], ["--tail=-inf"]],
    ids=["tol", "eps", "tail", "tail-nan", "tail-inf", "tail-minus-inf"],
)
@pytest.mark.parametrize("command", ["bitangents", "quartic", "verify", "selftest", "random-tau"])
def test_removed_knobs_are_usage_errors(command, knob, capsys):
    # one certificate threshold, Weber's printed row signs and the default series tail: none is settable
    needs_tau = command not in ("selftest", "random-tau")
    argv = [command] + (["--tau", str(DATA / "tau_seed3.json")] if needs_tau else []) + knob
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    # the usage printed is the subcommand's, which lists the flags it does take
    assert err.startswith(f"usage: theta-quartic {command} [-h]")
    assert f"theta-quartic {command}: error: unrecognized arguments: {knob[0]}" in err


def test_inconsistent_three_radical_system_is_not_a_special_locus_refusal(capsys):
    # system 5 on this tau: the xi solve fails, yet no even constant is near the 1e-8 gate
    code, _, err = run_cli(capsys, "bitangents", "--tau", str(DATA / "tau_seed3.json"), "--system-index", "5")
    assert code != 2
    assert "three-radical" in err


@pytest.mark.parametrize("command", ["bitangents", "quartic", "verify"])
@pytest.mark.parametrize("tau, index, message", [
    ("tau_seed3", "5", "three-radical scaling system inconsistent (residual 4.52e-07)"),
    ("tau_seed3", "287", "reciprocal coefficient matrix is singular"),
    ("tau_rng201_draw213", "5", "three-radical scaling system inconsistent (residual 1.59e-06)"),
])
def test_numerical_refusal_exits_3_without_a_report(command, tau, index, message, tmp_path, capsys):
    # a solve that refuses is a verification failure, not an input error: exit 3, one line, no report
    argv = [command, "--tau", str(DATA / f"{tau}.json"), "--system-index", index]
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")
    report = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--json", str(report)) == (3, "", f"error: {message}\n")
    assert not report.exists()


def test_ill_conditioned_frame_is_not_a_special_locus_refusal(capsys):
    # system 32 on this tau: the frame's condition number is about 4e13, while the
    # smallest even constant is 1.7e-4 of the largest, far above the 1e-8 gate
    code, _, err = run_cli(capsys, "bitangents", "--tau", str(DATA / "tau_seed3.json"), "--system-index", "32")
    assert code != 2
    assert "special locus" not in err and "FRAME_COND_LIMIT" in err


@pytest.mark.parametrize("tau, code", [("tau_seed3.json", 0), ("tau_rng201_draw213.json", 3)])
def test_pipeline_commands_agree(tau, code, capsys):
    # one pipeline run reported three ways: quartic and verify print parts of the bitangents report
    outputs = {}
    for command in ("bitangents", "quartic", "verify"):
        got, out, _ = run_cli(capsys, command, "--tau", str(DATA / tau))
        assert got == code, command
        outputs[command] = json.loads(out)
    full = outputs["bitangents"]
    for key in ("aronhold", "a", "k", "lambda", "quartic"):
        assert outputs["quartic"][key] == full[key], key
    assert outputs["verify"] == full["verify"]


def test_report_json_structure(capsys):
    # each report row is the single-line certificate of its labelled line, in a fixed key order
    tau_path = DATA / "tau_seed3.json"
    code, out, _ = run_cli(capsys, "verify", "--tau", str(tau_path))
    assert code == 0
    run = reconstruct(PeriodMatrix(tau_from_json(json.loads(tau_path.read_text()))))
    rows = json.loads(out)["reports"]
    assert len(rows) == len(run.labels) == len(run.covectors) == 28
    for q, covector, row in zip(run.labels, run.covectors, rows):
        report = bitangency_check(run.quartic, ProjLine(covector))
        assert list(row) == ["q", "is_bitangent", "residual", "contacts"]
        assert row == {
            "q": q.to_json(),
            "is_bitangent": report.is_bitangent,
            "residual": report.residual,
            "contacts": complex_to_json(report.contact_points),
        }
        assert type(row["is_bitangent"]) is bool and type(row["residual"]) is float


def _raise(*args, **kwargs):
    raise SingularSystemError("forced failure")


@pytest.mark.parametrize("change", [{"tol": 0}, {"measure": _raise}], ids=["tolerance", "raises"])
def test_selftest_reports_a_failing_check(change, monkeypatch, capsys):
    failing = dataclasses.replace(invariants.reduction_formula, **change)
    monkeypatch.setattr(invariants, "CHECKS", [invariants.parity_counts, failing])
    code, out, err = run_cli(capsys, "selftest", "--trials", "1")
    assert code == 3
    assert [r["ok"] for r in json.loads(out)["results"]] == [True, False]
    assert "PASS  parity-counts" in err and "FAIL  reduction-formula" in err


PIPELINE_TAUS = {"tau_seed3": 0, "tau_seed6": 0, "tau_rng201_draw213": 3}
LAYOUT_RUNS = [
    *[([command, "--tau", str(DATA / f"{tau}.json")], code)
      for tau, code in PIPELINE_TAUS.items() for command in ("bitangents", "quartic", "verify")],
    (["classify"], 0),
    (["aronhold"], 0),
    (["aronhold", "--system-index", "3"], 0),
    (["random-tau", "--seed", "4"], 0),
    (["selftest", "--trials", "1"], 0),
]


@pytest.mark.parametrize("argv, code", LAYOUT_RUNS,
                         ids=[" ".join(Path(a).stem for a in argv) for argv, _ in LAYOUT_RUNS])
def test_output_layout_is_json_dumps_indent_2(argv, code, tmp_path, capsys):
    # every subcommand prints exactly what json.dumps(indent=2) makes of its own report
    got, out, _ = run_cli(capsys, *argv)
    assert got == code
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    path = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--json", str(path))[0] == code
    assert path.read_bytes() == out.encode()


def dumped(node, pad=""):
    out = []
    _dump(node, pad, out)
    return "".join(out)


def indented(obj, pad):
    """json.dumps(obj, indent=2) as it reads when nested at indent ``pad``."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


NON_FINITE = np.array([complex(math.nan, 1.0), complex(math.inf, -math.inf), 0.5 - 2j, complex(-0.0, 1e-300)])
CONTACTS = np.array([[1, 0.25 - 1j, 1e-17j], [3.5e20 + 1j, -1, 2j / 3]])


@pytest.mark.parametrize("node, wire", [
    ({"residual": math.nan, "worst": [math.inf, -math.inf]}, None),
    (NON_FINITE, complex_to_json(NON_FINITE)),
    ({"empty_list": [], "empty_dict": {}, "empty": np.array([], dtype=complex)},
     {"empty_list": [], "empty_dict": {}, "empty": []}),
    (CONTACTS, complex_to_json(CONTACTS)),
    (np.stack([CONTACTS, -CONTACTS]), complex_to_json(np.stack([CONTACTS, -CONTACTS]))),
    (np.float64(0.1) / 3, None),
    ([True, 1, False, 0, None, 1.0, -7, 2**70], None),
    ({"ascii": "plain", "escaped": "q\"u\\o\nte\u00e9\U0001d703"}, None),
], ids=["non-finite floats", "non-finite complex", "empty", "contacts", "3-d complex", "float64", "bool next to int",
        "strings"])
def test_writer_matches_json_dumps(node, wire):
    assert dumped(node) == json.dumps(node if wire is None else wire, indent=2)


@pytest.mark.parametrize("pad", ["", "  ", "    ", "          "])
def test_writer_templates_match_their_wire_form(pad):
    # the complex template is complex_to_json's form, the label template Characteristic.to_json's
    for z in (NON_FINITE, CONTACTS[0], CONTACTS[1] * 1e-5, np.array([0j])):
        assert dumped(z, pad) == indented(complex_to_json(z), pad)
    for q in all_forms():
        assert dumped(q, pad) == indented(q.to_json(), pad)


@pytest.mark.parametrize("node", [object(), {1, 2}, 1 + 2j, np.int64(1), np.bool_(True),
                                  np.zeros(3), np.array(1j), [np.float32(1.0)]])
def test_writer_refuses_what_json_refuses(node):
    with pytest.raises(TypeError):
        json.dumps(node)
    with pytest.raises(TypeError):
        dumped(node)


#: functions of the pipeline modules that the traced commands do not call, and why each stays there
NOT_TRACED = {
    "thetaeval.TruncationPolicy.__post_init__": "validation: refuses a bad target_tail when a policy is made",
    "thetaeval.PeriodMatrix.__repr__": "display: what a PeriodMatrix prints as",
    "thetaeval._lookup": "the one table lookup behind theta and grad_theta0; invariants reads tables through it",
    "thetaeval.theta": "README entry point; perfbench/tracing.py wraps it",
    "thetaeval.theta_const": "README entry point; perfbench/tracing.py wraps it",
    "thetaeval.grad_theta0": "README entry point; perfbench/tracing.py wraps it",
    "thetaeval.even_constant_table": "README entry point; perfbench/workloads.py screens draws with it",
    "thetaeval.odd_gradient_table": "README entry point; perfbench/tracing.py wraps it",
    "weber.ProjLine.__post_init__": "validation of one covector; perfbench/workloads.py builds ProjLines",
    "weber.ProjLine.residual_to": "perfbench/workloads.py compares the determinant-ratio rows with it",
    "weber.aronhold_coeffs_dets": "perfbench/workloads.py reads the determinant-ratio rows",
    "charalgebra.even_forms": "runs at import, for thetaeval's table of even forms",
    "charalgebra.is_azygetic_triple": "perfbench/tracing.py wraps weber's binding of it",
    "charalgebra.Characteristic.to_json": "the wire form of a label, which cli._char_text writes from a template",
    "charalgebra.AronholdSystem.as_set": "a system as an unordered set, which the aronhold-count check compares",
    "verify._chart_transforms": "runs at import, for the six chart tables",
    "verify.bitangency_check": "the one-line certificate; perfbench/tracing.py wraps it",
}


def _functions(module) -> dict:
    """Code object -> 'module.qualname' of each function and method defined in ``module``'s file."""
    out = {}
    for name, obj in vars(module).items():
        members = [(f"{name}.{k}", v) for k, v in vars(obj).items()] if isinstance(obj, type) else [(name, obj)]
        for qualname, fn in members:
            code = getattr(inspect.unwrap(fn) if callable(fn) else fn, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                out[code] = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
    return out


def test_pipeline_modules_hold_what_the_commands_run(tmp_path):
    # every function of the four pipeline modules runs under some command, or NOT_TRACED says why not
    from thetaquartic import charalgebra, cli, thetaeval, verify, weber

    for cached in (weber._plan, charalgebra.enumerate_aronhold, cli.build_parser, cli._char_text):
        cached.cache_clear()
    tau = str(DATA / "tau_seed3.json")
    commands = [
        ["bitangents", "--tau", tau], ["quartic", "--tau", tau], ["verify", "--tau", tau],
        ["bitangents", "--tau", tau, "--system-index", "5"],
        ["classify"], ["aronhold"], ["aronhold", "--system-index", "5"], ["random-tau"],
    ]
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [main(argv + ["--json", str(tmp_path / "out.json")]) for argv in commands]
    finally:
        sys.setprofile(None)
    assert set(codes) <= {0, 3}  # system 5 at seed 3 is refused by a numerical gate
    defined = {}
    for module in (thetaeval, weber, charalgebra, verify):
        defined.update(_functions(module))
    not_run = sorted(name for code, name in defined.items() if code not in ran)
    assert not_run == sorted(NOT_TRACED)
    assert [(c.name, c.tol) for c in invariants.CHECKS] == [
        ("parity-counts", 0), ("aronhold-count", 0), ("weber-symbolic-table", 0),
        ("reduction-formula", 1e-10), ("parity-vanishing", 1e-10), ("gradient-finite-difference", 1e-7),
        ("addition-formula", 1e-9), ("quasi-periodicity", 1e-9), ("jacobi-ratio", 1e-8),
        ("weber-normalization-k", 1e-8), ("determinant-ratio-rows", 1e-8), ("bitangency-28", 1e-6),
    ]


def test_only_selftest_imports_invariants():
    code = (
        "import sys, thetaquartic; print('thetaquartic.invariants' in sys.modules); "
        "import thetaquartic.cli; print('thetaquartic.invariants' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(thetaquartic.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
