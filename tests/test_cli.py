import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from thetaquartic import invariants
from thetaquartic.cli import main
from thetaquartic.errors import SingularSystemError
from thetaquartic.thetaeval import tau_to_json

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


def test_eps_flag(tmp_path, capsys):
    tau_path = tmp_path / "tau.json"
    run_cli(capsys, "random-tau", "--seed", "1", "--json", str(tau_path))
    code, out, _ = run_cli(
        capsys, "bitangents", "--tau", str(tau_path), "--eps", "+1,-1,+1"
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
    for argv in (["bitangents"], ["bitangents", "--tau", str(tmp_path / "t.json"), "--eps", "1,1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--help"])
    assert info.value.code == 0
    assert main(["selftest", "--trials", "0"]) == 1


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
