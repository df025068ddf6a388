import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vopt
import vopt.gridsearch
import vopt.linprog
from vopt.cli import build_parser, main, run_for_report

QUAD = "var x1 in [-1, 1]\nmin x1^2\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture()
def quad_file(tmp_path):
    p = tmp_path / "quad.vopt"
    p.write_text(QUAD)
    return str(p)


def test_scan_exA_levels():
    rep = run_for_report(["scan", "exA.vopt"])
    pts = rep["payload"]["points"]
    assert len(pts) == 3
    by_level = {}
    for e in pts:
        by_level.setdefault(e["level"], []).append(np.array(e["point"]))
    assert len(by_level["FirstOrderOnly"]) == 1
    assert np.allclose(by_level["FirstOrderOnly"][0], [0.0, 0.0], atol=1e-4)
    seconds = sorted(p[0] for p in by_level["SecondOrderKT"])
    assert np.allclose(seconds, [-1.0, 1.0], atol=1e-4)


def test_scan_convex_quadratic(quad_file, capsys):
    assert main(["scan", quad_file]) == 0
    out = capsys.readouterr().out
    assert "1 stationary point(s)" in out
    assert "SecondOrderKT" in out


def test_analyze_exit_codes(capsys):
    assert main(["analyze", "exA.vopt", "--point", "1,0"]) == 0
    assert "SecondOrderKT" in capsys.readouterr().out
    assert main(["analyze", "exA.vopt", "--point", "0,0"]) == 0
    assert "FirstOrderOnly" in capsys.readouterr().out
    assert main(["analyze", "exA.vopt", "--point", "2,2"]) == 2


def _relation_and_pseudoinvex_i(path, point):
    rel = run_for_report(["analyze", str(path), "--point", point])["payload"]["relation"]
    verdict = run_for_report(["classify", str(path), "--class", "kt-pseudoinvex-i"])["payload"]
    return rel, verdict["verdict"]["status"]


def test_analyze_and_classify_answer_weak_pareto_alike(tmp_path):
    # f(-1) undercuts f(0) by 1e-7: inside 1e-9*(1 + |f|) at f = 1000, outside it at f = 0
    rel, status = _relation_and_pseudoinvex_i(DATA / "shifted_cubic.vopt", "0")
    assert rel["weak_pareto"] and rel["domination_witness"] is None
    assert rel["anomalies"] == []
    assert status == "ConsistentAtResolution"
    plain = tmp_path / "cubic.vopt"
    plain.write_text((DATA / "shifted_cubic.vopt").read_text().replace("1000 + ", ""))
    rel, status = _relation_and_pseudoinvex_i(plain, "0")
    assert not rel["weak_pareto"] and rel["domination_witness"] is not None
    assert status == "Falsified"


def test_analyze_relates_a_point_without_kt_multipliers():
    pay = run_for_report(["analyze", str(DATA / "fritz_john_cusp.vopt"), "--point", "0,0"])["payload"]
    assert pay["classification"]["level"] == "NotStationary"
    rel = pay["relation"]
    assert rel["weak_pareto"] and not rel["kt"] and rel["domination_witness"] is None
    assert rel["in_scalarized_argmin"] is None and rel["in_weighting_argmin"] is None
    assert rel["anomalies"] == ["WeakParetoNotKT"]


def test_usage_errors(capsys):
    assert main(["scan", "definitely-missing.vopt"]) == 1
    assert main(["analyze", "exA.vopt", "--point", "1,2,3"]) == 1
    assert main(["weighting", "exB.vopt", "--lambda", "0.7,0.7"]) == 2
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def _one_line_error(capsys) -> None:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["scan"], ["classify", "--class", "all"], ["weighting", "--lambda", "0.5,0.5"],
])
def test_problem_without_variables_exits_1(argv, tmp_path, capsys):
    f = tmp_path / "novar.vopt"
    f.write_text("min 1\nmin 2\n")
    assert main([argv[0], str(f), *argv[1:]]) == 1
    _one_line_error(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, where", [
    ("var x in [-1, 1]\nmin x + 1.2.3\n", "line 2, col 9:"),
    ("var x in [-1, 1]\nmin x + .\n", "line 2, col 9:"),
    ("var x in [-1, 1]\nmin 1e999*x\n", "line 2, col 5:"),
    ("var 2x in [0, 1]\nmin x\n", "line 1, col 5:"),
    ("var x1, x2 in [0, 1]\nmin x1\n", "line 1, col 5:"),
    ("var x in [-1, 1]\nmin m\n", "line 2, col 5:"),
    ("var x in [-1, 1]\nmin x\nst s <= 0\n", "line 3, col 4:"),
    ("var x in [-inf, inf]\nmin x\n", "is not finite"),
    ("var x in [-1e308, 1e308]\nmin x\n", "is not finite"),
    ("var x in [nan, 1]\nmin x\n", "is not finite"),
])
def test_malformed_problem_text_exits_1(text, where, tmp_path, capsys):
    f = tmp_path / "bad.vopt"
    f.write_text(text)
    assert main(["scan", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err and err.count("\n") == 1


@pytest.mark.parametrize("cmd, name, data", [
    ("scan", "bad.vopt", b"var x in [-1, 1]\nmin x\xff\n"),
    ("alternative", "bad.json", b'{"A": [[1, -1]]}\xff\n'),
])
def test_file_that_is_not_utf8_exits_1(cmd, name, data, tmp_path, capsys):
    f = tmp_path / name
    f.write_bytes(data)
    assert main([cmd, str(f)]) == 1
    _one_line_error(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["scan"], ["classify", "--class", "all"]])
def test_overflowing_residual_leaks_no_warning(argv, tmp_path, capsys):
    f = tmp_path / "steep.vopt"
    f.write_text("var x in [-1, 1]\nmin exp(1000*x)\n")
    assert main([argv[0], str(f), *argv[1:], "--grid", "7"]) == 0
    assert capsys.readouterr().err == ""


def test_analyze_at_a_kink_exits_2(tmp_path, capsys):
    # grad meets abs at 0 while the local model is built, before any second
    # directional derivative is taken
    f = tmp_path / "kink.vopt"
    f.write_text("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin abs(x1) + x2^2\nmin x2\n")
    assert main(["analyze", str(f), "--point", "0,0"]) == 2
    assert capsys.readouterr().err == "error: abs at zero\n"


def test_analyze_overflow_exits_2(tmp_path, capsys):
    f = tmp_path / "over.vopt"
    f.write_text("var x1 in [-5, 5]\nmin exp(x1^8)\n")
    assert main(["analyze", str(f), "--point", "3"]) == 2
    _one_line_error(capsys)


def test_analyze_outside_log_domain_exits_2(tmp_path, capsys):
    f = tmp_path / "log.vopt"
    f.write_text("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin log(x1)\nmin x2\n")
    assert main(["analyze", str(f), "--point=-0.5,0"]) == 2
    _one_line_error(capsys)


def test_analyze_sine_of_infinity_exits_2(tmp_path, capsys):
    f = tmp_path / "sin.vopt"
    f.write_text("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin sin(1e300*1e300*x1) + x2^2\nmin x2\n")
    assert main(["analyze", str(f), "--point", "1,0"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("spaced, glued", [
    (["analyze", "exA.vopt", "--point", "-1,0"], ["analyze", "exA.vopt", "--point=-1,0"]),
    (["saddle", "exA.vopt", "--point", "-1,0", "--lambda", "-0,1", "--mu", "-.0"],
     ["saddle", "exA.vopt", "--point=-1,0", "--lambda=-0,1", "--mu=-.0"]),
    (["analyze", "exA.vopt", "--poi", "-1,0"], ["analyze", "exA.vopt", "--point=-1,0"]),
    (["saddle", "exA.vopt", "--poi", "-1,0", "--lam", "-0,1", "--m", "-.0"],
     ["saddle", "exA.vopt", "--point=-1,0", "--lambda=-0,1", "--mu=-.0"]),
])
def test_negative_list_after_flag_is_a_value(spaced, glued, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*spaced, "--json", str(a)]) == 0
    assert main([*glued, "--json", str(b)]) == 0
    capsys.readouterr()
    assert json.loads(a.read_text())["payload"] == json.loads(b.read_text())["payload"]


def test_weighting_nan_lambda_exits_2(capsys):
    assert main(["weighting", "exB.vopt", "--lambda", "nan,1"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["analyze", "exB.vopt", "--point", "nan,0"],
    ["analyze", "exA.vopt", "--point", "inf,0"],
])
def test_non_finite_point_exits_1(argv, capsys):
    assert main(argv) == 1
    _one_line_error(capsys)


def test_saddle_point_outside_the_box_exits_2(capsys):
    assert main(["saddle", "exB.vopt", "--point", "5,0", "--lambda", "0.5,0.5"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("text", ["min (x-2)^2\nmin (x-2)^2\n", "min x\nmin x\n"])
def test_analyze_point_outside_the_box_exits_2(tmp_path, capsys, text):
    f = tmp_path / "out.vopt"
    f.write_text("var x in [-1, 1]\n" + text)  # x = 2 is a KT point of the first, not the second
    assert main(["analyze", str(f), "--point", "2"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("grid", ["-5", "0", "1"])
def test_grid_below_two_exits_1(grid, capsys):
    assert main(["weighting", "exB.vopt", "--lambda", "1,0", "--grid", grid]) == 1
    assert "--grid: must be at least 2" in capsys.readouterr().err


def test_oversized_grid_exits_1_before_building_it(monkeypatch, capsys):
    # 100000^2 grid points: refused by the size check, never handed to meshgrid
    def build(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(vopt.gridsearch, "_grid", build)
    assert main(["weighting", "exB.vopt", "--lambda", "1,0", "--grid", "100000"]) == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exits_1(tol, capsys):
    assert main(["analyze", "exA.vopt", "--point", "1,0", "--tol", tol]) == 1
    assert "--tol: must be finite and nonnegative" in capsys.readouterr().err


def test_alternative_ragged_block_exits_1(tmp_path, capsys):
    f = tmp_path / "ragged.json"
    f.write_text('{"A": [[1, 2], [3]]}\n')
    assert main(["alternative", str(f)]) == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("blocks", [
    '{"A": [[1, 2], [3, 4]], "B": [[1, 2, 3]]}',  # B does not fill A's rows
    '{"A": [[1, 2], [3, 4]], "C": [[1, 2, 3]]}',  # C of the wrong width
    '{"A": [[1]], "B": [[1, 2]], "C": [[1]], "D": [[1]]}',  # D narrower than B
    '{"A": [[1]], "B": [[1]], "C": [[1]], "D": [[1, 2]]}',  # D wider than B
    '{"A": [[[1]]]}',  # A with three axes
    '{"A": []}',  # A is required
])
def test_alternative_misshapen_blocks_exit_1(blocks, tmp_path, capsys):
    f = tmp_path / "blocks.json"
    f.write_text(blocks + "\n")
    assert main(["alternative", str(f)]) == 1
    _one_line_error(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_with_a_pole_leaks_no_warning(tmp_path, capsys):
    f = tmp_path / "pole.vopt"
    f.write_text("var x1 in [-1, 1]\nvar x2 in [-1, 1]\nmin 1/x1 + x2^2\nmin x2^2 + x1\n")
    assert main(["scan", str(f)]) == 0
    assert "stationary point(s)" in capsys.readouterr().out


def test_saddle_counterexample(capsys):
    code = main(["saddle", "exA.vopt", "--point", "0,0", "--lambda", "0.5,0.5", "--mu", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "saddle at (0, 0): no" in out
    rep = run_for_report(
        ["saddle", "exA.vopt", "--point", "0,0", "--lambda", "0.5,0.5", "--mu", "0"]
    )
    assert rep["payload"]["right_status"] == "Counterexample"
    assert rep["payload"]["gap"] >= 0.9


def test_weighting_payload():
    rep = run_for_report(["weighting", "exB.vopt", "--lambda", "1,0"])
    pay = rep["payload"]
    assert abs(pay["value"] - (-1.0)) <= 1e-4
    xs = sorted(m["point"][0] for m in pay["minimizers"])
    assert np.allclose(xs, [-1.0, 1.0], atol=1e-4)


def test_alternative_gordan(tmp_path, capsys):
    f = tmp_path / "gordan.json"
    f.write_text('{"A": [[1, -1]]}\n')
    assert main(["alternative", str(f)]) == 0
    out = capsys.readouterr().out
    assert "multiplier system solvable" in out
    rep = run_for_report(["alternative", str(f)])
    assert rep["payload"]["variant"] == "multiplier"
    assert np.allclose(rep["payload"]["y"], [0.5, 0.5])
    assert rep["payload"]["verified"] is True


@pytest.mark.parametrize("blocks", ['{"A": [[1, -1]]}', '{"A": [[1], [-1]]}'])
def test_alternative_verifies_its_certificate_once(blocks, tmp_path, monkeypatch):
    # decide_alternative re-verifies what it returns; the command adds no check
    calls, verify = [], vopt.linprog.verify_certificate

    def counted_verify(*a):
        calls.append(a)
        return verify(*a)

    for name, module in list(sys.modules.items()):  # every binding of verify_certificate
        if name.split(".")[0] == "vopt" and getattr(module, "verify_certificate", None) is verify:
            monkeypatch.setattr(module, "verify_certificate", counted_verify)
    f = tmp_path / "blocks.json"
    f.write_text(blocks + "\n")
    assert run_for_report(["alternative", str(f)])["payload"]["verified"] is True
    assert len(calls) == 1


def test_alternative_strict_branch(tmp_path):
    f = tmp_path / "strict.json"
    f.write_text('{"A": [[1], [-1]]}\n')
    rep = run_for_report(["alternative", str(f)])
    assert rep["payload"]["variant"] == "strict"
    x = np.array(rep["payload"]["x"])
    assert x[0] - x[1] < 0


def test_json_report_envelope(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["scan", "exA.vopt", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "problem_sha256", "command", "seed", "payload", "elapsed_ms"}
    assert doc["command"][0] == "scan"
    assert len(doc["problem_sha256"]) == 64
    # canonical form: sorted keys survive a round trip
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_same_seed_reproduces_payload(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["classify", "exA.vopt", "--class", "ktsp-invex", "--seed", "11"]
    assert main([*argv, "--json", str(a)]) == 0
    assert main([*argv, "--json", str(b)]) == 0
    capsys.readouterr()
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db
    assert json.dumps(da["payload"], sort_keys=True) == json.dumps(db["payload"], sort_keys=True)


def test_reproduce_examples_clean(capsys):
    for example_id in ("4.1", "5.1", "5.2"):
        assert main(["reproduce-example", example_id]) == 0
        assert "clean" in capsys.readouterr().out


def test_classify_all_audit(capsys):
    rep = run_for_report(["classify", "exA.vopt", "--class", "all"])
    pay = rep["payload"]
    assert [v["class"] for v in pay["verdicts"]][0] == "KTSPInvex"
    assert len(pay["verdicts"]) == 8
    assert pay["violations"] == []


def test_consecutive_mains_share_one_parser_but_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    report = tmp_path / "saddle.json"
    saddle = ["saddle", "exA.vopt", "--point", "0,0", "--lambda", "0.5,0.5", "--grid", "11"]
    assert main([*saddle, "--mu", "0.25", "--json", str(report)]) == 0
    assert json.loads(report.read_text())["payload"]["mu"] == [0.25]
    report.unlink()
    assert main(["weighting", "exB.vopt", "--lambda", "1,0", "--grid", "11"]) == 0
    assert main(saddle) == 0  # no --json and no --mu: neither carries over
    assert list(tmp_path.iterdir()) == []
    assert run_for_report(saddle)["payload"]["mu"] == [0.0]
    assert main(["scan", "exA.vopt", "--grid", "1"]) == 1
    weighting = run_for_report(["weighting", "exB.vopt", "--lambda", "0,1", "--grid", "11"])
    assert weighting["payload"]["grid"] == 11
    capsys.readouterr()


def test_closed_stdout_exits_1_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(vopt.__file__).parents[1])}
    argv = [sys.executable, "-m", "vopt.cli", "weighting", "exB.vopt", "--lambda", "0.5,0.5",
            "--grid", "11"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader leaves before vopt prints anything
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
