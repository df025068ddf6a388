import json

import numpy as np
import pytest

from vopt.cli import main, run_for_report

QUAD = "var x1 in [-1, 1]\nmin x1^2\n"


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


@pytest.mark.parametrize("grid", ["-5", "0", "1"])
def test_grid_below_two_exits_1(grid, capsys):
    assert main(["weighting", "exB.vopt", "--lambda", "1,0", "--grid", grid]) == 1
    assert "--grid: must be at least 2" in capsys.readouterr().err


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
