"""The span wrappers leave vopt's outputs unchanged, restore every binding,
and attribute time and calls at module boundaries; plus the run and compare
arithmetic."""

import contextlib
import io
import json
import sys

import pytest

import compare
import run
import spans
import vopt.cli
import vopt.expr
import vopt.gridsearch
import vopt.problem


def _bindings():
    return {
        (mod.__name__, key): val
        for mod in [m for k, m in sys.modules.items() if k.startswith("vopt")]
        for key, val in vars(mod).items()
        if callable(val)
    }


def _payload(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert vopt.cli.main([*argv, "--json", str(path)]) == 0
    return json.dumps(json.loads(path.read_text())["payload"], sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "exBprime.vopt", "--grid", "31", "--dirs", "8"],
        ["classify", "exA.vopt", "--class", "all", "--grid", "41", "--dirs", "8"],
    ],
)
def test_traced_payload_is_byte_equal_and_bindings_restored(argv, tmp_path):
    before = _bindings()
    plain = _payload(argv, tmp_path / "plain.json")
    tracer = spans.Tracer().install()
    try:
        assert vopt.problem.evaluate is not vopt.expr.evaluate  # wrapped where imported
        traced = _payload(argv, tmp_path / "traced.json")
    finally:
        tracer.restore()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["gridsearch.find_kt_points.calls"] == 1
    assert summary["gridsearch.nnls.calls"] > 0
    assert summary["expr.grad.calls"] > 0


def test_recursive_self_calls_are_not_spans():
    P = vopt.problem.parse_problem("var x in [-1, 1]\nmin ((x + 1)^2 + x)^2\n")
    tracer = spans.Tracer().install()
    try:
        vopt.problem.active_set(P, [0.5])
        vopt.gridsearch.weighted_phi(P, [1.0], None)[0]([0.5])
    finally:
        tracer.restore()
    s = tracer.summary()
    assert s["expr.evaluate.calls"] == 1  # the tree walk below it is one call
    assert s["problem.active_set.calls"] == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer(("a.f", "a.g"))
    # hand-built spans: f spans [0, 10], its child g spans [2, 5]
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0)):
        tracer.name.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    s = tracer.summary()
    assert s["a.f.self_s"] == pytest.approx(7.0)
    assert s["a.g.self_s"] == pytest.approx(3.0)
    assert s["a.f.calls"] == s["a.g.calls"] == 1


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


def test_tail_of_long_passes_ignores_a_burst_in_one_pass():
    calm = [float(k) for k in range(100)]
    burst = calm[:70] + [1000.0] * 30  # 30 commands in a row slowed
    value, how = run.pass_tail([calm, burst, calm])
    assert value == 89.0 and "median over 3 passes" in how
    # passes too short for a tail of their own are pooled
    value, how = run.pass_tail([calm[:7]] * 3)
    assert value == 3.0 and how.startswith("p52.4 of 21 latencies")


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    faster = {s: v * 1.5 for s, v in parent.items()}
    slower = {s: v * 0.5 for s, v in parent.items()}
    assert compare.verdict(parent, faster, "higher", 0.1) == "better"
    assert compare.verdict(parent, slower, "higher", 0.1) == "worse"
    assert compare.verdict(parent, dict(parent), "higher", 0.1) == "unchanged"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "higher", 0.1) == "unresolved"


def _rows(metrics_by_seed):
    return [
        {"workload": "w", "seed": s, "trace": 0,
         "result": {"metrics": {k: {"value": v} for k, v in m.items()}}}
        for s, m in metrics_by_seed.items()
    ]


def test_compare_gives_no_gain_when_more_commands_fail():
    # the change drops one command in seven and is faster on what is left
    parent = {s: {"latency_p50_s": 1.0 + 0.01 * s, "completed_ratio": 1.0} for s in range(10)}
    change = {s: {"latency_p50_s": 0.5 + 0.01 * s, "completed_ratio": 6 / 7} for s in range(10)}
    lines = compare.compare(_rows(parent), _rows(change))
    p50 = next(l for l in lines if "latency_p50_s" in l)
    done = next(l for l in lines if "completed_ratio" in l)
    assert "better" not in p50 and "more commands fail" in p50
    assert done.endswith("worse")
    same = {s: {**m, "completed_ratio": 1.0} for s, m in change.items()}
    assert compare.compare(_rows(parent), _rows(same))[0].endswith("better")
    # failing in three runs of ten leaves the median at 1 but still voids
    some = {s: {**m, "completed_ratio": 6 / 7 if s < 3 else 1.0} for s, m in change.items()}
    assert "more commands fail" in compare.compare(_rows(parent), _rows(some))[0]


def test_unclean_reproduction_is_incorrect_not_failed(tmp_path):
    # cli.main writes the report, then exits 3 when the diff is not clean
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"payload": {
        "id": "5.2", "all_match": False,
        "results": [{"name": "x*", "match": False}, {"name": "f(x*)", "match": True}],
    }}))
    cmd = run.workloads.Command(("reproduce-example", "5.2"), "reproduce", "5.2")
    o = run.Outcome(cmd, 3, 1.0, "", report)
    run.judge([o], {}, {})
    assert run.completed(o) and run.incorrect(o) and not run.failed(o)
    assert "x*" in o.verdict
    crashed = run.Outcome(cmd, 3, 1.0, "", tmp_path / "missing.json")
    run.judge([crashed], {}, {})
    assert run.failed(crashed) and not run.incorrect(crashed)


def test_pass_count_is_fixed_by_workload_and_seconds():
    # the same seed must attempt the same commands however fast the host is
    for w in run.workloads.WORKLOADS:
        assert run.pass_count(w, 15, False) >= run.MIN_PASSES[w]
        assert run.pass_count(w, 15, True) >= 1
        assert run.pass_count(w, 60, False) >= run.pass_count(w, 15, False)
    assert run.pass_count("alternatives", 15, False) == 6
    assert run.pass_count("alternatives", 15, True) == 3
