"""The content-keyed memo: what shares an entry, what misses, what a caller
may do with a shared value, how large the stores grow, and that the order in
which commands warm it never shows in a report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vopt.cli
import vopt.memo
import vopt.problem
from vopt.cli import main
from vopt.expr import evaluate
from vopt.gridsearch import _grid, find_kt_points, get_grid
from vopt.ktcheck import classify_point
from vopt.problem import load_problem, local_model, parse_problem
from vopt.scalarize import (
    _polished_min, check_saddle, dominating_rival, solve_unconstrained, solve_weighting,
)

PAIR = "var x1 in [-2, 2]\nvar x2 in [-2, 2]\nmin x1^2 + x2^2\nmin (x1 - 1)^2 + x2^2\n"
COMMENTED = (
    "# two shifted paraboloids\nvar x1 in [-2, 2]   # first\nvar x2 in [-2, 2]\n\n"
    "min x1^2 + x2^2  # f1\nmin (x1 - 1)^2 + x2^2\n"
)
MEMOISED = (_grid, find_kt_points, local_model, _polished_min, classify_point, dominating_rival,
            parse_problem)


def test_files_that_differ_only_in_comments_share_entries(tmp_path):
    (tmp_path / "plain.vopt").write_text(PAIR)
    (tmp_path / "commented.vopt").write_text(COMMENTED)
    P, Q = load_problem(tmp_path / "plain.vopt"), load_problem(tmp_path / "commented.vopt")
    assert P.source != Q.source
    assert get_grid(P, 5) is get_grid(Q, 5)
    assert local_model(P, [0.5, 0.0]) is local_model(Q, np.array([0.5, 0.0]))
    assert solve_weighting(P, [0.5, 0.5], grid=5).value == solve_weighting(Q, [0.5, 0.5], 5).value
    assert [len(fn.store) for fn in MEMOISED] == [1, 0, 1, 1, 0, 0, 2]  # two texts parsed
    assert find_kt_points(P, grid=5) is find_kt_points(Q, grid=5)
    assert len(find_kt_points.store) == 1


def test_default_grid_and_its_size_are_one_entry():
    P = parse_problem(PAIR)
    assert get_grid(P) is get_grid(P, 201)
    assert len(_grid.store) == 1


@pytest.mark.parametrize("change", [
    dict(x=np.array([0.5, 0.0], dtype=np.float32)),
    dict(x=np.array([np.nextafter(0.5, 1.0), 0.0])),
    dict(x=np.array([0.5, -0.0])),
])
def test_any_change_of_an_argument_is_a_miss(change):
    P = parse_problem(PAIR)
    base = dict(x=np.array([0.5, 0.0]))
    first = local_model(P, **base)
    again = local_model(P, **{**base, **change})
    assert again is not first
    assert len(local_model.store) == 2


@pytest.mark.parametrize("change", [dict(grid=6)])
def test_kt_scan_misses_on_grid_and_tolerance(change):
    P = parse_problem(PAIR)
    first = find_kt_points(P, grid=5)
    assert find_kt_points(P, **{"grid": 5, **change}) is not first
    assert len(find_kt_points.store) == 2


def _arrays(v, seen):
    """Every array reachable from v through tuples and attributes."""
    if id(v) in seen:
        return []
    seen.add(id(v))
    if isinstance(v, np.ndarray):
        return [v]
    if isinstance(v, vopt.problem.ProblemDef):
        return [v.lower, v.upper]
    items = v if isinstance(v, tuple) else vars(v).values() if hasattr(v, "__dict__") else ()
    return [a for item in items for a in _arrays(item, seen)]


def test_shared_arrays_are_read_only_and_keep_their_values():
    P = parse_problem(PAIR)
    data, pts = get_grid(P, 5), find_kt_points(P, grid=5)
    model = local_model(P, [0.5, 0.0])
    cand_pts, _, _ = _polished_min(P, np.array([0.5, 0.5]), None, 5, True)
    kept = [a.copy() for a in (data.pts, pts[0], model.point, model.Gf)]
    for a in (data.pts, pts[0], model.point, model.Gf, cand_pts[0]):
        with pytest.raises(ValueError):
            a[0] = 7.0
    again = (get_grid(P, 5).pts, find_kt_points(P, grid=5)[0],
             local_model(P, [0.5, 0.0]).point, local_model(P, [0.5, 0.0]).Gf)
    for a, b in zip(kept, again):
        np.testing.assert_array_equal(a, b)
    assert not any(np.shares_memory(p, data.pts) for p in cand_pts)  # copies, not grid views


def test_members_a_shared_model_fills_in_later_are_read_only():
    P = parse_problem(PAIR)
    model = local_model(P, [0.5, 0.0])
    assert classify_point(P, [0.5, 0.0]).directions_tested > 0
    filled = {"rays", "critical_directions", "critical_seconds"}
    assert filled <= set(vars(model))  # the classification filled them in
    assert all(_arrays(getattr(model, k), {id(model)}) for k in filled)
    assert not any(a.flags.writeable for a in _arrays(model, set()))


def test_one_field_is_one_polish_entry():
    # exB has no constraints: its weighting, its free minimisation and the
    # saddle check with an empty mu all minimise the same field
    P = load_problem(vopt.cli.FIXTURES / "exB.vopt")
    x = solve_weighting(P, [1.0, 0.0]).minimizers[0].point
    assert solve_unconstrained(P, [1.0, 0.0]).value == solve_weighting(P, [1.0, 0.0]).value
    assert check_saddle(P, [1.0, 0.0], x, ()).is_saddle
    assert len(_polished_min.store) == 1


def test_a_callers_point_stays_writable():
    x = np.array([0.5, 0.0])
    classify_point(parse_problem(PAIR), x)
    x[0] = 0.25


def test_the_box_is_read_only_so_a_key_cannot_go_stale():
    P = parse_problem(PAIR)
    box = np.array([-2.0, -2.0])
    Q = vopt.problem.ProblemDef(P.var_names, box, P.upper, P.objectives, P.constraints)
    box[0] = 0.0  # the problem keeps its own copy
    assert Q.lower[0] == -2.0
    for bound in (P.lower, P.upper, Q.lower):
        with pytest.raises(ValueError):
            bound[0] = 0.0
    with pytest.raises(AttributeError):
        P.lower = np.zeros(2)


def test_a_value_may_hold_a_problem_parsed_apart():
    # A verdict reaches, through its model, the problem an earlier command
    # parsed; its nodes hold compiled closures in a dict, yet it is immutable.
    P = parse_problem(COMMENTED)
    evaluate(P.objectives[0], [0.5, 0.0])
    held = vopt.memo.memo(4)(lambda t: (t, P))
    assert held(1.0)[1] is P and len(held.store) == 1
    with pytest.raises(ValueError):
        P.lower[0] = 0.0


def test_a_mutable_value_is_refused():
    with pytest.raises(TypeError):
        vopt.memo.memo(4)(lambda P: [P])(1)


@pytest.mark.parametrize("a, b", [(1e-8, np.nextafter(1e-8, 1.0)), (0.0, -0.0)])
def test_a_float_argument_is_keyed_by_its_bits(a, b):
    calls = []
    scaled = vopt.memo.memo(4)(lambda t: calls.append(t) or 2.0 * t)
    assert scaled(a) == 2.0 * a and scaled(b) == 2.0 * b
    assert scaled(a) == 2.0 * a
    assert calls == [a, b] and len(scaled.store) == 2


def test_stores_stay_within_their_bounds_over_many_problems():
    made = []

    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 2))
    def visit(a, b, w):
        P = parse_problem(
            f"var x1 in [-1, 1]\nmin {w!r}*(x1 - {a!r})^2 + {len(made)}\nmin (x1 - {b!r})^2\n"
        )
        made.append(P)
        get_grid(P, 3)
        find_kt_points(P, grid=3)
        classify_point(P, [0.0])
        assert all(len(fn.store) <= fn.size for fn in MEMOISED)

    visit()
    assert len(made) >= 1000
    assert len(_grid.store) == vopt.memo.GRIDS
    assert len(find_kt_points.store) == len(local_model.store) == vopt.memo.RESULTS


PAPER = [["reproduce-example", i] for i in ("4.1", "5.1", "5.2")] + [
    ["classify", f"{f}.vopt", "--class", "all"] for f in ("exA", "exB", "exBprime", "exC")
]


def test_cache_order_does_not_change_a_report(tmp_path, capsys):
    path = tmp_path / "report.json"

    def run(argv):
        code = main([*argv, "--json", str(path)])
        capsys.readouterr()
        report = json.loads(path.read_text())
        report.pop("elapsed_ms")
        return code, report

    cold = {}
    for argv in PAPER:
        vopt.memo.clear()
        cold[tuple(argv)] = run(argv)
    assert all(code == 0 for code, _ in cold.values())
    for order in (PAPER, PAPER[::-1]):
        vopt.memo.clear()
        for argv in order:
            assert run(argv) == cold[tuple(argv)], argv
