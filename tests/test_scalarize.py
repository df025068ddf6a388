import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import PAPER_PASS

import vopt
import vopt.memo
import vopt.scalarize
from pathlib import Path

from vopt.cli import main
from vopt.gridsearch import descend, get_grid
from vopt.problem import InfeasiblePoint, load_problem, parse_problem
from vopt.scalarize import (
    POLISH_SEEDS,
    VALUE_WINDOW,
    BadWeights,
    NoFeasiblePointInBox,
    check_saddle,
    dominating_rival,
    lagrangian,
    relation_chain,
    solve_unconstrained,
    solve_weighting,
)

FIX = Path(vopt.__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def exA():
    return load_problem(FIX / "exA.vopt")


@pytest.fixture(scope="module")
def exB():
    return load_problem(FIX / "exB.vopt")


@pytest.fixture(scope="module")
def exC():
    return load_problem(FIX / "exC.vopt")


def _points(mset):
    return [m.point for m in mset.minimizers]


def _hits(points, target, atol=1e-4):
    return any(np.linalg.norm(p - np.asarray(target)) <= atol for p in points)


# ---------------------------------------------------------------------------
# Lagrangian values


def test_lagrangian_closed_form_on_axis(exA):
    for eps in (0.25, 0.5, 0.9):
        for l1 in (0.0, 0.3, 1.0):
            lam = (l1, 1.0 - l1)
            want = l1 * (eps**4 - 2 * eps**2) + (1 - l1) * (eps**2 - 1) ** 2
            assert lagrangian(exA, lam, None, [eps, 0.0]) == pytest.approx(want, abs=1e-12)


def test_lagrangian_even_split_at_origin(exA):
    assert lagrangian(exA, [0.5, 0.5], None, [0.0, 0.0]) == pytest.approx(0.5)


def test_lagrangian_reduces_to_single_objective(exA):
    assert lagrangian(exA, [1.0, 0.0], None, [0.3, 0.1]) == pytest.approx(
        (0.3**2 + 0.1**2) ** 2 - 2 * 0.3**2 + 2 * 0.1**2
    )


def test_lagrangian_with_constraint_weight(exA):
    assert lagrangian(exA, [1.0, 0.0], [2.0], [0.0, 0.0]) == pytest.approx(-2.0)


def test_weights_validated(exA):
    with pytest.raises(BadWeights):
        lagrangian(exA, [0.5, 0.4], None, [0.0, 0.0])
    with pytest.raises(BadWeights):
        lagrangian(exA, [1.5, -0.5], None, [0.0, 0.0])
    with pytest.raises(BadWeights):
        lagrangian(exA, [1.0, 0.0], [-1.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# saddle checks


def test_saddle_counterexample_at_origin(exA):
    v = check_saddle(exA, [0.5, 0.5], [0.0, 0.0], [0.0])
    assert v.left_ok
    assert v.right_status == "Counterexample"
    assert v.counterexample is not None and exA.in_box(v.counterexample)
    # re-verify the gap from raw evaluations
    L0 = lagrangian(exA, [0.5, 0.5], [0.0], [0.0, 0.0])
    Lc = lagrangian(exA, [0.5, 0.5], [0.0], v.counterexample)
    assert Lc < L0 - 1e-9
    assert v.gap == pytest.approx(L0 - Lc, abs=1e-12)
    assert v.gap >= 0.9  # hand value: minimum of L is -0.5 against 0.5


def test_saddle_holds_at_boundary_minimizer(exA):
    v = check_saddle(exA, [1.0, 0.0], [1.0, 0.0], [0.0])
    assert v.is_saddle
    assert v.counterexample is None


def test_saddle_left_fails_without_complementarity(exA):
    v = check_saddle(exA, [0.5, 0.5], [0.0, 0.0], [1.0])
    assert not v.left_ok


def test_saddle_counterexample_must_clear_the_lagrangian_margin():
    # L(-1) undercuts L(0) by 1e-7, under the margin 1e-5*(1 + |L|)
    P = parse_problem("var x in [-1, 1]\nmin 1e-7*x^3\nmin 1e-7*x^3\n")
    v = check_saddle(P, [1.0, 0.0], [0.0], ())
    assert v.is_saddle and v.counterexample is None and v.gap is None
    steep = parse_problem("var x in [-1, 1]\nmin 1e-4*x^3\nmin 1e-4*x^3\n")
    v = check_saddle(steep, [1.0, 0.0], [0.0], ())
    assert v.right_status == "Counterexample" and v.gap == pytest.approx(1e-4)


def test_saddle_rejects_point_outside_box(exA):
    with pytest.raises(ValueError):
        check_saddle(exA, [1.0, 0.0], [5.0, 0.0], [0.0])


# ---------------------------------------------------------------------------
# weighting / unconstrained solvers


def test_weighting_first_objective(exB):
    out = solve_weighting(exB, [1.0, 0.0])
    pts = _points(out)
    assert out.value == pytest.approx(-1.0, abs=1e-6)
    assert _hits(pts, [1.0, 0.0]) and _hits(pts, [-1.0, 0.0])
    assert len(pts) == 2


def test_weighting_second_objective_constrained(exA):
    out = solve_weighting(exA, [0.0, 1.0])
    pts = _points(out)
    assert out.value == pytest.approx(0.0, abs=1e-6)
    assert _hits(pts, [1.0, 0.0]) and _hits(pts, [-1.0, 0.0])


def test_weighting_respects_feasibility(exA):
    # lam = (1,0): f1's unconstrained minimizers (+-1,0) sit exactly on the
    # disk boundary, so the feasible value matches the free one.
    out = solve_weighting(exA, [1.0, 0.0])
    assert out.value == pytest.approx(-1.0, abs=1e-6)
    for m in out.minimizers:
        assert abs(m.point[0] ** 2 + m.point[1] ** 2 - 1.0) <= 1e-4


def test_weighting_constant_objective():
    P = parse_problem("var x1 in [0, 1]\nmin 3\n")
    out = solve_weighting(P, [1.0])
    assert out.value == pytest.approx(3.0)
    assert len(out.minimizers) <= 128
    assert all(m.value == pytest.approx(3.0) for m in out.minimizers)


def test_weighting_no_feasible_point():
    P = parse_problem("var x1 in [0, 1]\nmin x1\nst 1 <= 0\n")
    with pytest.raises(NoFeasiblePointInBox):
        solve_weighting(P, [1.0])


def test_unconstrained_matches_weighting_when_inactive(exB):
    w = solve_weighting(exB, [1.0, 0.0])
    u = solve_unconstrained(exB, [1.0, 0.0])
    assert u.value == pytest.approx(w.value, abs=1e-9)


def test_unconstrained_corner_minimum(exC):
    out = solve_unconstrained(exC, [0.0, 1.0])
    pts = _points(out)
    assert len(pts) == 1
    np.testing.assert_allclose(pts[0], [3.0, -3.0], atol=1e-9)
    assert out.value == pytest.approx(-6.0, abs=1e-9)


def test_unconstrained_with_positive_mu(exA):
    out = solve_unconstrained(exA, [1.0, 0.0], [10.0])
    pts = _points(out)
    assert _hits(pts, [0.0, 0.0])
    assert out.value == pytest.approx(-10.0, abs=1e-6)


def test_minimizers_reevaluate_and_stay_in_box(exA, exB, exC):
    runs = [
        (exA, [0.3, 0.7], solve_weighting(exA, [0.3, 0.7])),
        (exB, [0.5, 0.5], solve_weighting(exB, [0.5, 0.5])),
        (exC, [0.2, 0.8], solve_unconstrained(exC, [0.2, 0.8])),
    ]
    for P, lam, out in runs:
        assert out.minimizers
        for m in out.minimizers:
            assert P.in_box(m.point, slack=1e-12)
            assert lagrangian(P, lam, None, m.point) == pytest.approx(m.value, abs=1e-9)
        # pairwise separation invariant
        for i, a in enumerate(out.minimizers):
            for b in out.minimizers[i + 1 :]:
                assert np.linalg.norm(a.point - b.point) > 1e-4


def test_weighting_value_concave_in_lambda(exA):
    ts = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    vals = [solve_weighting(exA, [t, 1.0 - t]).value for t in ts]
    for k in range(1, len(ts) - 1):
        mid = vals[k]
        chord = 0.5 * (vals[k - 1] + vals[k + 1])
        assert mid >= chord - 1e-6


# ---------------------------------------------------------------------------
# relation chain


def test_chain_full_membership_at_boundary(exA):
    r = relation_chain(exA, [1.0, 0.0], [0.0], [1.0, 0.0])
    assert r.in_scalarized_argmin
    assert r.in_weighting_argmin
    assert r.weak_pareto
    assert r.kt
    assert r.anomalies == ()


def test_chain_kt_but_not_weak_pareto_at_origin(exA):
    r = relation_chain(exA, [0.5, 0.5], [0.0], [0.0, 0.0])
    assert r.kt
    assert not r.weak_pareto
    assert r.domination_witness is not None
    w = r.domination_witness
    f0 = [lagrangian(exA, [1.0, 0.0], None, [0.0, 0.0]), lagrangian(exA, [0.0, 1.0], None, [0.0, 0.0])]
    fw = [lagrangian(exA, [1.0, 0.0], None, w), lagrangian(exA, [0.0, 1.0], None, w)]
    assert fw[0] < f0[0] - 1e-9 and fw[1] < f0[1] - 1e-9
    assert not r.in_weighting_argmin
    assert not r.in_scalarized_argmin
    assert r.anomalies == ()


def test_chain_reads_the_nearest_dominating_rival(exC):
    x = np.array([1.0, -1.0])
    r = relation_chain(exC, [0.5, 0.5], [0.0], x)
    w = dominating_rival(exC, x)
    assert not r.weak_pareto and np.array_equal(r.domination_witness, w.rival)
    assert all(b < a for a, b in zip(w.point_values, w.rival_values))
    data = get_grid(exC)
    beats = data.feasible & (data.F < (np.array(w.point_values) - 1e-6)[:, None]).all(axis=0)
    nearest = np.linalg.norm(data.pts[:, beats] - x[:, None], axis=0).min()
    assert np.linalg.norm(w.rival - x) <= nearest + 1e-12


def test_chain_without_kt_pair_leaves_the_argmin_memberships_open(exA):
    r = relation_chain(exA, None, None, [1.0, 0.0])
    assert r.in_scalarized_argmin is None and r.in_weighting_argmin is None
    assert r.weak_pareto and r.kt and r.anomalies == ()


def test_chain_rejects_infeasible(exA):
    with pytest.raises(InfeasiblePoint):
        relation_chain(exA, [1.0, 0.0], [0.0], [2.0, 2.0])


def test_saddle_roundtrip_with_unconstrained_argmin(exA):
    # argmin of L(., 0) at (1,0) with complementarity => saddle verdict
    out = solve_unconstrained(exA, [1.0, 0.0], [0.0])
    assert any(np.linalg.norm(m.point - [1, 0]) < 1e-4 for m in out.minimizers)
    v = check_saddle(exA, [1.0, 0.0], [1.0, 0.0], [0.0])
    assert v.is_saddle
    # and the saddle point is grid-minimal for L
    L1 = lagrangian(exA, [1.0, 0.0], [0.0], [1.0, 0.0])
    assert L1 <= out.value + 1e-6


# ---------------------------------------------------------------------------
# the polish against an independent optimiser


def _wavy_field(a, b, w, A, k, c, d, lam):
    """f1 = w1(x1-a)^2 + w2(x2-b)^2 + A sin(k1 x1 + k2 x2), f2 = |x - (c, d)|^2:
    the weighted field and its gradient as numpy callables."""
    def phi(x):
        f1 = w[0] * (x[0] - a) ** 2 + w[1] * (x[1] - b) ** 2 + A * np.sin(k[0] * x[0] + k[1] * x[1])
        return lam[0] * f1 + lam[1] * ((x[0] - c) ** 2 + (x[1] - d) ** 2)

    def dphi(x):
        s = A * np.cos(k[0] * x[0] + k[1] * x[1])
        return np.array([
            lam[0] * (2 * w[0] * (x[0] - a) + s * k[0]) + lam[1] * 2 * (x[0] - c),
            lam[0] * (2 * w[1] * (x[1] - b) + s * k[1]) + lam[1] * 2 * (x[1] - d),
        ])

    return phi, dphi


coord = st.floats(-3.0, 3.0)  # some minima fall on or outside the box faces


@given(a=coord, b=coord, w=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
       A=st.floats(0.0, 0.5), k=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       c=coord, d=coord, l1=st.floats(0.0, 1.0),
       disk=st.none() | st.tuples(st.just("inside"), st.floats(0.5, 6.0))
       | st.tuples(st.just("outside"), st.floats(0.3, 3.0)))
@example(a=-0.5682894088404153, b=1.3150238605938416, w=(2.0424730285128323, 1.9101021997178733),
         A=0.05952962768850001, k=(0.9781317002122434, 1.935986870644515),
         c=0.11518913963173394, d=0.9347622082402522, l1=0.9680567336209409, disk=None)
@example(a=-2.5, b=0.011, w=(0.1, 1.0), A=0.0, k=(0.0, 0.0), c=0.0, d=0.0, l1=1.0, disk=None)
@example(a=-2.4879662953840396, b=-0.30610807612442237, w=(2.5745985804726446, 0.6204210289393262),
         A=0.2376123121460118, k=(0.4950135104111464, 1.6189218690049145),
         c=-1.252821614124762, d=0.1673102679830416, l1=0.9409769625013746,
         disk=("inside", 1.876519703087692))
@example(a=1.174268116874746, b=-1.8271049221404219, w=(1.640526757308496, 2.539408519480406),
         A=0.24326021665157743, k=(-0.14433077939803907, -1.4503535995347787),
         c=2.8310244996666727, d=1.0269046817363758, l1=0.15613548139069233,
         disk=("inside", 2.279051447202294))
@example(a=0.021934790836109386, b=-0.9718045759082172, w=(2.549714391956017, 2.3771971678262647),
         A=0.22364441188545736, k=(1.277345638378966, -2.79366179849497),
         c=1.9609136332165393, d=-0.714224435202583, l1=0.3897984038818372,
         disk=("outside", 2.6229009527293994))
@settings(max_examples=40, deadline=None)
def test_polish_is_no_worse_than_scipy_from_the_best_cells(a, b, w, A, k, c, d, l1, disk):
    # the first pinned field is a stiff valley: with a sufficient-decrease
    # constant of 1e-4, every descent on it ends at the 300-step cap with
    # |grad| ~ 1e-2, and the one descent from the best grid cell misses the
    # minimum.  The second has its minimum on the face x1 = -2 with a steep
    # outward slope: a decrease test that counts the clipped-away part of the
    # gradient refuses every step along the face.  The two inside-disk fields
    # have their minimum on the circle: on the first, the grid-local minimum
    # of the staircase of admissible cells lies in the wrong boundary basin;
    # the second sits 0.5 from the face x1 = 2, so a long trial step leaves
    # the box, and clipping it before it is pulled back onto the circle would
    # turn it sideways.  The last field is feasible outside a disk: a
    # pull-back that stops once g <= 0 overshoots into the feasible side of
    # the concave constraint, and the descent parks beside the circle, 7e-6
    # above SLSQP.
    lam = (l1, 1.0 - l1)
    kind, r = disk or (None, 0.0)
    side = -1.0 if kind == "outside" else 1.0  # feasible iff side·(x·x - r) <= 0
    constraint = {None: "", "inside": f"st x1^2 + x2^2 - ({r!r}) <= 0\n",
                  "outside": f"st ({r!r}) - x1^2 - x2^2 <= 0\n"}[kind]
    text = (
        "var x1 in [-2, 2]\nvar x2 in [-2, 2]\n"
        f"min ({w[0]!r})*(x1 - ({a!r}))^2 + ({w[1]!r})*(x2 - ({b!r}))^2"
        f" + ({A!r})*sin(({k[0]!r})*x1 + ({k[1]!r})*x2)\n"
        f"min (x1 - ({c!r}))^2 + (x2 - ({d!r}))^2\n" + constraint
    )
    P = parse_problem(text)
    got = (solve_unconstrained(P, lam) if disk is None else solve_weighting(P, lam)).value

    phi, dphi = _wavy_field(a, b, w, A, k, c, d, lam)
    axis = np.linspace(-2.0, 2.0, 201)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    cells = np.stack([X1.ravel(), X2.ravel()])
    field = phi(cells)
    oracle = {"method": "L-BFGS-B", "options": {"ftol": 1e-15, "gtol": 1e-12}}
    if disk is not None:
        field = np.where(side * ((cells**2).sum(axis=0) - r) <= 0, field, np.inf)
        g = {"type": "ineq", "fun": lambda x: side * (r - x @ x), "jac": lambda x: -2.0 * side * x}
        oracle = {"method": "SLSQP", "constraints": [g], "options": {"ftol": 1e-15, "maxiter": 500}}
    runs = [minimize(phi, x0, jac=dphi, bounds=[(-2.0, 2.0)] * 2, **oracle)
            for x0 in cells.T[np.argsort(field, kind="stable")[:POLISH_SEEDS]]]
    if disk is not None:  # SLSQP may end just infeasible; keep feasible results
        runs = [o for o in runs if side * (o.x @ o.x - r) <= 1e-9 * (1.0 + abs(o.x @ o.x - r))]
    best = min(o.fun for o in runs)
    assert got <= best + VALUE_WINDOW * (1.0 + abs(best))


# ---------------------------------------------------------------------------
# the descent budget of one paper-examples pass


@pytest.fixture
def descents(monkeypatch):
    """Gradient evaluations of each descent `_polished_min` runs, in order:
    one per iteration of the descent's loop."""
    steps = []
    inner = vopt.scalarize.descend

    def counted(phi, dphi, *args, **kwargs):
        steps.append(0)

        def counting_dphi(x):
            steps[-1] += 1
            return dphi(x)

        return inner(phi, counting_dphi, *args, **kwargs)

    monkeypatch.setattr(vopt.scalarize, "descend", counted)
    return steps


def test_paper_pass_descends_each_basin_once_and_converges(descents, capsys):
    vopt.memo.clear()
    for argv in PAPER_PASS:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert 0 < len(descents) <= 70
    assert max(descents) < 300  # no descent runs into its step cap


def test_boundary_basin_descends_once_to_the_exact_minimiser(descents):
    # the field is least at (1, 0), on the straight boundary x2 = 0: when
    # every edge cell among the best descended, 16 descents reached that one
    # point and the report read x1 = 0.9999999925513703
    out = solve_weighting(load_problem(FIX / "exBprime.vopt"), [0.5, 0.5])
    assert len(descents) <= 2
    assert [tuple(m.point) for m in out.minimizers] == [(1.0, 0.0)]


def test_flat_boundary_basin_is_crossed_without_crawling(descents):
    # outside the disk x·x >= 2 the field is least at (±√2, 0) and rises along
    # the circle by only 0.0185·sin²θ.  A full gradient step through the disk,
    # pulled back onto the circle, adds the chord's sag to the predicted
    # decrease, so only short steps passed: every descent crawled to its
    # 300-step cap and the report read 2.1691396
    w1, l1 = 1.676466171775222, 0.125
    P = parse_problem("var x1 in [-2, 2]\nvar x2 in [-2, 2]\n"
                      f"min ({w1!r})*x1^2 + 1.75*x2^2\nmin x1^2 + x2^2\nst 2 - x1^2 - x2^2 <= 0\n")
    out = solve_weighting(P, [l1, 1.0 - l1])
    assert max(descents) < 300
    assert out.value == pytest.approx(2.0 * (l1 * w1 + 1.0 - l1), rel=1e-12)


def test_descend_takes_the_exact_line_minimiser_of_a_quadratic():
    # from 0.98 the halved step lands on 1 exactly, where the gain is exactly
    # half the predicted decrease: a strict test refused it, and the descent
    # took 21 gradient evaluations to stop at 0.9999999905
    calls = []

    def dphi(x):
        calls.append(x)
        return 2.0 * (x - 1.0)

    x, fx = descend(lambda x: float((x[0] - 1.0) ** 2), dphi, [0.98], np.array([-2.0]), np.array([2.0]))
    assert (x[0], fx, len(calls)) == (1.0, 0.0, 2)
