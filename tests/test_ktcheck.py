import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vopt
import vopt.expr
import vopt.ktcheck
import vopt.linprog
import vopt.memo
import vopt.problem
from pathlib import Path

from _oracles import supported_on
from conftest import PAPER_PASS
from vopt.cli import main
from vopt.gridsearch import find_kt_points
from vopt.ktcheck import (
    FIRST_ORDER_ONLY,
    FRITZ_JOHN,
    NOT_STATIONARY,
    SECOND_ORDER_KT,
    NotCritical,
    classify_point,
    first_order_kt,
    primal_necessary,
    second_order_multipliers,
)
from vopt.problem import analyze_direction, load_problem, parse_problem, sample_critical_directions

FIX = Path(vopt.__file__).parent / "fixtures"

ROOT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def exA():
    return load_problem(FIX / "exA.vopt")


@pytest.fixture(scope="module")
def exB():
    return load_problem(FIX / "exB.vopt")


@pytest.fixture(scope="module")
def exBprime():
    return load_problem(FIX / "exBprime.vopt")


@pytest.fixture(scope="module")
def exC():
    return load_problem(FIX / "exC.vopt")


# ---------------------------------------------------------------------------
# first-order


def test_first_order_at_disk_boundary(exA):
    pair = first_order_kt(exA, [1.0, 0.0])
    assert pair is not None
    np.testing.assert_allclose(pair.mu, [0.0], atol=1e-7)
    assert pair.lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert (pair.lam >= 0).all()
    assert pair.residual <= 1e-7


def test_first_order_segment_multipliers(exC):
    # Gradients (2,-2) and (-1,1): cancellation forces lam = (1/3, 2/3).
    pair = first_order_kt(exC, [1.0, -1.0])
    assert pair is not None
    np.testing.assert_allclose(pair.lam, [1 / 3, 2 / 3], atol=1e-6)
    np.testing.assert_allclose(pair.mu, [0.0], atol=1e-9)
    assert pair.residual <= 1e-7


def test_first_order_none_off_stationary_set(exA):
    assert first_order_kt(exA, [0.5, 0.0]) is None


def test_first_order_at_origin(exA):
    pair = first_order_kt(exA, [0.0, 0.0])
    assert pair is not None
    np.testing.assert_allclose(pair.mu, [0.0], atol=1e-9)


def test_first_order_boundary_of_quadrant(exBprime):
    # At (1,0) the second coordinate needs mu_2 = 4 lam_1 + 2 lam_2 >= 2.
    pair = first_order_kt(exBprime, [1.0, 0.0])
    assert pair is not None
    assert pair.mu[0] == pytest.approx(0.0, abs=1e-9)
    assert pair.mu[1] >= 2.0 - 1e-6
    assert pair.residual <= 1e-7


def test_first_order_fritz_john_normalization(exBprime):
    pair = first_order_kt(exBprime, [1.0, 0.0], normalization=FRITZ_JOHN)
    assert pair is not None
    total = pair.lam.sum() + pair.mu.sum()
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# second-order along single directions


def test_second_order_none_at_unconstrained_origin(exB):
    # Both Hessians are diag(-4, 4) at the origin: along (1,0) every convex
    # combination has curvature -4.
    pair = second_order_multipliers(exB, [0.0, 0.0], [1.0, 0.0])
    assert pair is None


def test_second_order_some_on_disk_boundary(exA):
    pair = second_order_multipliers(exA, [1.0, 0.0], [0.0, 1.0])
    assert pair is not None
    assert pair.curvature is not None and pair.curvature >= -1e-9
    assert pair.residual <= 1e-7
    assert supported_on(pair, (0, 1), (0,))


def test_second_order_none_on_segment(exC):
    d = np.array([1.0, 1.0]) / ROOT2
    assert second_order_multipliers(exC, [1.0, -1.0], d) is None


def test_second_order_zero_direction_reduces_to_first_order(exC):
    pair = second_order_multipliers(exC, [1.0, -1.0], [0.0, 0.0])
    assert pair is not None
    np.testing.assert_allclose(pair.lam, [1 / 3, 2 / 3], atol=1e-6)
    assert pair.curvature == pytest.approx(0.0, abs=1e-12)


def test_second_order_rejects_noncritical_direction(exA):
    with pytest.raises(NotCritical):
        second_order_multipliers(exA, [1.0, 0.0], [1.0, 0.0])


def test_second_order_pair_is_supported_on_fixtures(exA, exC):
    # complementarity along d: the oracle masks no column, yet every pair
    # lies on I(x, d) and J(x, d)
    for P, x, d in [
        (exA, [1.0, 0.0], [0.0, 1.0]),
        (exC, [1.0, -1.0], np.array([1.0, 1.0]) / ROOT2),
        (exC, [1.0, -1.0], [0.0, 0.0]),
    ]:
        pair = second_order_multipliers(P, x, d)
        da = analyze_direction(P, x, d)
        assert pair is None or supported_on(pair, da.zero_objectives, da.zero_constraints, 0.0)


# ---------------------------------------------------------------------------
# classification


def test_classify_origin_first_order_only(exA):
    v = classify_point(exA, [0.0, 0.0])
    assert v.level == FIRST_ORDER_ONLY
    assert v.first_order is not None
    assert v.directions_tested > 0
    assert any(o.multipliers is None for o in v.per_direction)


def test_classify_boundary_second_order(exA):
    for x in ([1.0, 0.0], [-1.0, 0.0]):
        v = classify_point(exA, x)
        assert v.level == SECOND_ORDER_KT
        assert all(o.multipliers is not None for o in v.per_direction)
        assert v.directions_tested > 0


def test_classify_not_stationary(exA):
    v = classify_point(exA, [0.5, 0.0])
    assert v.level == NOT_STATIONARY
    assert v.first_order is None
    assert v.directions_tested == 0


def test_classify_point_takes_each_gradient_once(exC, monkeypatch):
    # One LocalModel per point: n + |A(x)| gradients, here 2 + 0 at (1, -1).
    calls = []
    real = vopt.expr.grad

    def counted(e, x):
        calls.append(e)
        return real(e, x)

    for mod in [m for name, m in sys.modules.items() if name.startswith("vopt")]:
        if getattr(mod, "grad", None) is real:
            monkeypatch.setattr(mod, "grad", counted)
    v = classify_point(exC, [1.0, -1.0])
    assert v.directions_tested > 0
    assert v.per_direction[0].analysis.active.indices == ()
    assert len(calls) == 2
    # warm: the same content again reads the memoised model and takes no gradient
    calls.clear()
    again = classify_point(exC, [1.0, -1.0])
    assert again.per_direction[0].analysis.model is v.per_direction[0].analysis.model
    assert calls == []


def test_classify_deterministic(exA):
    a = classify_point(exA, [0.0, 0.0])
    vopt.memo.clear()  # rebuild the model, so the second verdict is not read off the first one
    b = classify_point(exA, [0.0, 0.0])
    assert a.level == b.level
    assert a.directions_tested == b.directions_tested
    for oa, ob in zip(a.per_direction, b.per_direction):
        np.testing.assert_array_equal(oa.analysis.direction, ob.analysis.direction)


# ---------------------------------------------------------------------------
# primal necessary condition


def test_primal_inconsistent_on_disk_boundary(exA):
    v = primal_necessary(exA, [1.0, 0.0], [0.0, 1.0])
    assert v.status == "Inconsistent"
    assert v.lam is not None and v.lam.sum() + v.mu.sum() == pytest.approx(1.0, abs=1e-9)


def test_primal_consistent_on_segment(exC):
    d = np.array([1.0, 1.0]) / ROOT2
    v = primal_necessary(exC, [1.0, -1.0], d)
    assert v.status == "Consistent"
    z = v.witness
    assert z is not None
    # re-verify the strict system by direct evaluation
    assert 2 * z[0] - 2 * z[1] + (-1.0) < 0
    assert -z[0] + z[1] + 0.0 < 0


def test_primal_inconsistent_when_gradients_vanish(exB):
    v = primal_necessary(exB, [1.0, 0.0], [0.0, 1.0])
    assert v.status == "Inconsistent"


def test_primal_empty_index_sets(exA):
    # At (0.5,0) along (1,0) both objective products are -1.5: critical with
    # no zero products at all.
    v = primal_necessary(exA, [0.5, 0.0], [1.0, 0.0])
    assert v.status == "EmptyIndexSets"


def test_duality_consistency_across_fixture_pairs(exA, exB, exC):
    cases = []
    for P, x in [
        (exA, [1.0, 0.0]),
        (exA, [0.0, 0.0]),
        (exB, [0.0, 0.0]),
        (exB, [1.0, 0.0]),
        (exC, [1.0, -1.0]),
    ]:
        found = sample_critical_directions(P, x)
        assert found, x
        cases.extend((P, x, da) for da in found)
    for P, x, da in cases:
        v = primal_necessary(P, x, da)
        if v.status == "EmptyIndexSets":
            continue
        pair = second_order_multipliers(P, x, da, normalization=FRITZ_JOHN)
        assert v.inconsistent == (pair is not None), (x, da.direction)


# ---------------------------------------------------------------------------
# invariance


@given(c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=15, deadline=None)
def test_classification_invariant_under_objective_scaling(c):
    text = (
        "var x1 in [-2, 2]\n"
        "var x2 in [-2, 2]\n"
        f"min {c!r}*((x1^2 + x2^2)^2 - 2*x1^2 + 2*x2^2)\n"
        "min (x1^2 - 1)^2 + 2*x2^2\n"
        "st  x1^2 + x2^2 - 1 <= 0\n"
    )
    P = parse_problem(text)
    assert classify_point(P, [0.0, 0.0]).level == FIRST_ORDER_ONLY
    assert classify_point(P, [1.0, 0.0]).level == SECOND_ORDER_KT
    assert classify_point(P, [0.5, 0.0]).level == NOT_STATIONARY


def test_recession_ray_lifts_the_curvature():
    # At the origin grad g1 = (0, -1) and grad g2 = (0, 1) cancel, so the
    # multiplier set is unbounded along mu = (1, 1).  Along d = (1, 0) every
    # vertex bends down (f_i'' = -6, g_j'' = 2) and only a pair far out on
    # that recession ray certifies the second-order condition.
    P = parse_problem("var x1 in [-1, 1]\nvar x2 in [-1, 1]\n"
                      "min x2 - 3*x1^2\nmin 2*x2 - 3*x1^2\n"
                      "st x1^2 - x2 <= 0\nst x1^2 + x2 <= 0\n")
    grads = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, -1.0], [0.0, 1.0]])
    hessians = np.array([np.diag([-6.0, 0.0])] * 2 + [np.diag([2.0, 0.0])] * 2)
    norms = np.linalg.norm(grads, axis=1)  # the stationarity band on these rows, loosest form
    for normalization in ("SumLambdaOne", FRITZ_JOHN):
        v = classify_point(P, [0.0, 0.0], normalization=normalization)
        assert v.level == SECOND_ORDER_KT and v.directions_tested > 0
        for o in v.per_direction:
            w, d = np.concatenate([o.multipliers.lam, o.multipliers.mu]), o.analysis.direction
            band = 1e-8 * (w @ (norms + np.maximum(norms, 1.0)))
            assert (w >= 0).all() and np.abs(w @ grads).max() <= band
            assert d @ np.tensordot(w, hessians, axes=1) @ d >= 0.0


# ---------------------------------------------------------------------------
# simplex regressions

# highdim-audit seed 5 problem 11 of the benchmark generator
HIGHDIM_5_11 = """
var x1 in [-2.0, 2.0]
var x2 in [-2.0, 2.0]
var x3 in [-2.0, 2.0]
var x4 in [-2.0, 2.0]
min 0.587*(x1 + 0.702)^2 + 0.484*(x2 - 0.639)^2 + 0.568*(x3 - 0.689)^2 + 0.747*(x4 - 0.543)^2 + 0.105*x3^4 - 0.359*exp(0.331*x1)
min 0.472*(x1 - 0.778)^2 + 0.483*(x2 + 0.642)^2 + 1.09*(x3 + 0.864)^2 + 0.439*(x4 + 0.816)^2 - 1.378*sin(x2 + x3) + 0.495*log(1 + x4^2)
st x1^2 + x2^2 + x3^2 + x4^2 - 2.575 <= 0
st -0.314*x1 - 0.409*x2 + 0.954*x3 - 0.783*x4 - 1.15 <= 0
"""


def test_first_order_when_the_ratio_test_minimum_is_below_minus_one():
    # A ratio below -1 made the Bland tie window best + 1e-9 (1 + best) fall
    # below best, so no row tied and the pivot search raised ValueError.  The
    # oracle solves no LP here now; test_linprog.py keeps the simplex cases.
    P = parse_problem(HIGHDIM_5_11)
    x = [
        float.fromhex(h)
        for h in ("0x1.7814b5d540248p-4", "0x1.315233194a26fp-1",
                  "-0x1.f273c58938fe4p-6", "-0x1.67b96d551527ep-6")
    ]
    pair = first_order_kt(P, x)
    assert pair is not None
    assert pair.lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert pair.residual <= 1e-7


# ---------------------------------------------------------------------------
# second-order certificates: no LP per multiplier question


def test_paper_pass_lp_budget(monkeypatch, capsys):
    # Every multiplier question is read off the extreme rays of the multiplier
    # cone, so a paper pass solves no LP; each direction built is tested once.
    lps, built, tested = [], [], []
    solve, directions = vopt.linprog.solve_lp, vopt.problem.LocalModel.directions
    outcome = vopt.ktcheck.DirectionOutcome

    def counted_solve(p):
        lps.append(p)
        return solve(p)

    def counted_directions(self, D):
        out = directions(self, D)
        built.extend(out)
        return out

    def counted_outcome(**kw):
        tested.append(kw)
        return outcome(**kw)

    for name, module in list(sys.modules.items()):  # every binding of solve_lp
        if name.split(".")[0] == "vopt" and getattr(module, "solve_lp", None) is solve:
            monkeypatch.setattr(module, "solve_lp", counted_solve)
    monkeypatch.setattr(vopt.problem.LocalModel, "directions", counted_directions)
    monkeypatch.setattr(vopt.ktcheck, "DirectionOutcome", counted_outcome)
    vopt.memo.clear()
    for argv in PAPER_PASS:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert len(lps) == 0
    assert 0 < len(built) <= len(tested)


def test_paper_pass_model_budget(monkeypatch, capsys):
    # Every per-point question reads the memoised model, so a paper pass
    # builds one model per bit-distinct point its scans and commands ask
    # about, and enumerates the rays of each model at most once.  A model
    # per question would make 129 models and 118 enumerations.
    models, enumerations = [], []
    init, rays = vopt.problem.LocalModel.__init__, vopt.problem.LocalModel.__dict__["rays"]
    enumerate_rays = rays.func

    def counted_init(self, *args, **kwargs):
        models.append(self)
        init(self, *args, **kwargs)

    def counted_rays(self):
        enumerations.append(self)
        return enumerate_rays(self)

    monkeypatch.setattr(vopt.problem.LocalModel, "__init__", counted_init)
    monkeypatch.setattr(rays, "func", counted_rays)
    vopt.memo.clear()
    for argv in PAPER_PASS:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert 0 < len(models) <= 79
    assert 0 < len(enumerations) <= 68
    assert len({id(m) for m in enumerations}) == len(enumerations)


# closed forms of the fixtures' objectives and constraints: (value, gradient,
# Hessian) of each, for a check that does not go through vopt's derivatives
def _quartic_disk_pair(x1, x2):
    r2 = x1 * x1 + x2 * x2
    f1 = (r2 * r2 - 2 * x1**2 + 2 * x2**2, [4 * x1 * r2 - 4 * x1, 4 * x2 * r2 + 4 * x2],
          [[4 * r2 + 8 * x1**2 - 4, 8 * x1 * x2], [8 * x1 * x2, 4 * r2 + 8 * x2**2 + 4]])
    f2 = ((x1**2 - 1) ** 2 + 2 * x2**2, [4 * x1 * (x1**2 - 1), 4 * x2], [[12 * x1**2 - 4, 0], [0, 4]])
    g = (r2 - 1, [2 * x1, 2 * x2], [[2, 0], [0, 2]])
    return [f1, f2], [g]


def _segment_pair(x1, x2):
    f1 = (2 * x1 * x2 - 2 * x1**2 - x2**2 + 8 * x1 - 6 * x2,
          [2 * x2 - 4 * x1 + 8, 2 * x1 - 2 * x2 - 6], [[-4, 2], [2, -2]])
    f2 = (-x1 + x2, [-1, 1], [[0, 0], [0, 0]])
    g = (x1 - x1**2 + x2, [1 - 2 * x1, 1], [[-2, 0], [0, 0]])
    return [f1, f2], [g]


def _certificates_hold(P, x, closed):
    """Every direction classify_point tests: its pair exists exactly when the
    second-order LP finds one, and re-verifies in plain numpy from the closed
    forms: signs, support, Σλ = 1, curvature and the stationarity band."""
    tol = 1e-8
    fs, gs = closed(*x)
    Gf, Gg = (np.array([r[1] for r in rows], dtype=float).reshape(-1, 2) for rows in (fs, gs))
    v = classify_point(P, x)
    for o in v.per_direction:
        pair, d = o.multipliers, o.analysis.direction
        assert (pair is None) == (second_order_multipliers(P, x, o.analysis) is None)
        if pair is None:
            continue
        lam, mu = pair.lam, pair.mu
        assert (lam >= 0).all() and (mu >= 0).all()
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        for j, (gj, _, _) in enumerate(gs):
            assert mu[j] == 0.0 or abs(gj) <= 2 * tol * (1 + abs(gj))
        assert supported_on(pair, o.analysis.zero_objectives, o.analysis.zero_constraints, 0.0)
        curvature = sum(w * d @ np.array(h, dtype=float) @ d
                        for w, (_, _, h) in zip((*lam, *mu), (*fs, *gs)))
        assert curvature >= -tol and pair.curvature == pytest.approx(curvature, abs=1e-9)
        # the band of LocalModel.multipliers, with rows scaled by max(|row|, 1)
        # and Σλ = 1 on the scaled rows
        fn, gn = np.linalg.norm(Gf, axis=1), np.linalg.norm(Gg, axis=1)
        scaled = lam @ np.maximum(fn, 1.0)
        residual = np.abs(lam @ Gf + mu @ Gg).max()
        assert residual <= tol * (scaled + lam @ fn + mu @ gn) * (1 + 1e-6) + 1e-12 * scaled


@pytest.mark.parametrize("name, x, closed", [
    ("exA", [0.0, 0.0], _quartic_disk_pair),
    ("exA", [1.0, 0.0], _quartic_disk_pair),
    ("exA", [-1.0, 0.0], _quartic_disk_pair),
    ("exC", [1.0, -1.0], _segment_pair),
])
def test_fixture_certificates_reverify(name, x, closed):
    _certificates_hold(load_problem(FIX / f"{name}.vopt"), np.array(x), closed)


_coef = st.integers(min_value=-3, max_value=3)
_quadratic = st.tuples(_coef, _coef, _coef, _coef, _coef)


@given(obj=st.lists(_quadratic, min_size=2, max_size=2),
       disk=st.sampled_from([None, 0.5, 1.0, 1.5]))
@settings(max_examples=40, deadline=None)
def test_quadratic_certificates_reverify(obj, disk):
    # f_i = a x1^2 + b x2^2 + c x1 x2 + p x1 + q x2, optionally on a disk
    text = "var x1 in [-2, 2]\nvar x2 in [-2, 2]\n" + "".join(
        f"min ({a})*x1^2 + ({b})*x2^2 + ({c})*x1*x2 + ({p})*x1 + ({q})*x2\n"
        for a, b, c, p, q in obj)
    if disk is not None:
        text += f"st x1^2 + x2^2 - {disk * disk!r} <= 0\n"
    P = parse_problem(text)

    def closed(x1, x2):
        fs = [(a * x1**2 + b * x2**2 + c * x1 * x2 + p * x1 + q * x2,
               [2 * a * x1 + c * x2 + p, 2 * b * x2 + c * x1 + q], [[2 * a, c], [c, 2 * b]])
              for a, b, c, p, q in obj]
        gs = [] if disk is None else [(x1**2 + x2**2 - disk * disk, [2 * x1, 2 * x2],
                                       [[2, 0], [0, 2]])]
        return fs, gs

    points = find_kt_points(P, grid=41)
    for x in points[:: -(-len(points) // 4) or 1]:  # at most four, spread along the list
        _certificates_hold(P, np.asarray(x, dtype=float), closed)
