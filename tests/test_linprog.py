import numpy as np
import pytest
from scipy.optimize import linprog

import vopt.linprog
from vopt.linprog import (
    LpProblem,
    MultiplierWitness,
    StrictWitness,
    decide_alternative,
    solve_lp,
    verify_certificate,
    _simplex,
)

from _oracles import multiplier_system_solvable, random_instance, strict_system_solvable


def test_known_optimum_and_duals():
    # max x1 + x2: optimum (3, 0.5), objective 3.5; both row prices 1/2
    out = solve_lp(
        LpProblem(
            c=np.array([1.0, 1.0]),
            A=np.array([[1.0, 2.0], [1.0, 0.0]]),
            b=np.array([4.0, 3.0]),
        )
    )
    assert out.status == "optimal"
    np.testing.assert_allclose(out.x, [3.0, 0.5], atol=1e-9)
    assert out.objective == pytest.approx(3.5)
    np.testing.assert_allclose(out.y, [0.5, 0.5], atol=1e-9)
    assert out.objective == pytest.approx(float(out.y @ [4.0, 3.0]))


def test_unbounded():
    # max x s.t. -x <= 0
    unb = solve_lp(LpProblem(np.array([1.0]), np.array([[-1.0]]), np.array([0.0])))
    assert unb.status == "unbounded"


def test_negative_rhs_is_rejected():
    # the slack basis is the starting vertex, so x = 0 must be feasible
    with pytest.raises(ValueError):
        solve_lp(LpProblem(np.zeros(1), np.array([[1.0]]), np.array([-1.0])))


def test_degenerate_rhs_terminates():
    # Bland's rule must leave this degenerate vertex without cycling
    out = solve_lp(
        LpProblem(
            c=np.array([0.75, -150.0, 0.02, -6.0]),
            A=np.array(
                [
                    [0.25, -60.0, -0.04, 9.0],
                    [0.5, -90.0, -0.02, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b=np.array([0.0, 0.0, 1.0]),
        )
    )
    assert out.status == "optimal"
    assert out.objective == pytest.approx(0.05)


def test_ratio_test_minimum_below_minus_one_keeps_a_tied_row():
    # A rounded-negative rhs over a tiny pivot gives the ratio -4/3; the Bland
    # tie window best + tol·(1 + best) then fell below best and no row tied.
    T = np.array([[1.5e-12, 1.0, 0.0], [1.0, 0.0, 1.0]])
    b = np.array([-2e-12, 1.0])
    *_, status = _simplex(T, b, [1, 2], np.array([-1.0, 0.0, 0.0]))
    assert status == "optimal"


def test_strict_side_simple():
    # single strict column (2, 0): x = (-1, 0) works
    cert = decide_alternative(np.array([[2.0], [0.0]]))
    assert isinstance(cert, StrictWitness)
    assert verify_certificate(cert, np.array([[2.0], [0.0]]))


def test_multiplier_side_zero_matrix():
    A = np.zeros((2, 2))
    cert = decide_alternative(A)
    assert isinstance(cert, MultiplierWitness)
    assert verify_certificate(cert, A)
    assert cert.y.sum() == pytest.approx(1.0)


def test_opposed_columns_force_multipliers():
    # columns g and -g cannot both be strictly negative against any x
    A = np.array([[1.0, -1.0], [2.0, -2.0]])
    cert = decide_alternative(A)
    assert isinstance(cert, MultiplierWitness)
    assert verify_certificate(cert, A)
    assert not verify_certificate(MultiplierWitness(y=0.6 * cert.y, z=cert.z), A)  # sum y = 0.6


def test_u_block_changes_answer():
    # alone, the column (1, 0) admits x = (-1, 0); forcing u >= 0 through a
    # positive C row cannot block that, but an opposing C sign can matter
    A = np.array([[1.0], [0.0]])
    C = np.array([[-5.0]])
    cert = decide_alternative(A, C=C)
    assert isinstance(cert, StrictWitness)
    assert verify_certificate(cert, A, C=C)


def test_weak_block_restricts_strict_side():
    # strict column e1 with weak columns +/- e1: B rows force x1 = 0 exactly,
    # so the strict row cannot be met and multipliers must exist
    A = np.array([[1.0], [0.0]])
    B = np.array([[1.0, -1.0], [0.0, 0.0]])
    cert = decide_alternative(A, B=B)
    assert isinstance(cert, MultiplierWitness)
    assert verify_certificate(cert, A, B=B)


def test_exclusivity_sample():
    rng = np.random.default_rng(7)
    for _ in range(120):
        A, B, C, D = random_instance(rng, max_dim=4)
        cert = decide_alternative(A, B, C, D)
        assert verify_certificate(cert, A, B, C, D)
        s7 = strict_system_solvable(A, B, C, D)
        s8 = multiplier_system_solvable(A, B, C, D)
        assert s7 != s8, "exactly one system must be solvable"
        assert isinstance(cert, StrictWitness) == s7
        if isinstance(cert, MultiplierWitness):
            assert abs(cert.y.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("A, side", [
    (np.array([[2.0], [0.0]]), StrictWitness),
    (np.array([[1.0, -1.0], [2.0, -2.0]]), MultiplierWitness),
])
def test_one_lp_decides_either_side(monkeypatch, A, side):
    # the multiplier certificate is the margin LP's row duals: no second solve
    lps, solve = [], vopt.linprog.solve_lp

    def counted_solve(p):
        lps.append(p)
        return solve(p)

    monkeypatch.setattr(vopt.linprog, "solve_lp", counted_solve)
    assert isinstance(decide_alternative(A), side)
    assert len(lps) == 1


def _highs(p: LpProblem):
    """The optimum of p by HiGHS, an independent solver, or None if unbounded."""
    bounds = [(None, None) if j in p.free else (0, None) for j in range(len(p.c))]
    res = linprog(-np.asarray(p.c), A_ub=p.A, b_ub=p.b, bounds=bounds, method="highs")
    assert res.status in (0, 3)  # optimal or unbounded: x = 0 is feasible
    return -res.fun if res.status == 0 else None


def test_random_lp_duality_gap():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.uniform(-2, 2, size=(m, n))
        b = rng.uniform(0, 3, size=m)
        c = rng.uniform(-2, 2, size=n)
        free = tuple(int(j) for j in np.flatnonzero(rng.random(n) < 0.3))
        p = LpProblem(c, A, b, free)
        out, best = solve_lp(p), _highs(p)
        if best is None:
            assert out.status == "unbounded"
            continue
        assert out.status == "optimal"
        checked += 1
        scale = 1.0 + abs(out.objective)
        assert out.objective == pytest.approx(best, abs=1e-8 * scale)
        assert abs(out.objective - float(out.y @ b)) <= 1e-8 * scale
        assert (out.y >= -1e-9).all()
        # primal feasibility at tolerance
        assert (A @ out.x - b <= 1e-9 * scale).all()
        assert (np.delete(out.x, free) >= -1e-9).all()
    assert checked > 20
