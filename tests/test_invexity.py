import numpy as np
import pytest

import vopt
from pathlib import Path

from vopt.expr import evaluate
from vopt.gridsearch import find_kt_points
from test_ktcheck import HIGHDIM_5_11
from vopt.expr import grad
from vopt.invexity import (
    CONSISTENT_AT_RESOLUTION,
    FALSIFIED,
    INVEXITY_CLASSES,
    KT_INVEX,
    KT_PSEUDOINVEX_I,
    KT_PSEUDOINVEX_II,
    KTSP_INVEX,
    ORDER_FIRST,
    ORDER_SECOND,
    SECOND_ORDER_KT_INVEX,
    SECOND_ORDER_KT_PSEUDOINVEX_I,
    SECOND_ORDER_KT_PSEUDOINVEX_II,
    SECOND_ORDER_KTSP_INVEX,
    _candidate_triples,
    check_class,
    inclusion_audit,
    pointwise_eta_feasibility,
    pointwise_survey,
)
from vopt.linprog import MultiplierWitness, decide_alternative, verify_certificate
from vopt.problem import load_problem, local_model, parse_problem
from vopt.scalarize import lagrangian

FIX = Path(vopt.__file__).parent / "fixtures"


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


def f_vals(P, x):
    return np.array([evaluate(f, x) for f in P.objectives])


def assert_feasible(P, x):
    for g in P.constraints:
        assert evaluate(g, x) <= 1e-8


# ---------------------------------------------------------------- saddle class


def test_exA_ktsp_invex_falsified_at_origin(exA):
    v = check_class(exA, KTSP_INVEX)
    assert v.status == FALSIFIED and v.falsified
    w = v.witness
    assert np.allclose(w.point, [0.0, 0.0], atol=1e-4)
    # witness re-verifies from raw Lagrangian evaluations alone
    lx = lagrangian(exA, w.lam, w.mu, w.point)
    lr = lagrangian(exA, w.lam, w.mu, w.rival)
    assert lr < lx - 1e-9
    assert abs((lx - lr) - w.gap) <= 1e-9 * (1.0 + abs(w.gap))
    assert exA.in_box(w.rival, slack=1e-9)


def test_exA_second_order_ktsp_consistent(exA):
    v = check_class(exA, SECOND_ORDER_KTSP_INVEX)
    assert v.status == CONSISTENT_AT_RESOLUTION
    assert v.witness is None
    assert v.resolution.stationary_points == 3
    assert v.resolution.pair_samples > 0  # (+-1, 0) were actually probed


# ---------------------------------------------------------- pseudoinvex I / II


def test_exB_pseudoinvex_I_falsified(exB):
    v = check_class(exB, KT_PSEUDOINVEX_I)
    assert v.falsified
    w = v.witness
    assert np.allclose(w.point, [0.0, 0.0], atol=1e-4)
    fx, fr = f_vals(exB, w.point), f_vals(exB, w.rival)
    assert (fr < fx - 1e-9).all()


def test_exBprime_pseudoinvex_I_consistent_single_point(exBprime):
    v = check_class(exBprime, KT_PSEUDOINVEX_I)
    assert v.status == CONSISTENT_AT_RESOLUTION
    assert v.resolution.stationary_points == 1
    pts = find_kt_points(exBprime)
    assert len(pts) == 1 and np.allclose(pts[0], [1.0, 0.0], atol=1e-6)


def test_exBprime_lagrangian_classes_hold(exBprime):
    # The sole KT point (1, 0) minimizes L_lambda globally for every lambda
    # (mu2 = 4*lam1 + 2*lam2 cancels the linear x2 terms), so neither the
    # saddle-based nor the weighting-based classes may report a witness.
    # Boundary-slack rivals like (1, -1e-9) used to fake one.
    for klass in (KTSP_INVEX, SECOND_ORDER_KTSP_INVEX, KT_INVEX, SECOND_ORDER_KT_INVEX):
        v = check_class(exBprime, klass)
        assert v.status == CONSISTENT_AT_RESOLUTION, klass


def test_exC_pseudoinvex_I_falsified_second_order_vacuous(exC):
    v = check_class(exC, KT_PSEUDOINVEX_I)
    assert v.falsified
    w = v.witness
    fx, fr = f_vals(exC, w.point), f_vals(exC, w.rival)
    assert (fr < fx - 1e-9).all()
    assert_feasible(exC, w.rival)

    v2 = check_class(exC, SECOND_ORDER_KT_PSEUDOINVEX_I)
    assert v2.status == CONSISTENT_AT_RESOLUTION
    assert v2.resolution.pair_samples == 0  # no second-order KT point to probe


def test_exA_pseudoinvex_II(exA):
    v = check_class(exA, KT_PSEUDOINVEX_II)
    assert v.falsified
    w = v.witness
    fx, fr = f_vals(exA, w.point), f_vals(exA, w.rival)
    assert (fr <= fx).all() and (fr < fx - 1e-9).any()
    assert check_class(exA, SECOND_ORDER_KT_PSEUDOINVEX_II).status == CONSISTENT_AT_RESOLUTION


# -------------------------------------------------------------------- KT-invex


def test_exA_kt_invex_falsified_second_order_consistent(exA):
    v = check_class(exA, KT_INVEX)
    assert v.falsified
    w = v.witness
    # rival is feasible and strictly better for the weighting objective
    assert_feasible(exA, w.rival)
    mine = float(w.lam @ f_vals(exA, w.point))
    theirs = float(w.lam @ f_vals(exA, w.rival))
    assert theirs < mine - 1e-9
    assert check_class(exA, SECOND_ORDER_KT_INVEX).status == CONSISTENT_AT_RESOLUTION


# ----------------------------------------------------------- pointwise systems


def test_pointwise_witness_at_saddle_compatible_base(exA):
    for probe in [(0.0, 0.0), (0.5, 0.5), (-2.0, 2.0)]:
        r = pointwise_eta_feasibility(exA, (1.0, 0.0), probe, d=(0.0, 1.0), order=ORDER_SECOND)
        assert r.solvable and r.system in (1, 2)
        assert r.omega >= 0.0


def test_pointwise_equality_case(exB):
    r = pointwise_eta_feasibility(exB, (0.0, 0.0), (0.0, 0.0), order=ORDER_FIRST)
    assert r.system == 1
    # zero gradients, zero value gaps: system 1 rows hold with equality
    fx = f_vals(exB, (0.0, 0.0))
    assert np.allclose(fx - fx, 0.0)


def test_pointwise_refutation(exA):
    r = pointwise_eta_feasibility(exA, (0.0, 0.0), (1.0, 0.0), order=ORDER_FIRST)
    assert not r.solvable and r.system is None
    assert isinstance(r.certificate, MultiplierWitness)
    # and f1 really does drop, which is what defeats system 1
    assert evaluate(exA.objectives[0], (1.0, 0.0)) < evaluate(exA.objectives[0], (0.0, 0.0))


def test_system_1_with_a_nearly_flat_gradient_is_solved():
    # At x = -0.01, f'(x) = 3e-11, so eta = (f(y) - f(x))/f'(x) ~ -3333 solves
    # system 1, though each row's gradient entry is 3e-4 of its right-hand side.
    P = load_problem(Path(__file__).parent / "data" / "shifted_cubic.vopt")
    x, y = (-0.01,), (-1.0,)
    r = pointwise_eta_feasibility(P, x, y, order=ORDER_FIRST)
    assert r.system == 1
    assert r.eta[0] == pytest.approx(-3333.33, rel=1e-5)
    gap = f_vals(P, y) - f_vals(P, x)
    lhs = np.array([grad(f, x) for f in P.objectives]) @ r.eta
    assert (lhs - gap <= 1e-7 * (1.0 + np.abs(gap))).all()


def test_kt_pair_refutes_system_2_where_the_exact_decision_broke_down():
    # highdim seed 5 problem 11: no active constraint, and grad f2 is nearly
    # antiparallel to grad f1; a feasibility LP solved apart from the margin
    # LP found no multipliers on this pair, while the margin LP's duals do
    P = parse_problem(HIGHDIM_5_11)
    base = [float.fromhex(h) for h in ("0x1.878eca7953a70p-1", "-0x1.7cc93b7efb3b5p-1",
                                       "-0x1.cff9c60cf3e36p-1", "-0x1.a23902cc924dep-2")]
    probe = [float.fromhex(h) for h in ("-0x1.a0b085977cd53p-5", "0x1.29660d15afdb6p-1",
                                        "0x1.94758a4c9c7e6p-5", "0x1.268244a59fd27p-4")]
    r = pointwise_eta_feasibility(P, base, probe, order=ORDER_FIRST)
    assert not r.solvable and isinstance(r.certificate, MultiplierWitness)
    y, z = r.certificate.y, r.certificate.z
    assert (y >= 0).all() and y.sum() == pytest.approx(1.0) and z.size == 0
    assert np.linalg.norm(y @ np.array([grad(f, base) for f in P.objectives])) <= 1e-7
    m = local_model(P, base)
    cert = decide_alternative(m.Gf.T, m.Gg.T)
    assert isinstance(cert, MultiplierWitness) and verify_certificate(cert, m.Gf.T, m.Gg.T)


def test_pointwise_bad_order(exA):
    with pytest.raises(ValueError):
        pointwise_eta_feasibility(exA, (0.0, 0.0), (1.0, 0.0), order="Third")


def test_survey_matches_class_verdict(exA, exBprime):
    sv = pointwise_survey(exA)
    assert sv.pairs_tested > 64
    assert len(sv.refuted) > 0  # exA is not saddle-point invex
    for base, probe in sv.refuted:
        again = pointwise_eta_feasibility(exA, base, probe, order=ORDER_FIRST)
        assert not again.solvable
    assert len(pointwise_survey(exBprime).refuted) == 0


# -------------------------------------------------------------------- auditing


def test_inclusion_audit_exA(exA):
    rep = inclusion_audit(exA)
    assert [v.klass for v in rep.verdicts] == list(INVEXITY_CLASSES)
    assert rep.violations == ()
    assert rep.verdict(KTSP_INVEX).falsified
    assert rep.verdict(KT_PSEUDOINVEX_I).falsified
    assert rep.verdict(KT_PSEUDOINVEX_II).falsified
    assert rep.verdict(KT_INVEX).falsified
    for klass in (
        SECOND_ORDER_KTSP_INVEX,
        SECOND_ORDER_KT_PSEUDOINVEX_I,
        SECOND_ORDER_KT_PSEUDOINVEX_II,
        SECOND_ORDER_KT_INVEX,
    ):
        assert rep.verdict(klass).status == CONSISTENT_AT_RESOLUTION


def test_an_interior_weight_is_no_second_order_triple():
    # At the origin both gradients vanish, so every lambda on the simplex is a
    # KT weight.  lam H1 + (1 - lam) H2 is PSD only for lam_1 <= 0.4463; at the
    # uniform weight it is [[3.8, 1.2], [1.2, 0.15]], indefinite, so (1/2, 1/2)
    # is no second-order triple and cannot falsify the second-order classes.
    P = parse_problem("var x1 in [-1, 1]\nvar x2 in [-1, 1]\n"
                      "min 0.05*x1^2 + 2.8*x1*x2 - 0.4*x2^2\n"
                      "min 3.75*x1^2 - 0.4*x1*x2 + 0.55*x2^2\n")
    triples = _candidate_triples(P, np.zeros(2), second=True)
    assert [tuple(lam) for lam, _ in triples] == [(0.0, 1.0)]
    rep = inclusion_audit(P)
    assert rep.verdict(KTSP_INVEX).status == FALSIFIED
    for klass in (SECOND_ORDER_KTSP_INVEX, SECOND_ORDER_KT_INVEX):
        assert rep.verdict(klass).status == CONSISTENT_AT_RESOLUTION


def test_inclusion_audit_strictly_convex():
    P = parse_problem("var x1 in [-2, 2]\nvar x2 in [-2, 2]\nmin x1^2 + x2^2\n")
    rep = inclusion_audit(P)
    assert rep.violations == ()
    assert all(v.status == CONSISTENT_AT_RESOLUTION for v in rep.verdicts)


def test_characterization_cross_check(exB):
    # the class verdict and a direct domination scan are independent paths
    v = check_class(exB, KT_PSEUDOINVEX_I)
    dominated = []
    for x in find_kt_points(exB):
        fx = f_vals(exB, x)
        for cand in [(-1.4, -0.1), (1.2, 0.05), (0.9, 0.0)]:
            if (f_vals(exB, cand) < fx - 1e-9).all():
                dominated.append(x)
                break
    assert v.falsified == (len(dominated) > 0)


@pytest.mark.parametrize("path", [*(FIX / f"{f}.vopt" for f in ("exA", "exB", "exBprime", "exC")),
                                  Path(__file__).parent / "data" / "critical_line.vopt"])
def test_a_first_order_witness_refutes_both_defining_systems(path):
    # The class verdicts falsify through the characterizations (saddle,
    # domination, weighting); pointwise_eta_feasibility decides the defining
    # disjunction itself by LP.  A falsified pair must be refuted by both paths.
    P = load_problem(path)
    rep = inclusion_audit(P)
    witnesses = [rep.verdict(k).witness for k in (KTSP_INVEX, KT_PSEUDOINVEX_I,
                                                  KT_PSEUDOINVEX_II, KT_INVEX)
                 if rep.verdict(k).falsified]
    assert len(witnesses) == {"exA": 4, "exB": 4, "exBprime": 0, "exC": 4,
                              "critical_line": 4}[path.stem]
    for w in witnesses:
        assert not pointwise_eta_feasibility(P, w.point, w.rival, order=ORDER_FIRST).solvable


def test_unknown_class_rejected(exA):
    with pytest.raises(ValueError):
        check_class(exA, "Convex")


def test_check_class_deterministic(exA):
    a = check_class(exA, KTSP_INVEX)
    b = check_class(exA, KTSP_INVEX)
    assert a.status == b.status
    assert np.array_equal(a.witness.point, b.witness.point)
    assert np.array_equal(a.witness.rival, b.witness.rival)
    assert a.witness.gap == b.witness.gap
