"""Gate suite: one test per shipped guarantee, each printing a verdict line.

Run with -v (or -s) to read the checklist; every test re-derives its
expected values from scratch rather than trusting module internals.
"""

import json
import time
from pathlib import Path

import numpy as np

import vopt
from vopt import cli
from vopt.expr import (
    evaluate,
    grad,
    parse_expr,
    second_dir_deriv,
)
from vopt.gridsearch import find_kt_points
from vopt.invexity import (
    CONSISTENT_AT_RESOLUTION,
    FALSIFIED,
    KT_PSEUDOINVEX_I,
    KTSP_INVEX,
    SECOND_ORDER_KT_PSEUDOINVEX_I,
    SECOND_ORDER_KTSP_INVEX,
    check_class,
)
from vopt.ktcheck import (
    FIRST_ORDER_ONLY,
    FRITZ_JOHN,
    SECOND_ORDER_KT,
    classify_point,
    first_order_kt,
    primal_necessary,
    second_order_multipliers,
)
from vopt.linprog import StrictWitness, decide_alternative, verify_certificate
from vopt.problem import load_problem
from vopt.scalarize import check_saddle, lagrangian, solve_weighting

from _oracles import (multiplier_system_solvable, random_instance, second_dir_deriv_limit,
                      strict_system_solvable)

FIX = Path(vopt.__file__).parent / "fixtures"


def _nearest(points, target):
    target = np.asarray(target, dtype=float)
    best = min(points, key=lambda p: float(np.linalg.norm(np.asarray(p) - target)))
    assert np.linalg.norm(np.asarray(best) - target) <= 1e-4
    return np.asarray(best, dtype=float)


def test_criterion_1_alternative_exclusivity():
    rng = np.random.default_rng(0)
    elapsed = 0.0  # vopt's decisions only; the HiGHS oracle is not timed
    violations = 0
    for _ in range(1000):
        A, B, C, D = random_instance(rng)
        start = time.perf_counter()
        cert = decide_alternative(A, B, C, D)
        verified = verify_certificate(cert, A, B, C, D)
        elapsed += time.perf_counter() - start
        if not verified:
            violations += 1
            continue
        strict = strict_system_solvable(A, B, C, D)
        dual = multiplier_system_solvable(A, B, C, D)
        if isinstance(cert, StrictWitness):
            ok = strict and not dual
        else:
            ok = dual and not strict
        violations += 0 if ok else 1
    assert violations == 0
    assert elapsed < 5.0
    print(f"criterion 1 (alternative exclusivity, 1000 instances, {elapsed:.2f}s): PASS")


def test_criterion_2_constrained_pair_of_quartics():
    P = load_problem(FIX / "exA.vopt")
    pts = find_kt_points(P)
    assert len(pts) == 3
    origin = _nearest(pts, (0.0, 0.0))
    left = _nearest(pts, (-1.0, 0.0))
    right = _nearest(pts, (1.0, 0.0))
    for p in (origin, left, right):
        pair = first_order_kt(P, p)
        assert pair is not None and np.abs(pair.mu).max() <= 1e-6

    assert classify_point(P, origin).level == FIRST_ORDER_ONLY
    for p in (left, right):
        v = classify_point(P, p)
        assert v.level == SECOND_ORDER_KT
        assert v.directions_tested > 0

    lam, mu = np.array([0.5, 0.5]), np.zeros(1)
    sv = check_saddle(P, lam, np.zeros(2), mu)
    assert sv.right_status == "Counterexample" and sv.counterexample is not None
    drop = lagrangian(P, lam, mu, np.zeros(2)) - lagrangian(P, lam, mu, sv.counterexample)
    assert drop > 1e-9

    assert check_class(P, KTSP_INVEX).status == FALSIFIED
    assert check_class(P, SECOND_ORDER_KTSP_INVEX).status == CONSISTENT_AT_RESOLUTION
    print("criterion 2 (constrained quartic pair reproduction): PASS")


def test_criterion_3_unconstrained_pair_and_variant():
    P = load_problem(FIX / "exB.vopt")
    pts = find_kt_points(P)
    assert len(pts) == 3
    origin = _nearest(pts, (0.0, 0.0))
    _nearest(pts, (-1.0, 0.0))
    _nearest(pts, (1.0, 0.0))
    assert classify_point(P, origin).level == FIRST_ORDER_ONLY

    for lam, want in ((np.array([1.0, 0.0]), -1.0), (np.array([0.0, 1.0]), 0.0)):
        ms = solve_weighting(P, lam)
        assert abs(ms.value - want) <= 1e-4
        argmin = sorted(tuple(np.round(m.point, 4)) for m in ms.minimizers)
        assert len(argmin) == 2
        assert np.allclose(argmin[0], (-1.0, 0.0), atol=1e-4)
        assert np.allclose(argmin[1], (1.0, 0.0), atol=1e-4)

    v = check_class(P, KT_PSEUDOINVEX_I)
    assert v.status == FALSIFIED
    w = v.witness
    assert np.linalg.norm(w.point) <= 1e-4
    # the rival sits on the x1 axis at small nonzero eps, beating the
    # origin strictly in both objectives
    assert abs(w.rival[1]) <= 1e-6
    assert 0.0 < abs(w.rival[0]) < np.sqrt(2.0)
    fo = [evaluate(f, w.point) for f in P.objectives]
    fr = [evaluate(f, w.rival) for f in P.objectives]
    assert all(r < o for r, o in zip(fr, fo))

    Q = load_problem(FIX / "exBprime.vopt")
    qpts = find_kt_points(Q)
    assert len(qpts) == 1
    _nearest(qpts, (1.0, 0.0))
    assert check_class(Q, KT_PSEUDOINVEX_I).status == CONSISTENT_AT_RESOLUTION
    print("criterion 3 (unconstrained pair and sign-constrained variant): PASS")


def test_criterion_4_stationary_segment():
    P = load_problem(FIX / "exC.vopt")
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for t in np.linspace(-2.0, 0.0, 21):
        x = np.array([1.0, t])
        pair = first_order_kt(P, x)
        assert pair is not None
        fg = np.array([grad(f, x) for f in P.objectives])
        gg = np.array([grad(g, x) for g in P.constraints])
        residual = pair.lam @ fg + pair.mu @ gg
        assert np.linalg.norm(residual) <= 1e-7
        assert classify_point(P, x).level == FIRST_ORDER_ONLY
        assert second_order_multipliers(P, x, d) is None

    assert check_class(P, KT_PSEUDOINVEX_I).status == FALSIFIED
    assert check_class(P, SECOND_ORDER_KT_PSEUDOINVEX_I).status == CONSISTENT_AT_RESOLUTION
    print("criterion 4 (stationary segment, 21 points): PASS")


VARS3 = ("x1", "x2", "x3")


def _random_poly_text(rng):
    terms = []
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                if rng.random() >= 0.25:
                    continue
                coef = float(rng.uniform(-3.0, 3.0))
                factors = [f"({coef!r})"]
                for name, e in zip(VARS3, (a, b, c)):
                    if e == 1:
                        factors.append(name)
                    elif e > 1:
                        factors.append(f"{name}^{e}")
                terms.append("*".join(factors))
    return " + ".join(terms) if terms else "(1.0)*x1^2"


def test_criterion_5_derivative_engine():
    rng = np.random.default_rng(5)
    h0 = float(np.cbrt(np.finfo(float).eps))
    for _ in range(200):
        e = parse_expr(_random_poly_text(rng), VARS3)
        x = rng.uniform(-2.0, 2.0, size=3)
        ad = grad(e, x)
        fd = np.empty(3)
        for i in range(3):
            h = h0 * max(1.0, abs(x[i]))
            step = np.zeros(3)
            step[i] = h
            fd[i] = (evaluate(e, x + step) - evaluate(e, x - step)) / (2.0 * h)
        assert np.linalg.norm(ad - fd) <= 1e-6 * max(1.0, np.linalg.norm(ad))

        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        exact = second_dir_deriv(e, x, u)
        est, bound = second_dir_deriv_limit(e, x, u)
        assert abs(est - exact) <= max(bound, 1e-9 * (1.0 + abs(exact)))

    for _ in range(50):
        Q = rng.uniform(-3.0, 3.0, size=(3, 3))
        terms = []
        M = np.zeros((3, 3))
        for i in range(3):
            for j in range(i, 3):
                coef = float(Q[i, j])
                if i == j:
                    terms.append(f"({coef!r})*{VARS3[i]}^2")
                    M[i, i] = 2.0 * coef
                else:
                    terms.append(f"({coef!r})*{VARS3[i]}*{VARS3[j]}")
                    M[i, j] = M[j, i] = coef
        e = parse_expr(" + ".join(terms), VARS3)
        x = rng.uniform(-2.0, 2.0, size=3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert abs(second_dir_deriv(e, x, u) - u @ M @ u) <= 1e-10
    print("criterion 5 (derivative engine, 200 polynomials + 50 quadratics): PASS")


def test_criterion_6_duality_consistency():
    pairs = []

    A = load_problem(FIX / "exA.vopt")
    for p in find_kt_points(A):
        for da in classify_point(A, p).per_direction:
            pairs.append((A, np.asarray(p, dtype=float), da.analysis.direction))

    B = load_problem(FIX / "exB.vopt")
    for p in find_kt_points(B):
        for da in classify_point(B, p).per_direction:
            pairs.append((B, np.asarray(p, dtype=float), da.analysis.direction))

    Q = load_problem(FIX / "exBprime.vopt")
    for p in find_kt_points(Q):
        for da in classify_point(Q, p).per_direction:
            pairs.append((Q, np.asarray(p, dtype=float), da.analysis.direction))

    C = load_problem(FIX / "exC.vopt")
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for t in np.linspace(-2.0, 0.0, 21):
        x = np.array([1.0, t])
        pairs.append((C, x, diag))
        for da in classify_point(C, x).per_direction:
            pairs.append((C, x, da.analysis.direction))

    disagreements = 0
    for P, x, d in pairs:
        inconsistent = primal_necessary(P, x, d).inconsistent
        some = second_order_multipliers(P, x, d, normalization=FRITZ_JOHN) is not None
        if inconsistent != some:
            disagreements += 1
    assert disagreements == 0
    print(f"criterion 6 (duality consistency on {len(pairs)} pairs): PASS")


def _report_minus_elapsed(path):
    report = json.loads(Path(path).read_text())
    report.pop("elapsed_ms")
    return report


def test_criterion_7_determinism_and_runtime(tmp_path):
    for name, argv in (
        ("scan", ["scan", "exA.vopt"]),
        ("classify", ["classify", "exB.vopt", "--class", "kt-pseudoinvex-i"]),
    ):
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        for out in (a, b):
            assert cli.main(argv + ["--json", str(out)]) == 0
        ra, rb = _report_minus_elapsed(a), _report_minus_elapsed(b)
        dump = lambda r: json.dumps(r, sort_keys=True, indent=2)
        assert dump(ra) == dump(rb)
        assert dump(ra["payload"]) == dump(rb["payload"])

    start = time.perf_counter()
    for example in ("4.1", "5.1", "5.2"):
        assert cli.main(["reproduce-example", example]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 7 (same-seed byte identity; fixtures in {elapsed:.1f}s): PASS")
