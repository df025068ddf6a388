"""The second-order test looks at every critical direction it needs.

`critical_candidates` must reach the least of max_v dᵀH_v d over the
critical cone.  The oracle here is dense sampling of the unit sphere inside
the cone, done in this file only: Gaussian draws on the null space of every
subset of the rows, kept where every row reads <= 0.  The anchor problem has
a critical cone of measure zero, which a uniform sample of directions never
meets.
"""

import itertools
import json
from pathlib import Path

import numpy as np

from vopt.cli import main
from vopt.expr import second_dir_deriv
from vopt.ktcheck import FIRST_ORDER_ONLY, classify_point
from vopt.problem import critical_candidates, load_problem

ANCHOR = Path(__file__).parent / "data" / "critical_line.vopt"
TOL = 1e-8


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 0
    return json.loads(out.read_text())["payload"]


def test_anchor_origin_reads_first_order_only(tmp_path):
    payload = _report(tmp_path, ["analyze", str(ANCHOR), "--point", "0,0,0,0"])
    assert payload["classification"]["level"] == FIRST_ORDER_ONLY


def test_dirs_is_accepted_and_changes_nothing(tmp_path):
    argv = ["analyze", str(ANCHOR), "--point", "0,0,0,0"]
    assert _report(tmp_path, [*argv, "--dirs", "4"]) == _report(tmp_path, argv)


def test_anchor_failing_direction_is_critical_and_bends_down():
    P = load_problem(ANCHOR)
    origin = np.zeros(4)
    v = classify_point(P, origin)
    failing = [o.analysis.direction for o in v.per_direction if o.multipliers is None]
    assert failing
    lam = v.first_order.lam
    for d in failing:
        # ∇f1(0) = e1 and ∇f2(0) = -e1, read off the problem text
        assert d[0] <= TOL and -d[0] <= TOL
        curvature = sum(l * second_dir_deriv(f, origin, d) for l, f in zip(lam, P.objectives))
        assert curvature < 0.0


def test_anchor_scan_reads_first_order_only_everywhere(tmp_path):
    points = _report(tmp_path, ["scan", str(ANCHOR)])["points"]
    assert len(points) == 21
    assert all(p["level"] == FIRST_ORDER_ONLY for p in points)


def _rows(rng, s, k):
    """k gradient rows: fresh, or a parallel, antiparallel or zero copy."""
    rows = []
    for _ in range(k):
        kind = rng.integers(4) if rows else 0
        if kind == 0:
            rows.append(rng.normal(size=s))
        elif kind == 3:
            rows.append(np.zeros(s))
        else:
            sign = 1.0 if kind == 1 else -1.0
            rows.append(sign * rng.uniform(0.2, 3.0) * rows[rng.integers(len(rows))])
    return np.array(rows).reshape(k, s)


def _hessian(rng, s, diagonal):
    # diagonal pairs make tH_v + (1-t)H_w cross eigenvalues at its best t
    if diagonal:
        return np.diag(rng.normal(size=s))
    A = rng.normal(size=(s, s))
    return (A + A.T) / 2.0


def _in_cone(D, rows):
    return D[(D @ rows.T <= 1e-9).all(axis=1)] if len(rows) else D


def _cone_sample(rng, rows, s, per_face=1000):
    norms = np.linalg.norm(rows, axis=1)
    units = rows[norms > 0.0] / norms[norms > 0.0, None]
    parts = []
    for size in range(len(units) + 1):
        for E in itertools.combinations(range(len(units)), size):
            basis = np.eye(s)
            if size:
                _, sv, vt = np.linalg.svd(units[list(E)])
                basis = vt[int((sv > 1e-9).sum()):].T
            if basis.shape[1]:
                D = rng.normal(size=(per_face, basis.shape[1])) @ basis.T
                parts.append(D / np.linalg.norm(D, axis=1)[:, None])
    return _in_cone(np.vstack(parts), rows)


def _worst(D, hessians):
    return np.max([np.einsum("ij,jk,ik->i", D, H, D) for H in hessians], axis=0)


def test_candidates_reach_every_negative_curvature_the_sample_finds():
    # s <= 4 variables, k <= 4 rows; 1-3 Hessians in the plane, 1-2 beyond,
    # where three or more are outside the set's stated limit
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(1200):
        s, k = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        diagonal = bool(rng.random() < 0.3)
        rows = _rows(rng, s, k)
        hessians = [_hessian(rng, s, diagonal)
                    for _ in range(int(rng.integers(1, 4 if s <= 2 else 3)))]
        D = _cone_sample(rng, rows, s)
        if not len(D) or _worst(D, hessians).min() >= -1e-3:
            continue
        checked += 1
        C = _in_cone(critical_candidates(rows, hessians), rows)
        assert len(C) and _worst(C, hessians).min() < 0.0, (rows, hessians)
    assert checked >= 700


def test_two_forms_crossing_at_a_double_eigenvalue():
    # Both forms are negative only off the axes, along (1, ±1, 0): there the
    # best mix t = 1/2 has a double least eigenvalue
    A, B = np.diag([-1.0, 0.5, 5.0]), np.diag([0.5, -1.0, 5.0])
    C = critical_candidates(np.zeros((0, 3)), [A, B])
    assert _worst(C, [A, B]).min() < 0.0
