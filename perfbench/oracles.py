"""Output checks that do not use the code under test.

Objective and constraint values come from the generator's closed-form numpy
callables (`workloads.Problem`), derivatives from central differences, and
every linear-programming question goes to HiGHS through
`scipy.optimize.linprog(method="highs")`.  Nothing here imports vopt.

Each check returns None when the output is accepted, else a one-line reason.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from workloads import Problem

# Oracle tolerances, deliberately looser than vopt's own 1e-8 so that only a
# real defect, not a rounding difference, is reported.
FEAS_TOL = 1e-7  # g_j(x) <= FEAS_TOL·(1 + |g_j(x)|)
ACTIVE_TOL = 1e-6  # |g_j(x)| below this (scaled) may carry a multiplier
KT_TOL = 1e-6  # L1 stationarity residual, scaled by 1 + max gradient norm
VALUE_TOL = 1e-8  # reported vs recomputed values, relative
BOX_SLACK = 1e-9
OPPOSITE_TOL = 1e-6  # the opposite system's optimum is 0 or 1 (a cone, capped)
DOMINATION_GAP = 1e-6  # relative; vopt's own witnesses need only 1e-9
# vopt's documented default grid per dimension, which `classify` searches
# for rivals; the oracle rebuilds the same points with numpy
DEFAULT_GRID = {1: 201, 2: 201, 3: 61, 4: 21}

SADDLE_CLASSES = ("KTSPInvex", "SecondOrderKTSPInvex")
WEIGHTING_CLASSES = ("KTInvex", "SecondOrderKTInvex")
STRICT_PARETO_CLASSES = ("KTPseudoinvexI", "SecondOrderKTPseudoinvexI")
PARETO_CLASSES = ("KTPseudoinvexII", "SecondOrderKTPseudoinvexII")
FIRST_ORDER_PARETO = ("KTPseudoinvexI", "KTPseudoinvexII")
ALL_CLASSES = SADDLE_CLASSES + WEIGHTING_CLASSES + STRICT_PARETO_CLASSES + PARETO_CLASSES
FALSIFIED = "Falsified"


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= VALUE_TOL * (1.0 + abs(scale))


def _values(fns, x) -> np.ndarray:
    return np.array([float(f(x)) for f in fns])


def _in_box(P: Problem, x) -> bool:
    return bool((x >= P.lower - BOX_SLACK).all() and (x <= P.upper + BOX_SLACK).all())


def _feasible(P: Problem, x) -> bool:
    g = _values(P.constraints, x)
    return bool((g <= FEAS_TOL * (1.0 + np.abs(g))).all())


def central_gradient(fn, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.size)
    for k in range(x.size):
        h = 1e-6 * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (float(fn(xp)) - float(fn(xm))) / (2.0 * h)
    return out


def kt_residual(P: Problem, x: np.ndarray) -> tuple[float, float]:
    """(min L1 norm of sum lam_i grad f_i + sum mu_j grad g_j over lam >= 0
    with sum 1 and mu >= 0 on the near-active constraints, gradient scale)."""
    gf = np.array([central_gradient(f, x) for f in P.objectives])
    gvals = _values(P.constraints, x)
    active = [j for j, v in enumerate(gvals) if abs(v) <= ACTIVE_TOL * (1.0 + abs(v))]
    gg = np.array([central_gradient(P.constraints[j], x) for j in active]).reshape(-1, x.size)
    n, k, s = gf.shape[0], gg.shape[0], x.size
    # variables: lam (n), mu (k), e+ (s), e- (s);  M lam + G mu - e+ + e- = 0
    A_eq = np.zeros((s + 1, n + k + 2 * s))
    A_eq[:s, :n] = gf.T
    A_eq[:s, n : n + k] = gg.T
    A_eq[:s, n + k : n + k + s] = -np.eye(s)
    A_eq[:s, n + k + s :] = np.eye(s)
    A_eq[s, :n] = 1.0
    b_eq = np.zeros(s + 1)
    b_eq[s] = 1.0
    c = np.concatenate([np.zeros(n + k), np.ones(2 * s)])
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return np.inf, 1.0
    scale = 1.0 + max(float(np.linalg.norm(r)) for r in np.vstack([gf, gg]))
    return float(res.fun), scale


# ---------------------------------------------------------------------------
# scan


def check_scan(payload: dict, P: Problem) -> str | None:
    """At least one point is reported (every generated and bundled problem
    has KT points in its box), and every reported stationary point is in
    the box, feasible by direct evaluation, and KT by central differences
    plus HiGHS."""
    if not payload["points"]:
        return "no stationary point reported"
    for entry in payload["points"]:
        x = np.asarray(entry["point"], dtype=float)
        if x.shape != (P.dim,):
            return f"point {entry['point']} has the wrong dimension"
        if not _in_box(P, x):
            return f"point {x.tolist()} lies outside the box"
        if not _feasible(P, x):
            return f"point {x.tolist()} is infeasible"
        resid, scale = kt_residual(P, x)
        if resid > KT_TOL * scale:
            return f"point {x.tolist()} is not KT: residual {resid:.3g}"
    return None


# ---------------------------------------------------------------------------
# invexity verdicts


def check_witness(verdict: dict, P: Problem) -> str | None:
    """Re-verify a Falsified verdict's witness from the callables: the rival
    beats the point by the reported gap, in the sense its class defines."""
    klass, w = verdict["class"], verdict["witness"]
    if w is None:
        return f"{klass}: Falsified without a witness"
    x = np.asarray(w["point"], dtype=float)
    r = np.asarray(w["rival"], dtype=float)
    if not (_in_box(P, x) and _in_box(P, r)):
        return f"{klass}: witness point or rival outside the box"
    if not _feasible(P, x):
        return f"{klass}: witness point is infeasible"
    fx, fr = _values(P.objectives, x), _values(P.objectives, r)
    if klass in SADDLE_CLASSES or klass in WEIGHTING_CLASSES:
        lam = np.asarray(w["lam"], dtype=float)
        mu = np.asarray(w["mu"], dtype=float)
        if (lam < 0).any() or not _close(lam.sum(), 1.0, 1.0) or (mu < 0).any():
            return f"{klass}: multipliers out of range"
        if klass in SADDLE_CLASSES:
            vx = float(lam @ fx + mu @ _values(P.constraints, x))
            vr = float(lam @ fr + mu @ _values(P.constraints, r))
        else:
            if not _feasible(P, r):
                return f"{klass}: rival is infeasible"
            vx, vr = float(lam @ fx), float(lam @ fr)
        gap = vx - vr
        ok = (
            gap > 0
            and _close(vx, w["point_values"][0], vx)
            and _close(vr, w["rival_values"][0], vx)
            and _close(gap, w["gap"], vx)
        )
    elif klass in STRICT_PARETO_CLASSES or klass in PARETO_CLASSES:
        if not _feasible(P, r):
            return f"{klass}: rival is infeasible"
        diff = fx - fr
        scale = float(np.abs(fx).max())
        if klass in STRICT_PARETO_CLASSES:
            gap, beats = float(diff.min()), bool((diff > 0).all())
        else:
            # a tie in one objective is allowed; rounding may show it as -ulp
            ties = diff >= -VALUE_TOL * (1.0 + scale)
            gap, beats = float(diff.max()), bool(ties.all() and (diff > 0).any())
        ok = (
            beats
            and all(_close(a, b, scale) for a, b in zip(fx, w["point_values"]))
            and all(_close(a, b, scale) for a, b in zip(fr, w["rival_values"]))
            and _close(gap, w["gap"], scale)
        )
    else:
        return f"unknown class {klass!r}"
    return None if ok else f"{klass}: witness gap does not re-verify"


def grid_points(P: Problem) -> np.ndarray:
    """(s, N) points of vopt's default grid on P's box."""
    axes = [np.linspace(lo, hi, DEFAULT_GRID[P.dim]) for lo, hi in zip(P.lower, P.upper)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def first_dominated(P: Problem, points) -> np.ndarray | None:
    """The first of `points` that a strictly feasible point of the default
    grid beats in every objective by DOMINATION_GAP, or None."""
    pts = grid_points(P)
    F = np.stack([np.broadcast_to(f(pts), pts.shape[1]) for f in P.objectives])
    feasible = np.ones(pts.shape[1], dtype=bool)
    for g in P.constraints:
        feasible &= g(pts) < -FEAS_TOL
    for x in points:
        fx = _values(P.objectives, np.asarray(x, dtype=float))
        below = F < (fx - DOMINATION_GAP * (1.0 + np.abs(fx)))[:, None]
        if (feasible & below.all(axis=0)).any():
            return np.asarray(x, dtype=float)
    return None


def check_classify_all(
    payload: dict, P: Problem, expected: dict[str, str] | None = None, kt_points=None
) -> str | None:
    """All eight classes present, no inclusion violations, every Falsified
    witness re-verifies, and statuses agree with `expected` (class -> status)
    where given.  `kt_points` are KT points the oracle has confirmed (from a
    scan of the same problem): if a feasible point of the default grid
    strictly dominates one of them, that KT point is neither weakly nor
    plainly Pareto-minimal, so both first-order Pareto classes must be
    Falsified."""
    verdicts = payload["verdicts"]
    if sorted(v["class"] for v in verdicts) != sorted(ALL_CLASSES):
        return "verdict set is not the eight classes"
    if payload["violations"]:
        return f"inclusion violations {payload['violations']}"
    x = None if kt_points is None else first_dominated(P, kt_points)
    for v in verdicts:
        if x is not None and v["class"] in FIRST_ORDER_PARETO and v["status"] != FALSIFIED:
            return (f"{v['class']}: {v['status']}, but a feasible grid point strictly "
                    f"dominates KT point {x.tolist()}")
        want = (expected or {}).get(v["class"])
        if want is not None and v["status"] != want:
            return f"{v['class']}: {v['status']}, expected report says {want}"
        if v["status"] == FALSIFIED:
            reason = check_witness(v, P)
            if reason:
                return reason
    return None


def expected_statuses(expected_dir: Path) -> dict[str, dict[str, str]]:
    """fixture stem -> {class: status} from the shipped single-class
    expected reports."""
    out: dict[str, dict[str, str]] = {}
    for path in sorted(expected_dir.glob("*.json")):
        rep = json.loads(path.read_text())
        if rep["command"][0] != "classify":
            continue
        v = rep["payload"]["verdict"]
        out.setdefault(Path(rep["command"][1]).stem, {})[v["class"]] = v["status"]
    return out


def check_reproduce(payload: dict, example: str) -> str | None:
    if payload.get("id") != example:
        return f"reproduction id {payload.get('id')!r}"
    bad = [r["name"] for r in payload["results"] if not r["match"]]
    if bad or not payload["all_match"] or not payload["results"]:
        return f"reproduction diffs: {bad}"
    return None


# ---------------------------------------------------------------------------
# alternative systems


def _blocks(data: dict) -> tuple[np.ndarray, ...]:
    A = np.atleast_2d(np.asarray(data["A"], dtype=float))
    s, q = A.shape
    B = np.asarray(data.get("B", np.zeros((s, 0))), dtype=float).reshape(s, -1)
    C = np.asarray(data.get("C", np.zeros((0, q))), dtype=float).reshape(-1, q)
    D = np.asarray(data.get("D", np.zeros((C.shape[0], B.shape[1]))), dtype=float)
    return A, B, C, D.reshape(C.shape[0], B.shape[1])


def multiplier_capacity(instances) -> list[float]:
    """Per instance, max sum y <= 1 subject to A y + B z = 0, C y + D z >= 0,
    y, z >= 0 (HiGHS).  The system is a cone, so this is 1 when the
    multiplier system is solvable and 0 when it is not."""
    parts, widths = [], []
    for A, B, C, D in instances:
        (s, q), r = A.shape, B.shape[1]
        A_ub = np.vstack([-np.hstack([C, D]), np.concatenate([np.ones(q), np.zeros(r)])])
        b_ub = np.concatenate([np.zeros(C.shape[0]), [1.0]])
        c = np.concatenate([-np.ones(q), np.zeros(r)])
        parts.append((A_ub, b_ub, np.hstack([A, B]), np.zeros(s), c, [(0, None)] * (q + r)))
        widths.append(q)
    x = _solve_stacked(parts)
    out, at = [], 0
    for part, q in zip(parts, widths):
        out.append(float(x[at : at + q].sum()))
        at += part[4].size
    return out


def strict_margin(instances) -> list[float]:
    """Per instance, max v <= 1 with A'x + C'u + v <= 0, B'x + D'u <= 0,
    u >= 0, x free (HiGHS): 1 when the strict system is solvable, else 0."""
    parts = []
    for A, B, C, D in instances:
        (s, q), r, p = A.shape, B.shape[1], C.shape[0]
        rows = [np.concatenate([A[:, i], C[:, i], [1.0]]) for i in range(q)]
        rows += [np.concatenate([B[:, j], D[:, j], [0.0]]) for j in range(r)]
        c = np.zeros(s + p + 1)
        c[-1] = -1.0
        bounds = [(None, None)] * s + [(0, None)] * p + [(None, 1.0)]
        parts.append((np.array(rows), np.zeros(len(rows)), np.zeros((0, s + p + 1)),
                      np.zeros(0), c, bounds))
    x = _solve_stacked(parts)
    out, at = [], 0
    for part in parts:
        at += part[4].size
        out.append(float(x[at - 1]))
    return out


def _solve_stacked(parts) -> np.ndarray:
    """Solve per-instance LPs, given as (A_ub, b_ub, A_eq, b_eq, c, bounds),
    as one block-diagonal LP: nothing couples the instances, so its optimum
    is every instance's optimum."""
    if not parts:
        return np.zeros(0)
    A_ub, b_ub, A_eq, b_eq, c, bounds = zip(*parts)
    A_eq = sparse.block_diag(A_eq, format="csr")
    has_eq = A_eq.shape[0] > 0
    res = linprog(
        np.concatenate(c),
        A_ub=sparse.block_diag(A_ub, format="csr"),
        b_ub=np.concatenate(b_ub),
        A_eq=A_eq if has_eq else None,
        b_eq=np.concatenate(b_eq) if has_eq else None,
        bounds=[b for bs in bounds for b in bs],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the stacked check: {res.message}")
    return res.x


def _substitutes(payload: dict, A, B, C, D) -> bool:
    if payload["variant"] == "strict":
        x = np.asarray(payload["x"], dtype=float).reshape(A.shape[0])
        u = np.asarray(payload["u"], dtype=float).reshape(C.shape[0])
        strict = A.T @ x + C.T @ u
        weak = B.T @ x + D.T @ u
        return bool((strict < 0).all() and (weak <= FEAS_TOL).all() and (u >= -FEAS_TOL).all())
    y = np.asarray(payload["y"], dtype=float).reshape(A.shape[1])
    z = np.asarray(payload["z"], dtype=float).reshape(B.shape[1])
    return bool(
        np.abs(A @ y + B @ z).max() <= FEAS_TOL
        and (C @ y + D @ z >= -FEAS_TOL).all()
        and (y >= -FEAS_TOL).all()
        and (z >= -FEAS_TOL).all()
        and abs(y.sum() - 1.0) <= FEAS_TOL
    )


def check_alternatives(cases: list[tuple[dict, dict]]) -> list[str | None]:
    """For each (report payload, block data): the certificate solves its
    system by substitution, vopt marked it verified, and HiGHS finds the
    opposite system infeasible.  The HiGHS checks of all cases are solved
    as two stacked LPs, one per side."""
    reasons: list[str | None] = [None] * len(cases)
    sides: dict[str, list[int]] = {"strict": [], "multiplier": []}
    blocks = [_blocks(data) for _, data in cases]
    for k, (payload, _) in enumerate(cases):
        if payload.get("variant") not in sides:
            reasons[k] = f"unknown variant {payload.get('variant')!r}"
        elif payload["verified"] is not True:
            reasons[k] = "certificate not marked verified"
        elif not _substitutes(payload, *blocks[k]):
            reasons[k] = f"{payload['variant']} certificate fails substitution"
        else:
            sides[payload["variant"]].append(k)
    for k, cap in zip(sides["strict"], multiplier_capacity([blocks[k] for k in sides["strict"]])):
        if cap > OPPOSITE_TOL:
            reasons[k] = "multiplier system is solvable too"
    for k, v in zip(sides["multiplier"], strict_margin([blocks[k] for k in sides["multiplier"]])):
        if v > OPPOSITE_TOL:
            reasons[k] = "strict system is solvable too"
    return reasons
