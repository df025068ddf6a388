"""Scalarized views of a multiobjective problem: the weighted Lagrangian,
saddle-point verification, the weighting and unconstrained solvers, and the
membership chain argmin L -> argmin weighting -> weak Pareto -> KT.

Global statements here are box-and-grid scoped: a "no counterexample" or
"minimizer" claim certifies the evaluated grid plus polished descent paths,
never the whole open region.  Reports carry the resolution used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ExprError, evaluate
from .gridsearch import cluster_minima, descend, get_grid, weighted_phi
from .ktcheck import first_order_kt
from .problem import DEFAULT_TOL, InfeasiblePoint, ProblemDef, active_set

__all__ = [
    "BadWeights",
    "NoFeasiblePointInBox",
    "SaddleVerdict",
    "Minimizer",
    "MinimizerSet",
    "RelationReport",
    "check_weights",
    "lagrangian",
    "check_saddle",
    "solve_weighting",
    "solve_unconstrained",
    "relation_chain",
]

COUNTEREXAMPLE_GAP = 1e-9
MERGE_RADIUS = 1e-4
VALUE_WINDOW = 1e-6
POLISH_SEEDS = 16


class BadWeights(Exception):
    pass


class NoFeasiblePointInBox(Exception):
    pass


@dataclass(frozen=True, eq=False)
class SaddleVerdict:
    left_ok: bool  # sup over mu >= 0 attained at mu_bar (analytic)
    right_status: str  # "NoCounterexampleFound" or "Counterexample"
    counterexample: np.ndarray | None
    gap: float | None  # L(x_bar, mu_bar) - L(x, mu_bar) at the counterexample
    grid: int
    polish_seeds: int

    @property
    def is_saddle(self) -> bool:
        return self.left_ok and self.right_status == "NoCounterexampleFound"


@dataclass(frozen=True, eq=False)
class Minimizer:
    point: np.ndarray
    value: float


@dataclass(frozen=True, eq=False)
class MinimizerSet:
    minimizers: tuple[Minimizer, ...]
    value: float
    grid: int


@dataclass(frozen=True, eq=False)
class RelationReport:
    point: np.ndarray
    in_scalarized_argmin: bool  # argmin of L(., mu) with <mu, g(x)> = 0
    in_weighting_argmin: bool
    weak_pareto: bool
    kt: bool
    domination_witness: np.ndarray | None  # feasible y with f(y) < f(x) when not weak Pareto
    anomalies: tuple[str, ...]
    grid: int


def check_weights(P: ProblemDef, lam, mu=None, tol: float = 1e-12):
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (P.n_objectives,):
        raise BadWeights(f"lambda must have length {P.n_objectives}")
    if not np.isfinite(lam).all() or (lam < -tol).any() or abs(lam.sum() - 1.0) > tol:
        raise BadWeights("lambda must be finite, nonnegative and sum to one")
    if mu is None:
        mu = np.zeros(P.n_constraints)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (P.n_constraints,):
        raise BadWeights(f"mu must have length {P.n_constraints}")
    if not np.isfinite(mu).all() or (mu < -tol).any():
        raise BadWeights("mu must be finite and nonnegative")
    return lam, mu


def lagrangian(P: ProblemDef, lam, mu, x) -> float:
    lam, mu = check_weights(P, lam, mu)
    x = np.asarray(x, dtype=float)
    v = sum(lam[i] * evaluate(P.objectives[i], x) for i in range(P.n_objectives))
    v += sum(mu[j] * evaluate(P.constraints[j], x) for j in range(P.n_constraints))
    return float(v)


def _polished_min(P: ProblemDef, lam, mu, grid: int | None, feasible_only: bool):
    """Grid scan + descent polish of the weighted field.  Returns candidate
    (points, values) arrays; grid points keep their exact grid values."""
    data = get_grid(P, grid)
    phi, dphi = weighted_phi(P, lam, mu)
    vals = (lam @ data.F) if P.n_objectives else np.zeros(data.pts.shape[1])
    if mu is not None and P.n_constraints and np.asarray(mu).any():
        vals = vals + np.asarray(mu) @ data.G
    if feasible_only:
        mask = data.feasible
    else:
        mask = np.isfinite(vals)
    if not mask.any():
        raise NoFeasiblePointInBox("no admissible grid point in the box")
    masked = np.where(mask, vals, np.inf)
    order = np.argsort(masked, kind="stable")[:POLISH_SEEDS]

    if feasible_only:
        eps = 1e-9

        def accept(y: np.ndarray) -> bool:
            try:
                for g in P.constraints:
                    gv = evaluate(g, y)
                    if gv > eps * (1.0 + abs(gv)):
                        return False
            except ExprError:
                return False
            return True

    else:
        accept = None

    cand_pts = [data.pts[:, k] for k in order]
    cand_vals = [float(masked[k]) for k in order]
    for k in order:
        x, fx = descend(phi, dphi, data.pts[:, k], P.lower, P.upper, accept=accept)
        if np.isfinite(fx):
            cand_pts.append(x)
            cand_vals.append(fx)
    return cand_pts, cand_vals, data.grid


def solve_weighting(P: ProblemDef, lam, grid: int | None = None) -> MinimizerSet:
    """Approximate global minimizers of <lam, f> over the feasible box grid,
    clustered; raises NoFeasiblePointInBox when the grid sees no feasible
    point."""
    lam, _ = check_weights(P, lam)
    pts, vals, g = _polished_min(P, lam, None, grid, feasible_only=True)
    reps, best = cluster_minima(pts, vals, MERGE_RADIUS, VALUE_WINDOW)
    return MinimizerSet(
        minimizers=tuple(Minimizer(point=p, value=v) for p, v in reps), value=best, grid=g
    )


def solve_unconstrained(P: ProblemDef, lam, mu=None, grid: int | None = None) -> MinimizerSet:
    """As solve_weighting but for L(., mu) over the whole box, ignoring
    feasibility."""
    lam, mu = check_weights(P, lam, mu)
    pts, vals, g = _polished_min(P, lam, mu, grid, feasible_only=False)
    reps, best = cluster_minima(pts, vals, MERGE_RADIUS, VALUE_WINDOW)
    return MinimizerSet(
        minimizers=tuple(Minimizer(point=p, value=v) for p, v in reps), value=best, grid=g
    )


def check_saddle(P: ProblemDef, lam, xbar, mubar, grid: int | None = None,
                 tol: float = DEFAULT_TOL) -> SaddleVerdict:
    """Decide L(xbar, mu) <= L(xbar, mubar) <= L(x, mubar) over mu >= 0 and
    box x.  The left side is closed-form: the sup over mu >= 0 of
    <mu, g(xbar)> is attained at mubar iff g(xbar) <= 0 and the pairing is
    zero.  The right side is attacked by grid scan plus descent."""
    lam, mubar = check_weights(P, lam, mubar)
    xbar = np.asarray(xbar, dtype=float)
    if not P.in_box(xbar, slack=1e-12):
        raise ValueError("saddle candidate lies outside the box")
    gvals = np.array([evaluate(g, xbar) for g in P.constraints])
    scale = 1.0 + float(np.abs(gvals).sum()) if gvals.size else 1.0
    left_ok = bool(
        (gvals <= tol * (1.0 + np.abs(gvals))).all()
        and abs(float(mubar @ gvals) if gvals.size else 0.0) <= tol * scale
    )

    Lbar = lagrangian(P, lam, mubar, xbar)
    pts, vals, g = _polished_min(P, lam, mubar, grid, feasible_only=False)
    k = int(np.argmin(vals))
    best_pt, best_val = np.asarray(pts[k]), float(vals[k])
    if best_val < Lbar - COUNTEREXAMPLE_GAP:
        return SaddleVerdict(
            left_ok=left_ok,
            right_status="Counterexample",
            counterexample=best_pt,
            gap=Lbar - best_val,
            grid=g,
            polish_seeds=POLISH_SEEDS,
        )
    return SaddleVerdict(
        left_ok=left_ok,
        right_status="NoCounterexampleFound",
        counterexample=None,
        gap=None,
        grid=g,
        polish_seeds=POLISH_SEEDS,
    )


def relation_chain(
    P: ProblemDef, lam, mu, xbar, grid: int | None = None, tol: float = DEFAULT_TOL
) -> RelationReport:
    """Membership of xbar in argmin L(., mu), argmin of the weighting
    problem, the weak Pareto set (grid brute force), and the KT set; any
    violated forward implication among those is flagged as an anomaly."""
    lam, mu = check_weights(P, lam, mu)
    xbar = np.asarray(xbar, dtype=float)
    act = active_set(P, xbar, tol)  # raises InfeasiblePoint

    data = get_grid(P, grid)

    def win(v: float) -> float:
        return VALUE_WINDOW * (1.0 + abs(v))

    uncon = solve_unconstrained(P, lam, mu, grid)
    Lxbar = lagrangian(P, lam, mu, xbar)
    comp_slack = abs(float(mu @ act.values) if act.values.size else 0.0) <= tol * (
        1.0 + float(np.abs(act.values).sum() if act.values.size else 0.0)
    )
    in_scal = bool(Lxbar <= uncon.value + win(uncon.value)) and comp_slack

    weight = solve_weighting(P, lam, grid)
    wxbar = float(sum(lam[i] * evaluate(P.objectives[i], xbar) for i in range(P.n_objectives)))
    in_weight = bool(wxbar <= weight.value + win(weight.value))

    fx = np.array([evaluate(f, xbar) for f in P.objectives])
    dominated = data.feasible & (data.F < (fx - COUNTEREXAMPLE_GAP)[:, None]).all(axis=0)
    witness = None
    if dominated.any():
        witness = data.pts[:, int(np.flatnonzero(dominated)[0])]
    weak_pareto = witness is None

    kt = first_order_kt(P, xbar, tol) is not None

    anomalies = []
    if in_scal and not in_weight:
        anomalies.append("ScalarizedArgminNotWeightingArgmin")
    if in_weight and not weak_pareto:
        anomalies.append("WeightingArgminNotWeakPareto")
    if weak_pareto and not kt:
        anomalies.append("WeakParetoNotKT")
    return RelationReport(
        point=xbar,
        in_scalarized_argmin=in_scal,
        in_weighting_argmin=in_weight,
        weak_pareto=weak_pareto,
        kt=kt,
        domination_witness=witness,
        anomalies=tuple(anomalies),
        grid=data.grid,
    )
