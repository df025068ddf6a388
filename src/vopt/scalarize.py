"""Scalarized views of a multiobjective problem: the weighted Lagrangian,
saddle-point verification, the weighting and unconstrained solvers, and the
membership chain argmin L -> argmin weighting -> weak Pareto -> KT.

Global statements here are box-and-grid scoped: a "no counterexample" or
"minimizer" claim certifies the evaluated grid plus polished descent paths,
never the whole open region.  Reports carry the resolution used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import ExprError, evaluate, grad
from .gridsearch import (cluster_minima, descend, get_grid, grid_size, local_minima_cells, lowest,
                         weighted_phi)
from .memo import RESULTS, memo
from .problem import DEFAULT_TOL, ProblemDef, feasible_at, local_model, within

__all__ = [
    "BadWeights",
    "NoFeasiblePointInBox",
    "PointOutsideBox",
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


class PointOutsideBox(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SaddleVerdict:
    left_ok: bool  # sup over mu >= 0 attained at mu_bar (analytic)
    right_status: str  # "NoCounterexampleFound" or "Counterexample"
    counterexample: np.ndarray | None
    gap: float | None  # L(x_bar, mu_bar) - L(x, mu_bar) at the counterexample
    grid: int

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


def _polish(P: ProblemDef, lam, mu, grid: int | None, feasible_only: bool):
    """`_polished_min` keyed by the field: a zero mu is None; no constraints, no feasibility."""
    mu = mu if mu is not None and np.any(mu) else None
    return _polished_min(P, lam, mu, grid_size(P, grid), feasible_only and P.n_constraints > 0)


@memo(RESULTS)
def _polished_min(P: ProblemDef, lam, mu, grid: int, feasible_only: bool):
    """Grid scan + descent polish of the weighted field.  Of the POLISH_SEEDS
    best cells, grid-local minima (<= every axis neighbour) descend, and so do
    edge cells that are <= every edge cell among their 3^s - 1 surrounding
    cells (all, so a curved boundary's staircase stays connected): one descent
    per interior or boundary basin.  Returns candidate (points, values) tuples;
    the POLISH_SEEDS grid points keep their exact grid values."""
    data = get_grid(P, grid)
    phi, dphi = weighted_phi(P, lam, mu)
    vals = (lam @ data.F) if P.n_objectives else np.zeros(data.pts.shape[1])
    if mu is not None:
        vals = vals + mu @ data.G
    mask = data.feasible if feasible_only else np.isfinite(vals)
    if not mask.any():
        raise NoFeasiblePointInBox("no admissible grid point in the box")
    masked = np.where(mask, vals, np.inf)
    order = lowest(masked, POLISH_SEEDS)
    shape = tuple(map(len, data.axes))
    M = np.pad(mask.reshape(shape), 1, constant_values=True)  # a box face is no edge
    near = [np.roll(M, d, a)[(slice(1, -1),) * len(shape)] for a in range(len(shape)) for d in (1, -1)]
    edge = mask & ~np.logical_and.reduce(near).ravel()  # an inadmissible axis neighbour
    ring = np.array(list(itertools.product((-1, 0, 1), repeat=len(shape))))
    minima = set(local_minima_cells(shape, masked))

    def seeds(k: int) -> bool:  # the cell and its 3^s - 1 neighbours; clipping stays among them
        cells = np.ravel_multi_index((np.unravel_index(k, shape) + ring).T, shape, mode="clip")
        return k in minima or edge[k] and masked[k] <= masked[cells[edge[cells]]].min()

    dphi, restore = _along_boundary(P, dphi) if feasible_only else (dphi, None)
    cand_pts = [data.pts[:, k].copy() for k in order]
    cand_vals = [float(masked[k]) for k in order]
    for k in filter(seeds, order):
        x, fx = descend(phi, dphi, data.pts[:, k], P.lower, P.upper, restore=restore)
        if np.isfinite(fx):
            cand_pts.append(x)
            cand_vals.append(fx)
    return tuple(cand_pts), tuple(cand_vals), data.grid


def _along_boundary(P: ProblemDef, dphi):
    """dphi less its part that pushes out through a constraint on its boundary
    at x, and a restore that lands steps from x back on those constraints
    (descend takes the gradient at x first): a step through the boundary and
    back adds the chord's sag to the predicted decrease, and refuses all but
    short steps along a flat boundary basin."""
    held = []

    def tangent(x):
        g = dphi(x)
        try:
            rows = {j: grad(c, x) for j, c in enumerate(P.constraints) if within(-evaluate(c, x), 1e-9)}
        except ExprError:
            rows = {}
        held[:] = [j for j in rows if rows[j] @ g < 0]
        J = np.array([rows[j] for j in held]).reshape(-1, P.dim)
        return g - J.T @ np.linalg.lstsq(J.T, g, rcond=None)[0]

    return tangent, lambda y: _restore(P, y, held)


def _restore(P: ProblemDef, y, held=()):
    """The clipped trial point if no constraint is `held` and it is strictly
    feasible; else y moved by minimum-norm Newton steps (unclipped, so
    clipping does not turn the step) until each constraint held, violated or
    made violated by a step is on its boundary to rounding, not just <= 0
    (a concave constraint's overshoot parks beside it), then clipped; None if
    8 steps fail."""
    if not held and feasible_at(P, np.clip(y, P.lower, P.upper), 0.0):
        return np.clip(y, P.lower, P.upper)
    hit = np.isin(np.arange(P.n_constraints), held)
    for _ in range(8):
        try:
            gv = np.array([evaluate(g, y) for g in P.constraints])
            hit |= gv > 0
            act = np.flatnonzero(hit)
            if ((gv[act] <= 0) & within(-gv[act], 1e-12)).all():
                break  # every constraint hit is on the boundary, to rounding
            J = np.array([grad(P.constraints[j], y) for j in act]).reshape(-1, P.dim)
        except ExprError:
            return None
        if not (np.isfinite(gv).all() and np.isfinite(J).all()):
            break
        y = y - np.linalg.lstsq(J, gv[act], rcond=None)[0]
    y = np.clip(y, P.lower, P.upper)
    return y if feasible_at(P, y, 1e-9) else None


def solve_weighting(P: ProblemDef, lam, grid: int | None = None) -> MinimizerSet:
    """Approximate global minimizers of <lam, f> over the feasible box grid,
    clustered; raises NoFeasiblePointInBox when the grid sees no feasible
    point."""
    lam, _ = check_weights(P, lam)
    return _minimizer_set(*_polish(P, lam, None, grid, feasible_only=True))


def solve_unconstrained(P: ProblemDef, lam, mu=None, grid: int | None = None) -> MinimizerSet:
    """As solve_weighting but for L(., mu) over the whole box, ignoring
    feasibility."""
    lam, mu = check_weights(P, lam, mu)
    return _minimizer_set(*_polish(P, lam, mu, grid, feasible_only=False))


def _minimizer_set(pts, vals, grid: int) -> MinimizerSet:
    reps, best = cluster_minima(pts, vals, MERGE_RADIUS, VALUE_WINDOW)
    return MinimizerSet(tuple(Minimizer(point=p, value=v) for p, v in reps), value=best, grid=grid)


def check_saddle(P: ProblemDef, lam, xbar, mubar, grid: int | None = None,
                 tol: float = DEFAULT_TOL) -> SaddleVerdict:
    """Decide L(xbar, mu) <= L(xbar, mubar) <= L(x, mubar) over mu >= 0 and
    box x.  The left side is closed-form: the sup over mu >= 0 of
    <mu, g(xbar)> is attained at mubar iff g(xbar) <= 0 and the pairing is
    zero.  The right side is attacked by grid scan plus descent."""
    lam, mubar = check_weights(P, lam, mubar)
    xbar = np.asarray(xbar, dtype=float)
    if not P.in_box(xbar, slack=1e-12):
        raise PointOutsideBox(f"saddle candidate {xbar.tolist()} lies outside the box")
    gvals = np.array([evaluate(g, xbar) for g in P.constraints])
    scale = 1.0 + float(np.abs(gvals).sum()) if gvals.size else 1.0
    left_ok = bool(
        within(gvals, tol).all()
        and abs(float(mubar @ gvals) if gvals.size else 0.0) <= tol * scale
    )

    Lbar = lagrangian(P, lam, mubar, xbar)
    pts, vals, g = _polish(P, lam, mubar, grid, feasible_only=False)
    k = int(np.argmin(vals))
    found = float(vals[k]) < Lbar - COUNTEREXAMPLE_GAP
    return SaddleVerdict(
        left_ok=left_ok,
        right_status="Counterexample" if found else "NoCounterexampleFound",
        counterexample=np.asarray(pts[k]) if found else None,
        gap=Lbar - float(vals[k]) if found else None,
        grid=g,
    )


def relation_chain(
    P: ProblemDef, lam, mu, xbar, grid: int | None = None, tol: float = DEFAULT_TOL
) -> RelationReport:
    """Membership of xbar in argmin L(., mu), argmin of the weighting
    problem, the weak Pareto set (grid brute force), and the KT set; any
    violated forward implication among those is flagged as an anomaly."""
    lam, mu = check_weights(P, lam, mu)
    xbar = np.asarray(xbar, dtype=float)
    m = local_model(P, xbar, tol)  # raises InfeasiblePoint
    act = m.active

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

    kt = m.multipliers() is not None

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
