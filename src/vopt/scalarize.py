"""Scalarized views of a multiobjective problem: the weighted Lagrangian,
the weighting and unconstrained solvers, and one search per global question
about a KT point, each returning its rival as a `Witness` or None:
`saddle_rival` (through `check_saddle`), `weighting_rival` and
`dominating_rival`.  `relation_chain` and `invexity`'s class checks both read
them, so each comparison has one rule: the Lagrangian margin
REFUTE_MARGIN·(1 + |v|) for the saddle and weighting values,
WITNESS_GAP·(1 + |f_i|) per objective for domination.

Global statements here are box-and-grid scoped: a "no counterexample" or
"minimizer" claim certifies the evaluated grid plus polished descent paths,
never the whole open region.  Reports carry the resolution used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import ExprError, evaluate, grad
from .gridsearch import (SEED_CAP, descend, get_grid, grid_size, local_minima_cells, lowest,
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
    "Witness",
    "check_weights",
    "lagrangian",
    "check_saddle",
    "solve_weighting",
    "solve_unconstrained",
    "saddle_rival",
    "weighting_rival",
    "dominating_rival",
    "relation_chain",
]

MERGE_RADIUS = 1e-4
VALUE_WINDOW = 1e-6
WEIGHT_TOL = 1e-12  # how far a weight may sit below 0, and Σλ off 1
POLISH_SEEDS = 16
WITNESS_GAP = 1e-9  # a dominating rival must clear this in each objective, relatively scaled
REFUTE_MARGIN = 1e-5  # Lagrangian-comparison rivals need this much: multiplier
# residuals and boundary slack near 1e-8 fake gaps of ~1e-6 across a unit box


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
class Witness:
    """A rival that beats `point` by `gap`: in Lagrangian value for the
    saddle question, in weighted objective value for the weighting
    question, in every (some, without `strict_all`) objective for
    domination.  lam/mu are the KT multipliers making `point` count."""

    point: np.ndarray
    lam: np.ndarray | None
    mu: np.ndarray | None
    rival: np.ndarray
    point_values: tuple[float, ...]
    rival_values: tuple[float, ...]
    gap: float


@dataclass(frozen=True, eq=False)
class RelationReport:
    point: np.ndarray
    in_scalarized_argmin: bool | None  # saddle of L(., lam, mu); None without a KT pair
    in_weighting_argmin: bool | None
    weak_pareto: bool
    kt: bool
    domination_witness: np.ndarray | None  # feasible y with f(y) < f(x) when not weak Pareto
    anomalies: tuple[str, ...]
    grid: int


def check_weights(P: ProblemDef, lam, mu=None):
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (P.n_objectives,):
        raise BadWeights(f"lambda must have length {P.n_objectives}")
    if not np.isfinite(lam).all() or (lam < -WEIGHT_TOL).any() or abs(lam.sum() - 1.0) > WEIGHT_TOL:
        raise BadWeights("lambda must be finite, nonnegative and sum to one")
    if mu is None:
        mu = np.zeros(P.n_constraints)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (P.n_constraints,):
        raise BadWeights(f"mu must have length {P.n_constraints}")
    if not np.isfinite(mu).all() or (mu < -WEIGHT_TOL).any():
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


def cluster_minima(points, values):
    """Keep candidates within VALUE_WINDOW (scaled) of the best value, then
    thin them so representatives are pairwise > MERGE_RADIUS apart.  Better
    value wins a cluster; ties go to the lexicographically smaller point.  At
    most SEED_CAP representatives survive (a constant field makes every point
    a minimizer)."""
    vals = np.asarray(values, dtype=float)
    best = float(vals.min())
    win = VALUE_WINDOW * (1.0 + abs(best))
    order = sorted(
        (k for k in range(len(vals)) if vals[k] <= best + win),
        key=lambda k: (vals[k], tuple(points[k])),
    )
    reps: list[tuple[np.ndarray, float]] = []
    for k in order:
        if len(reps) >= SEED_CAP:
            break
        p = np.asarray(points[k], dtype=float)
        if all(np.linalg.norm(p - r) > MERGE_RADIUS for r, _ in reps):
            reps.append((p, float(vals[k])))
    reps.sort(key=lambda pv: tuple(pv[0]))
    return reps, best


def _minimizer_set(pts, vals, grid: int) -> MinimizerSet:
    reps, best = cluster_minima(pts, vals)
    return MinimizerSet(tuple(Minimizer(point=p, value=v) for p, v in reps), value=best, grid=grid)


def _objectives(P: ProblemDef, x) -> np.ndarray:
    return np.array([evaluate(f, x) for f in P.objectives])


def _margin(v: float) -> float:
    """How far a rival's Lagrangian or weighted value must fall below v."""
    return REFUTE_MARGIN * (1.0 + abs(v))


def check_saddle(P: ProblemDef, lam, xbar, mubar, grid: int | None = None) -> SaddleVerdict:
    """Decide L(xbar, mu) <= L(xbar, mubar) <= L(x, mubar) over mu >= 0 and
    box x.  The left side is closed-form: the sup over mu >= 0 of
    <mu, g(xbar)> is attained at mubar iff g(xbar) <= 0 and the pairing is
    zero.  The right side is attacked by grid scan plus descent; the best
    point found is a counterexample only if it beats L(xbar, mubar) by more
    than the Lagrangian margin."""
    lam, mubar = check_weights(P, lam, mubar)
    xbar = np.asarray(xbar, dtype=float)
    if not P.in_box(xbar, slack=1e-12):
        raise PointOutsideBox(f"saddle candidate {xbar.tolist()} lies outside the box")
    gvals = np.array([evaluate(g, xbar) for g in P.constraints])
    scale = 1.0 + float(np.abs(gvals).sum()) if gvals.size else 1.0
    left_ok = bool(
        within(gvals, DEFAULT_TOL).all()
        and abs(float(mubar @ gvals) if gvals.size else 0.0) <= DEFAULT_TOL * scale
    )

    Lbar = lagrangian(P, lam, mubar, xbar)
    pts, vals, g = _polish(P, lam, mubar, grid, feasible_only=False)
    k = int(np.argmin(vals))
    found = Lbar - float(vals[k]) > _margin(Lbar)
    return SaddleVerdict(
        left_ok=left_ok,
        right_status="Counterexample" if found else "NoCounterexampleFound",
        counterexample=np.asarray(pts[k]) if found else None,
        gap=Lbar - float(vals[k]) if found else None,
        grid=g,
    )


def saddle_rival(P: ProblemDef, lam, mu, x, grid: int | None = None) -> Witness | None:
    """`check_saddle`'s counterexample, its Lagrangian values re-evaluated."""
    v = check_saddle(P, lam, x, mu, grid=grid)
    if v.counterexample is None:
        return None
    rival = np.asarray(v.counterexample, dtype=float)
    lx, lr = lagrangian(P, lam, mu, x), lagrangian(P, lam, mu, rival)
    return Witness(point=x, lam=lam, mu=mu, rival=rival,
                   point_values=(lx,), rival_values=(lr,), gap=lx - lr)


def weighting_rival(P: ProblemDef, lam, mu, x, grid: int | None = None) -> Witness | None:
    """The weighting problem's best feasible point, if it beats x's
    weighted objective by more than the Lagrangian margin.  mu is only
    carried into the witness."""
    lam = np.asarray(lam, dtype=float)
    rival = np.asarray(solve_weighting(P, lam, grid=grid).minimizers[0].point, dtype=float)
    mine, rv = float(lam @ _objectives(P, x)), float(lam @ _objectives(P, rival))
    if mine - rv > _margin(mine) and feasible_at(P, rival, DEFAULT_TOL):
        return Witness(point=x, lam=lam, mu=mu, rival=rival,
                       point_values=(mine,), rival_values=(rv,), gap=mine - rv)
    return None


def dominating_rival(P: ProblemDef, x, grid: int | None = None,
                     strict_all: bool = True) -> Witness | None:
    """Feasible grid point beating x: in every objective (weak Pareto
    violation) or componentwise-<= with one strict (Pareto violation), each
    strict by more than WITNESS_GAP·(1 + |f_i(x)|).  Among qualifying points
    the nearest one is preferred, so witnesses stay local and readable; each
    is re-evaluated before it counts."""
    data = get_grid(P, grid)
    x = np.asarray(x, dtype=float)
    fx = _objectives(P, x)
    margin = WITNESS_GAP * (1.0 + np.abs(fx))

    def beats(F):  # per column of F, one value per objective down the rows
        below = F < (fx - margin)[:, None]
        if strict_all:
            return below.all(axis=0)
        return (F <= fx[:, None]).all(axis=0) & below.any(axis=0)

    idx = np.flatnonzero(data.feasible & beats(data.F))
    dist = ((data.pts[:, idx] - x[:, None]) ** 2).sum(axis=0)
    for i in idx[np.argsort(dist, kind="stable")]:
        rival = data.pts[:, i].copy()
        fr = _objectives(P, rival)
        if feasible_at(P, rival, DEFAULT_TOL) and beats(fr[:, None])[0]:
            gap = float((fx - fr).min()) if strict_all else float((fx - fr).max())
            return Witness(point=x, lam=None, mu=None, rival=rival,
                           point_values=tuple(fx), rival_values=tuple(fr), gap=gap)
    return None


def relation_chain(P: ProblemDef, lam, mu, xbar, grid: int | None = None) -> RelationReport:
    """Membership of xbar in argmin L(., mu) (a saddle point with
    complementary slackness), argmin of the weighting problem, the weak
    Pareto set and the KT set, each read off its one search; any violated
    forward implication among those is flagged as an anomaly.  Without a
    KT pair (lam None) the two argmin memberships are None.  Every search
    is over the box, so xbar must lie in it."""
    xbar = np.asarray(xbar, dtype=float)
    kt = local_model(P, xbar).multipliers() is not None  # raises InfeasiblePoint
    if not P.in_box(xbar, slack=1e-12):
        raise PointOutsideBox(f"point {xbar.tolist()} lies outside the box")
    in_scal = in_weight = None
    if lam is not None:
        in_scal = check_saddle(P, lam, xbar, mu, grid).is_saddle
        in_weight = weighting_rival(P, lam, mu, xbar, grid) is None
    rival = dominating_rival(P, xbar, grid)
    weak_pareto = rival is None

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
        domination_witness=None if rival is None else rival.rival,
        anomalies=tuple(anomalies),
        grid=grid_size(P, grid),
    )
