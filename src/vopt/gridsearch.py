"""Deterministic box-grid machinery shared by the scalarization solvers,
saddle checks, domination scans, and the stationary-point scan.

Everything here is resolution-bounded by construction: results are exact
about what happens on the evaluated grid and polished iterates, nothing
more.  All orderings are lexicographic so repeated runs agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ExprError, eval_grid, evaluate, grad, hessian
from .ktcheck import first_order_kt
from .memo import GRIDS, RESULTS, memo
from .problem import InfeasiblePoint, ProblemDef, _subsets, within

__all__ = [
    "GridData",
    "GridTooLarge",
    "grid_size",
    "get_grid",
    "descend",
    "weighted_phi",
    "local_minima_cells",
    "lowest",
    "nnls",
    "find_kt_points",
]

FEAS_EPS = 1e-9
MAX_GRID_POINTS = 25_000_000  # refused before meshgrid allocates, so a typo in --grid fails fast
SEED_CAP = 128  # a constant field makes every cell a minimum: at most this many seeds or representatives
DESCENT_STEPS = 300
NEWTON_STEPS = 40
FD_STEP = 1e-6  # relative central-difference step of the grid gradients


class GridTooLarge(Exception):
    pass


@dataclass(frozen=True, eq=False)
class GridData:
    axes: tuple[np.ndarray, ...]
    pts: np.ndarray  # (s, N) all grid points, lexicographic in index order
    F: np.ndarray  # (n, N) objective values, nan where undefined
    G: np.ndarray  # (m, N)
    feasible: np.ndarray  # (N,) bool: finite values and g <= FEAS_EPS·scale
    grid: int


def grid_size(P: ProblemDef, grid: int | None = None) -> int:
    """Points per axis: `grid`, or the default for the problem's dimension."""
    return int(grid) if grid else {3: 61, 4: 21}.get(P.dim, 201 if P.dim <= 2 else 11)


def get_grid(P: ProblemDef, grid: int | None = None) -> GridData:
    g = grid_size(P, grid)
    if g**P.dim > MAX_GRID_POINTS:
        raise GridTooLarge(f"grid {g} over {P.dim} variables has {g**P.dim} points, over {MAX_GRID_POINTS}")
    return _grid(P, g)


@memo(GRIDS)
def _grid(P: ProblemDef, g: int) -> GridData:
    axes = tuple(np.linspace(P.lower[k], P.upper[k], g) for k in range(P.dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    F, G = (np.array([eval_grid(e, pts) for e in es]).reshape(len(es), pts.shape[1])
            for es in (P.objectives, P.constraints))
    ok = np.isfinite(F).all(axis=0) & np.isfinite(G).all(axis=0)
    ok &= within(G, FEAS_EPS).all(axis=0)
    return GridData(axes=axes, pts=pts, F=F, G=G, feasible=ok, grid=g)


def weighted_phi(P: ProblemDef, lam, mu):
    """The scalar field Sum lam_i f_i + Sum mu_j g_j and its gradient."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float) if mu is not None else np.zeros(P.n_constraints)

    def phi(x: np.ndarray) -> float:
        try:
            v = sum(lam[i] * evaluate(P.objectives[i], x) for i in range(P.n_objectives))
            v += sum(mu[j] * evaluate(P.constraints[j], x) for j in range(P.n_constraints) if mu[j])
            return float(v)
        except ExprError:
            return np.inf

    def dphi(x: np.ndarray) -> np.ndarray:
        g = np.zeros(P.dim)
        for i in range(P.n_objectives):
            if lam[i]:
                g += lam[i] * grad(P.objectives[i], x)
        for j in range(P.n_constraints):
            if mu[j]:
                g += mu[j] * grad(P.constraints[j], x)
        return g

    return phi, dphi


def _norm(v) -> float:
    """Euclidean norm; past the double range it reads inf, with no overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def descend(phi, dphi, x0, lower, upper, restore=None):
    """Projected gradient descent with backtracking; gradient components that
    push out of a box face are dropped.  A step must win half the decrease
    g·(x - y) predicted along the projection (not the usual 1e-4), so steps
    near 2/L that bounce across a stiff valley are refused; the first trial
    is twice the last step taken, so a flat basin takes few steps.  `restore`,
    if given, replaces the clip: it maps a trial point to a feasible one in
    the box, or to None to refuse it.  Returns (x, phi(x))."""
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    fx = phi(x)
    if not np.isfinite(fx):
        return x, fx
    last = 0.0
    for _ in range(DESCENT_STEPS):
        g = dphi(x)
        g = np.where(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)), 0.0, g)
        gn = _norm(g)
        if not np.isfinite(gn) or gn <= 1e-14:
            break
        t = max(1.0 / max(gn, 1.0), 2.0 * last)
        moved = False
        while t > 1e-14:
            y = np.clip(x - t * g, lower, upper) if restore is None else restore(x - t * g)
            t *= 0.5
            if y is None:
                continue
            if float(np.linalg.norm(y - x)) < 1e-13:
                break
            fy, pred = phi(y), float(g @ (x - y))
            if pred > 0 and np.isfinite(fy) and fy <= fx - 0.5 * pred:
                moved = fx - fy > 1e-15 * (1.0 + abs(fy))  # else stop: rounding-level gain
                x, fx, last = y, fy, 2.0 * t  # t was halved after the trial
                break
        if not moved:
            break
    return x, fx


def local_minima_cells(shape, score: np.ndarray) -> list[int]:
    """Flat indices whose score is <= all axis-neighbours'."""
    S = score.reshape(shape)
    ok = np.ones(shape, dtype=bool)
    for ax in range(len(shape)):
        lo = tuple(slice(1, None) if a == ax else slice(None) for a in range(len(shape)))
        hi = tuple(slice(None, -1) if a == ax else slice(None) for a in range(len(shape)))
        ok[lo] &= S[lo] <= S[hi]
        ok[hi] &= S[hi] <= S[lo]
    return [int(i) for i in np.flatnonzero(ok.ravel() & np.isfinite(score))]


def lowest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k lowest values in order, ties by index: the first k of
    a stable argsort, by partial selection rather than a full sort."""
    cut = np.partition(values, k - 1)[k - 1] if k < values.size else np.inf
    idx = np.flatnonzero(values <= cut)
    return idx[np.argsort(values[idx], kind="stable")[:k]]


# ---------------------------------------------------------------------------
# stationary-point discovery


def _fd_gradients(P: ProblemDef, data: GridData):
    """Central-difference gradients of every f_i and g_j at all grid points,
    via vectorized grid evaluation.  (s, n+m, N) stack."""
    exprs = list(P.objectives) + list(P.constraints)
    s, N = data.pts.shape
    out = np.empty((len(exprs), s, N))
    for k in range(s):
        hp, hm = data.pts.copy(), data.pts.copy()
        hk = FD_STEP * np.maximum(1.0, np.abs(data.pts[k]))
        hp[k] += hk
        hm[k] -= hk
        for e_i, e in enumerate(exprs):
            with np.errstate(all="ignore"):  # inf - inf; the scan skips non-finite cells
                out[e_i, k] = (eval_grid(e, hp) - eval_grid(e, hm)) / (2.0 * hk)
    return out


def nnls(cols: np.ndarray, n: int) -> np.ndarray:
    """KT scores of a stack of cells that share their columns: `cols` is
    (N, s, k), each cell's n objective gradients then its near-active
    constraint gradients.  A score is ‖cols·w‖ at the w >= 0 that minimises
    ‖cols·w‖² + W(Σ_{i<n} w_i - 1)², W = 1e4.  That optimum is the least-
    squares solution on its own support, with a unique fit (Lawson & Hanson),
    so the best nonnegative pinv solution over all supports is exact."""
    N, s, k = cols.shape
    A = np.concatenate([cols, np.broadcast_to(100.0 * (np.arange(k) < n), (N, 1, k))], axis=1)
    b = 100.0 * (np.arange(s + 1) == s)  # 100 = sqrt(W)
    best, score = np.full(N, np.inf), np.full(N, np.inf)
    for S in filter(None, _subsets(k)):  # every nonempty support
        w = np.linalg.pinv(A[:, :, S]) @ b
        fit = (A[:, :, S] @ w[:, :, None])[:, :, 0]
        res = np.linalg.norm(fit - b, axis=1)
        win = (w >= 0).all(axis=1) & (res < best)
        best[win], score[win] = res[win], np.linalg.norm(fit[win, :s], axis=1)
    return score


def _gauss_newton(P: ProblemDef, x0, lam0, mu_idx):
    """Refine (x, lam, mu) on the square system [stationarity; sum lam - 1;
    g_j = 0 for snapped j] by damped least-squares steps."""
    s, n = P.dim, P.n_objectives
    k = len(mu_idx)
    x = np.asarray(x0, dtype=float).copy()
    lam = np.asarray(lam0, dtype=float).copy()
    mu = np.full(k, 0.1)

    def residual(x, lam, mu):
        fg = np.array([grad(f, x) for f in P.objectives])
        gg = np.array([grad(P.constraints[j], x) for j in mu_idx]).reshape(k, s)
        r1 = fg.T @ lam + (gg.T @ mu if k else 0.0)
        r2 = np.array([lam.sum() - 1.0])
        r3 = np.array([evaluate(P.constraints[j], x) for j in mu_idx])
        return np.concatenate([np.atleast_1d(r1), r2, r3]), fg, gg

    R, fg, gg = residual(x, lam, mu)
    for _ in range(NEWTON_STEPS):
        nr = _norm(R)
        if nr <= 1e-12:
            break
        H = sum(lam[i] * hessian(P.objectives[i], x) for i in range(n))
        for c, j in enumerate(mu_idx):
            H = H + mu[c] * hessian(P.constraints[j], x)
        J = np.zeros((s + 1 + k, s + n + k))
        J[:s, :s] = H
        J[:s, s : s + n] = fg.T
        if k:
            J[:s, s + n :] = gg.T
        J[s, s : s + n] = 1.0
        if k:
            J[s + 1 :, :s] = gg
        delta, *_ = np.linalg.lstsq(J, -R, rcond=None)
        t = 1.0
        improved = False
        while t > 1e-10:
            xn = x + t * delta[:s]
            ln = lam + t * delta[s : s + n]
            mn = mu + t * delta[s + n :]
            try:
                Rn, fgn, ggn = residual(xn, ln, mn)
            except ExprError:
                t *= 0.5
                continue
            if _norm(Rn) < (1.0 - 1e-4 * t) * nr:
                x, lam, mu, R, fg, gg = xn, ln, mn, Rn, fgn, ggn
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x, lam, mu, _norm(R)


@memo(RESULTS)
def find_kt_points(P: ProblemDef, grid: int | None = None):
    """Scan the box for first-order KT points: `nnls` scores the coarse cells,
    grid-local minima and the 32 best cells seed (at most SEED_CAP, best
    first), Gauss-Newton refines with near-active constraint snapping, and
    the multiplier oracle (`first_order_kt`) confirms.  Returns a
    lexicographically sorted tuple of points."""
    data = get_grid(P, min(grid_size(P, grid), 41 if P.dim <= 2 else 21))  # coarse
    n, m = P.n_objectives, P.n_constraints
    grads = _fd_gradients(P, data)
    near = 0.15

    score = np.full(data.pts.shape[1], np.inf)
    near_set = (1 << np.arange(m)) @ (data.G > -near * (1.0 + np.abs(data.G)))  # as bits
    live = data.feasible & np.isfinite(grads[:n]).all(axis=(0, 1))
    for bits in np.unique(near_set[live]):  # the cells of one near-active set share their columns
        rows = list(range(n)) + [n + j for j in range(m) if bits >> j & 1]
        cells = np.flatnonzero(live & (near_set == bits))
        cols = grads[:, :, cells][rows]
        fin = np.isfinite(cols).all(axis=(0, 1))
        score[cells[fin]] = nnls(cols[:, :, fin].transpose(2, 1, 0), n)

    seeds = set(local_minima_cells(tuple(len(a) for a in data.axes), score))
    seeds.update(lowest(score, 32).tolist())  # unscored (inf) cells last, and cut below
    seeds = sorted(sorted(seeds, key=lambda i: (score[i], i))[:SEED_CAP])

    found: list[np.ndarray] = []
    for idx in seeds:
        if score[idx] > 0.5:
            continue
        x0 = data.pts[:, idx]
        snap = [j for j in range(m) if data.G[j, idx] > -0.05 * (1.0 + abs(data.G[j, idx]))]
        lam0 = np.full(n, 1.0 / n)
        for mu_idx in ([tuple(snap)] if snap else []) + [()]:
            try:
                x, lam, mu, res = _gauss_newton(P, x0, lam0, mu_idx)
            except (ExprError, np.linalg.LinAlgError):
                continue
            if res > 1e-8 or not P.in_box(x, slack=1e-9):
                continue
            x = np.clip(x, P.lower, P.upper)
            try:
                if first_order_kt(P, x) is None:
                    continue
            except InfeasiblePoint:
                continue
            found.append(x + 0.0)  # +0.0 folds -0.0 into 0.0
            break

    found.sort(key=lambda p: tuple(np.round(p, 6)))
    out: list[np.ndarray] = []
    for x in found:
        if all(np.linalg.norm(x - y) > 1e-5 for y in out):
            out.append(x)
    return tuple(out)
