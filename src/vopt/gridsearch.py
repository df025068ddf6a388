"""Deterministic box-grid machinery shared by the scalarization solvers,
saddle checks, domination scans, and the stationary-point scan.

Everything here is resolution-bounded by construction: results are exact
about what happens on the evaluated grid and polished iterates, nothing
more.  All orderings are lexicographic so repeated runs agree bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .expr import ExprError, eval_grid, evaluate, grad, hessian
from .ktcheck import first_order_kt
from .problem import InfeasiblePoint, ProblemDef

__all__ = [
    "GridData",
    "default_grid",
    "get_grid",
    "descend",
    "weighted_phi",
    "cluster_minima",
    "find_kt_points",
]

FEAS_EPS = 1e-9


def default_grid(s: int) -> int:
    if s <= 2:
        return 201
    if s == 3:
        return 61
    if s == 4:
        return 21
    return 11


@dataclass(frozen=True, eq=False)
class GridData:
    axes: tuple[np.ndarray, ...]
    pts: np.ndarray  # (s, N) all grid points, lexicographic in index order
    F: np.ndarray  # (n, N) objective values, nan where undefined
    G: np.ndarray  # (m, N)
    feasible: np.ndarray  # (N,) bool: finite values and g <= FEAS_EPS·scale
    grid: int


_cache: "weakref.WeakKeyDictionary[ProblemDef, dict[int, GridData]]" = weakref.WeakKeyDictionary()


def get_grid(P: ProblemDef, grid: int | None = None) -> GridData:
    g = int(grid) if grid else default_grid(P.dim)
    per_problem = _cache.setdefault(P, {})
    if g in per_problem:
        return per_problem[g]
    axes = tuple(np.linspace(P.lower[k], P.upper[k], g) for k in range(P.dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    F, G = (np.array([eval_grid(e, pts) for e in es]).reshape(len(es), pts.shape[1])
            for es in (P.objectives, P.constraints))
    ok = np.isfinite(F).all(axis=0) & np.isfinite(G).all(axis=0)
    ok &= (G <= FEAS_EPS * (1.0 + np.abs(G))).all(axis=0)
    data = GridData(axes=axes, pts=pts, F=F, G=G, feasible=ok, grid=g)
    per_problem[g] = data
    return data


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


def descend(phi, dphi, x0, lower, upper, steps: int = 300, accept=None):
    """Projected gradient descent with backtracking.  `accept` may reject
    iterates (feasibility by rejection); the final point always satisfies it.
    Returns (x, phi(x))."""
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    fx = phi(x)
    if not np.isfinite(fx):
        return x, fx
    for _ in range(steps):
        g = dphi(x)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn) or gn <= 1e-14:
            break
        t = 1.0 / max(gn, 1.0)
        moved = False
        while t > 1e-14:
            y = np.clip(x - t * g, lower, upper)
            if accept is None or accept(y):
                fy = phi(y)
                if np.isfinite(fy) and fy < fx - 1e-4 * t * gn * gn:
                    if float(np.linalg.norm(y - x)) < 1e-13:
                        t = 0.0
                        break
                    x, fx = y, fy
                    moved = True
                    break
            t *= 0.5
        if not moved:
            break
    return x, fx


def cluster_minima(points, values, radius: float = 1e-4, window: float = 1e-6, cap: int = 128):
    """Keep candidates within `window` (scaled) of the best value, then thin
    them so representatives are pairwise > radius apart.  Better value wins a
    cluster; ties go to the lexicographically smaller point.  At most `cap`
    representatives survive (a constant field makes every point a minimizer)."""
    vals = np.asarray(values, dtype=float)
    best = float(vals.min())
    win = window * (1.0 + abs(best))
    order = sorted(
        (k for k in range(len(vals)) if vals[k] <= best + win),
        key=lambda k: (vals[k], tuple(points[k])),
    )
    reps: list[tuple[np.ndarray, float]] = []
    for k in order:
        if len(reps) >= cap:
            break
        p = np.asarray(points[k], dtype=float)
        if all(np.linalg.norm(p - r) > radius for r, _ in reps):
            reps.append((p, float(vals[k])))
    reps.sort(key=lambda pv: tuple(pv[0]))
    return reps, best


# ---------------------------------------------------------------------------
# stationary-point discovery


def _coarse_grid(P: ProblemDef, grid: int | None) -> GridData:
    g = int(grid) if grid else default_grid(P.dim)
    return get_grid(P, min(g, 41 if P.dim <= 2 else 21))


def _fd_gradients(P: ProblemDef, data: GridData, h: float = 1e-6):
    """Central-difference gradients of every f_i and g_j at all grid points,
    via vectorized grid evaluation.  (s, n+m, N) stack."""
    exprs = list(P.objectives) + list(P.constraints)
    s, N = data.pts.shape
    out = np.empty((len(exprs), s, N))
    for k in range(s):
        hp = data.pts.copy()
        hm = data.pts.copy()
        hk = h * np.maximum(1.0, np.abs(data.pts[k]))
        hp[k] += hk
        hm[k] -= hk
        for e_i, e in enumerate(exprs):
            with np.errstate(all="ignore"):  # inf - inf; the scan skips non-finite cells
                out[e_i, k] = (eval_grid(e, hp) - eval_grid(e, hm)) / (2.0 * hk)
    return out


def _kt_residual(fg: np.ndarray, gg: np.ndarray) -> float:
    """min over lam >= 0 (sum 1), mu >= 0 of the stationarity norm, by
    penalized nonnegative least squares."""
    n = fg.shape[0]
    cols = np.vstack([fg, gg]).T if gg.size else fg.T  # (s, n+k)
    W = 1e4
    pen = np.concatenate([np.full(n, np.sqrt(W)), np.zeros(cols.shape[1] - n)])
    A = np.vstack([cols, pen])
    b = np.concatenate([np.zeros(cols.shape[0]), [np.sqrt(W)]])
    w, _ = nnls(A, b)
    return float(np.linalg.norm(cols @ w))


def _local_minima_cells(shape, score: np.ndarray) -> list[int]:
    """Flat indices whose score is <= all axis-neighbours'."""
    S = score.reshape(shape)
    ok = np.ones(shape, dtype=bool)
    for ax in range(len(shape)):
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[ax] = slice(1, None)
        hi[ax] = slice(None, -1)
        ok[tuple(lo)] &= S[tuple(lo)] <= S[tuple(hi)]
        ok[tuple(hi)] &= S[tuple(hi)] <= S[tuple(lo)]
    return [int(i) for i in np.flatnonzero(ok.ravel() & np.isfinite(score))]


def _gauss_newton(P: ProblemDef, x0, lam0, mu_idx, steps: int = 40):
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
    for _ in range(steps):
        nr = float(np.linalg.norm(R))
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
            if np.linalg.norm(Rn) < (1.0 - 1e-4 * t) * nr:
                x, lam, mu, R, fg, gg = xn, ln, mn, Rn, fgn, ggn
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x, lam, mu, float(np.linalg.norm(R))


def find_kt_points(P: ProblemDef, grid: int | None = None, tol: float = 1e-8):
    """Scan the box for first-order KT points: coarse-grid scoring by the
    nonnegative least-squares stationarity residual, Gauss-Newton refinement
    with near-active constraint snapping, then LP confirmation.  Returns
    lexicographically sorted points."""
    data = _coarse_grid(P, grid)
    n, m = P.n_objectives, P.n_constraints
    grads = _fd_gradients(P, data)
    near = 0.15

    N = data.pts.shape[1]
    score = np.full(N, np.inf)
    near_ok = (
        (data.G > -near * (1.0 + np.abs(data.G)))
        if m
        else np.zeros((0, N), dtype=bool)
    )
    for idx in range(N):
        if not data.feasible[idx]:
            continue
        fg = grads[:n, :, idx]
        if not np.isfinite(fg).all():
            continue
        rows = [grads[n + j, :, idx] for j in range(m) if near_ok[j, idx]]
        gg = np.array(rows) if rows else np.zeros((0, P.dim))
        if not np.isfinite(gg).all():
            continue
        score[idx] = _kt_residual(fg, gg)

    seeds = set(_local_minima_cells(tuple(len(a) for a in data.axes), score))
    finite = np.flatnonzero(np.isfinite(score))
    best = finite[np.argsort(score[finite], kind="stable")[:32]]
    seeds.update(int(i) for i in best)

    found: list[np.ndarray] = []
    for idx in sorted(seeds):
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
                if first_order_kt(P, x, tol) is None:
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
    return out
