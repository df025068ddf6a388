"""Shared oracle helpers, each independent of the code it checks:
- direct LP encodings of the two alternative systems, solved by HiGHS
  (`scipy.optimize.linprog`) rather than vopt's own simplex, so they confirm
  decide_alternative verdicts;
- a Richardson-extrapolated limit quotient for the second directional
  derivative, a cross-check of the jet;
- the support test of a multiplier pair;
- a HiGHS feasibility check that a weight λ completes to a KT pair on the
  stationarity band."""

import math

import numpy as np
from scipy.optimize import linprog

from vopt.expr import ExprError, evaluate, grad

MARGIN = 1e-9  # a strict solution must clear this, as decide_alternative asks


def _shaped(A, B, C, D):
    """Blocks as 2-D arrays: A (s, q), B (s, r), C (p, q), D (p, r); an absent
    or empty block has zero columns (B) or zero rows (C, D)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    s, q = A.shape

    def block(M, rows, cols):
        M = None if M is None else np.asarray(M, dtype=float)
        if M is None or M.size == 0:
            return np.zeros((0 if rows is None else rows, 0 if cols is None else cols))
        return M.reshape(-1 if rows is None else rows, -1 if cols is None else cols)

    B = block(B, s, None)
    C = block(C, None, q)
    D = block(D, C.shape[0], B.shape[1]) if C.shape[0] and B.shape[1] else np.zeros(
        (C.shape[0], B.shape[1])
    )
    return A, B, C, D


def strict_system_solvable(A, B=None, C=None, D=None) -> bool:
    """Feasibility of  A_i·x + C_i·u < 0 (all i), B_j·x + D_j·u <= 0, u >= 0,
    as the capped max-margin LP over (x, u, v): max v with A_i·x + C_i·u + v <= 0."""
    A, B, C, D = _shaped(A, B, C, D)
    s, q = A.shape
    r, p = B.shape[1], C.shape[0]
    if q == 0:
        return True
    A_ub = np.vstack([
        np.hstack([A.T, C.T, np.ones((q, 1))]),
        np.hstack([B.T, D.T, np.zeros((r, 1))]),
    ])
    c = np.zeros(s + p + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * s + [(0, None)] * p + [(None, 1.0)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(q + r), bounds=bounds, method="highs")
    return res.status == 0 and -res.fun > MARGIN


def multiplier_system_solvable(A, B=None, C=None, D=None) -> bool:
    """Feasibility of  A y + B z = 0, C y + D z >= 0, y >= 0 normalized, z >= 0."""
    A, B, C, D = _shaped(A, B, C, D)
    s, q = A.shape
    r, p = B.shape[1], C.shape[0]
    if q == 0:
        return False
    A_eq = np.vstack([np.hstack([A, B]), np.concatenate([np.ones(q), np.zeros(r)])])
    b_eq = np.concatenate([np.zeros(s), [1.0]])
    A_ub = -np.hstack([C, D]) if p else None
    b_ub = np.zeros(p) if p else None
    res = linprog(np.zeros(q + r), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    return res.status == 0


def random_instance(rng, max_dim=6):
    """Random block quadruple with entries in [-3, 3]; B/C/D may be absent."""
    s = int(rng.integers(1, max_dim + 1))
    q = int(rng.integers(1, max_dim + 1))
    r = int(rng.integers(0, max_dim + 1))
    p = int(rng.integers(0, max_dim + 1))
    A = rng.uniform(-3, 3, size=(s, q))
    B = rng.uniform(-3, 3, size=(s, r)) if r else None
    C = rng.uniform(-3, 3, size=(p, q)) if p else None
    D = rng.uniform(-3, 3, size=(p, r)) if (p and r) else None
    return A, B, C, D


class NonConvergent(ExprError):
    """The limit-quotient extrapolation failed to settle."""

    def __init__(self, estimate: float, bound: float):
        self.estimate = estimate
        self.bound = bound
        super().__init__(f"limit quotient did not converge (bound {bound:.3e})")


def second_dir_deriv_limit(e, x, d, steps: int = 20, t0: float = 0.1) -> tuple[float, float]:
    """Independent estimate of the second directional derivative from its
    defining limit  2 t^-2 (h(x+td) - h(x) - t grad h(x)·d)  at t = t0 / 2^k,
    accelerated by a Richardson table.  Returns (estimate, error bound); the
    bound is the change between the last two accepted diagonal entries.
    Raises NonConvergent if the best bound exceeds 1e-4.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if not d.any():
        return 0.0, 0.0
    h0 = evaluate(e, x)
    slope = float(grad(e, x) @ d)

    def quotient(t: float) -> float:
        return 2.0 / (t * t) * (evaluate(e, x + t * d) - h0 - t * slope)

    row: list[float] = [quotient(t0)]
    best = (row[0], math.inf)
    scale = 1.0 + abs(row[0])
    for k in range(1, steps + 1):
        t = t0 / 2.0**k
        nxt = [quotient(t)]
        for j in range(1, k + 1):
            nxt.append(nxt[j - 1] + (nxt[j - 1] - row[j - 1]) / (2.0**j - 1.0))
        err = abs(nxt[-1] - row[-1])
        if err < best[1]:
            best = (nxt[-1], err)
        row = nxt
        if err <= 1e-14 * scale:
            break
    est, bound = best
    if bound > 1e-4:
        raise NonConvergent(est, bound)
    return est, bound


def supported_on(pair, obj_idx, con_idx, tol: float = 1e-9) -> bool:
    """True when every strictly positive multiplier of `pair` lies in the
    given index sets (the complementarity-along-d condition)."""
    ok_l = all(i in set(obj_idx) for i in range(len(pair.lam)) if pair.lam[i] > tol)
    ok_m = all(j in set(con_idx) for j in range(len(pair.mu)) if pair.mu[j] > tol)
    return ok_l and ok_m


def band_admits(P, x, lam, tol: float = 1e-8) -> bool:
    """Some μ >= 0 on the active set puts (λ, μ) in the stationarity band:
    with rows scaled by c = max(|row|, 1),
    |Σλ_i∇f_i + Σμ_j∇g_j|∞ <= tol·(Σλ_i c_i + Σλ_i|∇f_i| + Σμ_j|∇g_j|),
    decided by HiGHS on the rows of that inequality."""
    x, lam = np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
    Gf = np.array([grad(f, x) for f in P.objectives])
    values = [evaluate(g, x) for g in P.constraints]
    Gg = np.array([grad(g, x) for g, v in zip(P.constraints, values)
                   if abs(v) <= tol * (1.0 + abs(v))]).reshape(-1, len(x))
    fn, gn = np.linalg.norm(Gf, axis=1), np.linalg.norm(Gg, axis=1)
    base, room = lam @ Gf, tol * (lam @ np.maximum(fn, 1.0) + lam @ fn)
    if not len(Gg):
        return bool((np.abs(base) <= room).all())
    A_ub = np.vstack([Gg.T - tol * gn, -Gg.T - tol * gn])
    b_ub = np.concatenate([room - base, room + base])
    res = linprog(np.zeros(len(Gg)), A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    return res.status == 0
