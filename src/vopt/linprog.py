"""Dense linear programming and linear alternative-system certificates.

Every LP the package solves has the one form

  max c·x  s.t.  A x <= b,  b >= 0,  x_j >= 0 unless j is free,

so the origin is feasible and a single tableau simplex with Bland's
anti-cycling rule starts from the slack basis, with no phase 1.  On top of
it, `decide_alternative` settles which of two mutually exclusive linear
systems is solvable

  strict system      A'x + C'u < 0 (column-wise), B'x + D'u <= 0, u >= 0
  multiplier system  A y + B z = 0, C y + D z >= 0, y >= 0 nonzero, z >= 0

and returns a certificate that re-verifies by direct substitution.  One LP
decides both sides: the strict side by maximizing a shared margin, its
witness scaled to max |(x, u)| = 1; the multiplier side read off the same
LP's row duals, scaled to sum y = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

__all__ = [
    "LpProblem",
    "LpOutcome",
    "NumericalBreakdown",
    "BlockShapeError",
    "solve_lp",
    "StrictWitness",
    "MultiplierWitness",
    "decide_alternative",
    "verify_certificate",
]

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-12
MARGIN = 1e-9  # strict rows are accepted only beyond this


class NumericalBreakdown(Exception):
    """Rounding defeated a step that exact arithmetic settles: a simplex pivot
    below PIVOT_TOL, an unbounded margin LP, a margin-LP dual with no mass, or
    a witness (here, in ktcheck or in invexity) that fails its
    re-verification."""


@dataclass
class LpProblem:
    """max c·x  s.t.  A x <= b,  x_j >= 0 unless j in free.

    b must be >= 0, so that x = 0 is feasible; `free` lists variable indices
    without the nonnegativity bound.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: Sequence[int] = ()


@dataclass
class LpOutcome:
    status: Literal["optimal", "unbounded"]
    x: np.ndarray | None = None
    y: np.ndarray | None = None  # row duals, >= 0 at the optimum
    objective: float | None = None


def solve_lp(p: LpProblem) -> LpOutcome:
    c = np.array(p.c, dtype=float)
    b = np.array(p.b, dtype=float)
    A = np.array(p.A, dtype=float).reshape(len(b), -1) if len(b) else np.zeros((0, len(c)))
    m, n = A.shape
    if n != len(c):
        raise ValueError("objective/constraint width mismatch")
    if (b < 0).any():
        raise ValueError("right-hand side must be >= 0, so that x = 0 is feasible")

    # split free variables into positive/negative parts, then one slack per row
    free = sorted(set(p.free))
    n_ext = n + len(free)
    T = np.hstack([A, -A[:, free], np.eye(m)])
    cost = np.zeros(T.shape[1])  # _simplex minimizes -c·x
    cost[:n] = -c
    cost[n:n_ext] = c[free]
    T, b, basis, status = _simplex(T, b, list(range(n_ext, n_ext + m)), cost)
    if status == "unbounded":
        return LpOutcome("unbounded")

    xe = np.zeros(T.shape[1])
    xe[basis] = b
    x = xe[:n].copy()
    for k, j in enumerate(free):
        x[j] -= xe[n + k]

    # duals read off the slack columns: they began as the identity, so their
    # final tableau entries are B^-1 and -cB·B^-1 gives the row prices
    y = -(cost[basis] @ T[:, n_ext:])
    return LpOutcome("optimal", x=x, y=y, objective=float(c @ x))


def _simplex(T, b, basis, cost):
    """Bland-rule iterations minimizing cost·x on tableau T (m rows, with a
    basis identity) from a feasible basis.  Returns the updated tableau, rhs,
    basis and "optimal"/"unbounded".
    """
    m, total = T.shape
    while True:
        y = cost[basis] @ T
        reduced = cost - y
        enter = -1
        for j in range(total):
            if j not in basis and reduced[j] < -FEAS_TOL:
                enter = j
                break
        if enter < 0:
            return T, b, basis, "optimal"
        col = T[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return T, b, basis, "unbounded"
        ratios = np.where(pos, b / np.where(pos, col, 1.0), np.inf)
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among the tied rows
        rows = np.flatnonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))
        leave = min(rows, key=lambda r: basis[r])
        if abs(col[leave]) < PIVOT_TOL:
            raise NumericalBreakdown("pivot below tolerance")
        _pivot(T, b, leave, enter)
        basis[leave] = enter


def _pivot(T, b, row, col):
    piv = T[row, col]
    T[row] /= piv
    b[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    b -= factors * b[row]


# ---------------------------------------------------------------------------
# alternative systems


@dataclass(frozen=True)
class StrictWitness:
    """Solves the strict system: every A-column row strictly negative."""

    x: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class MultiplierWitness:
    """Solves the multiplier system: A y + B z = 0 with sum y = 1."""

    y: np.ndarray
    z: np.ndarray


class BlockShapeError(ValueError):
    """A block's entries do not fill whole rows and columns against A."""


def _blocks(A, B, C, D):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2:
        raise BlockShapeError(f"block A has {A.ndim} axes, not 2")
    s, q = A.shape

    def fit(M, rows, cols, by_rows):
        if M is None:
            return np.zeros((rows, cols))
        M = np.asarray(M, dtype=float)
        if M.size == 0:
            return np.zeros((rows, cols))
        n = rows if by_rows else cols
        if n == 0 or M.size % n or (rows and cols and M.size != rows * cols):  # D is p x r
            raise BlockShapeError(f"a block of {M.size} entries is not {rows or '?'}x{cols or '?'}"
                                  f" next to A of shape {s}x{q}")
        return M.reshape(rows, -1) if by_rows else M.reshape(-1, cols)

    B = fit(B, s, 0, True)
    C = fit(C, 0, q, False)
    D = fit(D, C.shape[0], B.shape[1], True) if (C.shape[0] and B.shape[1]) else np.zeros(
        (C.shape[0], B.shape[1])
    )
    return A, B, C, D


def decide_alternative(A, B=None, C=None, D=None) -> StrictWitness | MultiplierWitness:
    """Decide which of the two exclusive systems is solvable and return a
    verified witness.  A holds the strict-row columns (one per inequality),
    B the weak-row columns, C/D the corresponding u-coefficient rows.
    """
    A, B, C, D = _blocks(A, B, C, D)
    s, q = A.shape
    r, p = B.shape[1], C.shape[0]
    if q == 0:
        return StrictWitness(x=np.zeros(s), u=np.zeros(p))  # no strict rows to satisfy

    # margin LP over (x, u, v): max v s.t. per A-column  A_i·x + C_i·u + v <= 0,
    # per B-column  B_j·x + D_j·u <= 0,  u >= 0, v <= 1 (cap keeps it bounded).
    # Its dual is  min t  s.t.  A y + B z = 0, C y + D z >= 0, sum y + t = 1,
    # y, z, t >= 0, so one solve answers both sides: the LP is homogeneous
    # apart from the cap, v* is 0 or 1, and at v* = 0 the row duals on the
    # A- and B-columns solve the multiplier system with sum y = 1.
    c = np.zeros(s + p + 1)
    c[-1] = 1.0
    rows = np.block([[A.T, C.T, np.ones((q, 1))], [B.T, D.T, np.zeros((r, 1))], [c]])
    out = solve_lp(LpProblem(c, rows, np.append(np.zeros(q + r), 1.0),
                             free=tuple(range(s)) + (s + p,)))
    if out.status == "unbounded":  # v <= 1 bounds the LP
        raise NumericalBreakdown("the margin LP read unbounded")
    if out.objective > MARGIN:
        xu = out.x[: s + p] / np.abs(out.x[: s + p]).max()  # homogeneous: scale to max 1
        w = StrictWitness(x=xu[:s], u=xu[s:])
        if not verify_certificate(w, A, B, C, D):
            raise NumericalBreakdown("strict witness failed re-verification")
        return w

    yz = np.maximum(out.y[: q + r], 0.0)
    mass = float(yz[:q].sum())
    if mass <= 0.5:  # strong duality rules this out: sum y = 1 - v* >= 1 - MARGIN
        raise NumericalBreakdown("the margin LP's dual has no mass on the strict rows")
    yz /= mass
    w2 = MultiplierWitness(y=yz[:q], z=yz[q:])
    if not verify_certificate(w2, A, B, C, D):
        raise NumericalBreakdown("multiplier witness failed re-verification")
    return w2


def verify_certificate(cert, A, B=None, C=None, D=None) -> bool:
    """Recheck a witness by direct substitution at the module tolerances."""
    A, B, C, D = _blocks(A, B, C, D)
    if isinstance(cert, StrictWitness):
        x, u = np.asarray(cert.x, float), np.asarray(cert.u, float)
        strict = A.T @ x + (C.T @ u if len(u) else 0.0)
        weak = B.T @ x + (D.T @ u if len(u) else 0.0)
        return (
            bool((strict <= -MARGIN).all())
            and bool((weak <= FEAS_TOL).all())
            and bool((u >= -FEAS_TOL).all())
        )
    if isinstance(cert, MultiplierWitness):
        y, z = np.asarray(cert.y, float), np.asarray(cert.z, float)
        resid = A @ y + (B @ z if len(z) else 0.0)
        cd = C @ y + (D @ z if len(z) else 0.0)
        return (
            bool(np.abs(resid).max(initial=0.0) <= FEAS_TOL)
            and bool((cd >= -FEAS_TOL).all())
            and bool((y >= -FEAS_TOL).all())
            and abs(float(y.sum()) - 1.0) <= FEAS_TOL  # normalized, hence nonzero
            and bool((z >= -FEAS_TOL).all())
        )
    raise TypeError(f"not a certificate: {cert!r}")
