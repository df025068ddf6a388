"""Dense linear programming and linear alternative-system certificates.

A small two-phase tableau simplex with Bland's anti-cycling rule backs every
feasibility question in the package.  On top of it, `decide_alternative`
settles which of two mutually exclusive linear systems is solvable

  strict system      A'x + C'u < 0 (column-wise), B'x + D'u <= 0, u >= 0
  multiplier system  A y + B z = 0, C y + D z >= 0, y >= 0 nonzero, z >= 0

and returns a certificate that re-verifies by direct substitution.  The
strict side is decided by maximizing a shared margin; the multiplier side by
a normalized feasibility solve.
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
    """No acceptable pivot: every candidate magnitude fell below PIVOT_TOL."""


@dataclass
class LpProblem:
    """min (or max) c·x  s.t.  A x (senses) b,  x_j >= 0 unless j in free.

    senses holds "<=", "=" or ">=" per row; `free` lists variable indices
    without the nonnegativity bound.
    """

    c: np.ndarray
    A: np.ndarray
    senses: Sequence[str]
    b: np.ndarray
    free: Sequence[int] = ()
    maximize: bool = False


@dataclass
class LpOutcome:
    status: Literal["optimal", "infeasible", "unbounded"]
    x: np.ndarray | None = None
    y: np.ndarray | None = None  # row duals, original row order and sense
    objective: float | None = None


def solve_lp(p: LpProblem) -> LpOutcome:
    c = np.array(p.c, dtype=float)
    b = np.array(p.b, dtype=float)
    A = np.array(p.A, dtype=float).reshape(len(b), -1) if len(b) else np.zeros((0, len(c)))
    m, n = A.shape
    if n != len(c):
        raise ValueError("objective/constraint width mismatch")
    sign = -1.0 if p.maximize else 1.0
    c = sign * c

    # split free variables into positive/negative parts
    free = sorted(set(p.free))
    n_ext = n + len(free)
    Ae = np.hstack([A, -A[:, free]]) if free else A.copy()
    ce = np.concatenate([c, -c[free]]) if free else c.copy()

    # rows to <=/>=/= with b >= 0
    senses = list(p.senses)
    flipped = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            Ae[i] *= -1.0
            b[i] = -b[i]
            flipped[i] = -1.0
            if senses[i] == "<=":
                senses[i] = ">="
            elif senses[i] == ">=":
                senses[i] = "<="

    # slack/surplus columns, then one artificial per row
    slack_cols = []
    for i, s in enumerate(senses):
        if s == "<=":
            col = np.zeros(m)
            col[i] = 1.0
            slack_cols.append(col)
        elif s == ">=":
            col = np.zeros(m)
            col[i] = -1.0
            slack_cols.append(col)
        elif s != "=":
            raise ValueError(f"bad sense {s!r}")
    S = np.column_stack(slack_cols) if slack_cols else np.zeros((m, 0))
    n_slack = S.shape[1]
    T = np.hstack([Ae, S, np.eye(m)])
    total = T.shape[1]
    art0 = n_ext + n_slack
    basis = list(range(art0, art0 + m))

    scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(np.abs(Ae).max(initial=0.0)))

    # phase 1: minimize artificial sum
    cost1 = np.zeros(total)
    cost1[art0:] = 1.0
    T, b, basis, status = _simplex(T, b, basis, cost1, block=None)
    if status == "unbounded":  # cannot happen for a sum of nonnegatives
        raise NumericalBreakdown("phase-1 unbounded")
    if float(cost1[basis] @ b) > FEAS_TOL * scale:
        return LpOutcome("infeasible")
    _drive_out_artificials(T, b, basis, art0)

    # phase 2 on the true costs, artificials barred from entering
    cost2 = np.zeros(total)
    cost2[:n_ext] = ce
    T, b, basis, status = _simplex(T, b, basis, cost2, block=art0)
    if status == "unbounded":
        return LpOutcome("unbounded")

    xe = np.zeros(total)
    xe[basis] = b
    x = xe[:n].copy()
    for k, j in enumerate(free):
        x[j] -= xe[n + k]

    # duals read off the artificial columns: they began as the identity, so
    # their final tableau entries are B^-1 and cB·B^-1 gives row prices
    y = cost2[basis] @ T[:, art0:]
    y = y * flipped * sign
    obj = float(ce @ xe[:n_ext]) * sign
    return LpOutcome("optimal", x=x, y=np.asarray(y), objective=obj)


def _simplex(T, b, basis, cost, block):
    """Bland-rule iterations on tableau T (rows m, incl. a basis identity).

    `block` bars columns >= block from entering (phase 2).  Returns the
    updated tableau, rhs, basis and "optimal"/"unbounded".
    """
    m, total = T.shape
    limit = total if block is None else block
    while True:
        y = cost[basis] @ T
        reduced = cost - y
        enter = -1
        for j in range(limit):
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


def _drive_out_artificials(T, b, basis, art0):
    """Pivot basic artificials (at value ~0) onto any usable real column;
    rows with no such column are redundant and left in place harmlessly."""
    for r in range(len(basis)):
        if basis[r] >= art0:
            cols = np.flatnonzero(np.abs(T[r, :art0]) > 1e-7)
            cols = [j for j in cols if j not in basis]
            if cols:
                _pivot(T, b, r, cols[0])
                basis[r] = cols[0]


# ---------------------------------------------------------------------------
# alternative systems


@dataclass(frozen=True)
class StrictWitness:
    """Solves the strict system: every A-column row strictly negative."""

    x: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class MultiplierWitness:
    """Solves the multiplier system: A y + B z = 0 with y normalized."""

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
        if n == 0 or M.size % n or (by_rows and M.size // n < cols):  # D narrower than B
            raise BlockShapeError(f"a block of {M.size} entries does not fit A of shape {s}x{q}")
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
    # per B-column  B_j·x + D_j·u <= 0,  u >= 0, v <= 1 (cap keeps it bounded)
    nvar = s + p + 1
    rows, senses, rhs = [], [], []
    for i in range(q):
        rows.append(np.concatenate([A[:, i], C[:, i], [1.0]]))
        senses.append("<=")
        rhs.append(0.0)
    for j in range(r):
        rows.append(np.concatenate([B[:, j], D[:, j], [0.0]]))
        senses.append("<=")
        rhs.append(0.0)
    cap = np.zeros(nvar)
    cap[-1] = 1.0
    rows.append(cap)
    senses.append("<=")
    rhs.append(1.0)
    c = np.zeros(nvar)
    c[-1] = 1.0
    out = solve_lp(
        LpProblem(c, np.array(rows), senses, np.array(rhs),
                  free=tuple(range(s)) + (nvar - 1,), maximize=True)
    )
    if out.status == "optimal" and out.objective is not None and out.objective > MARGIN:
        w = StrictWitness(x=out.x[:s].copy(), u=out.x[s : s + p].copy())
        if not verify_certificate(w, A, B, C, D):
            raise NumericalBreakdown("strict witness failed re-verification")
        return w

    # multiplier side: feasibility of A y + B z = 0, C y + D z >= 0, sum y = 1
    nyz = q + r
    rows2 = [np.concatenate([A[i], B[i]]) for i in range(s)]
    senses2 = ["="] * s
    rhs2 = [0.0] * s
    for k in range(p):
        rows2.append(np.concatenate([C[k], D[k]]))
        senses2.append(">=")
        rhs2.append(0.0)
    rows2.append(np.concatenate([np.ones(q), np.zeros(r)]))
    senses2.append("=")
    rhs2.append(1.0)
    out2 = solve_lp(
        LpProblem(np.zeros(nyz), np.array(rows2), senses2, np.array(rhs2))
    )
    if out2.status != "optimal":
        raise NumericalBreakdown("neither alternative system was decidable")
    w2 = MultiplierWitness(y=out2.x[:q].copy(), z=out2.x[q:].copy())
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
            and float(y.sum()) > 0.5  # normalized, hence nonzero
            and bool((z >= -FEAS_TOL).all())
        )
    raise TypeError(f"not a certificate: {cert!r}")
