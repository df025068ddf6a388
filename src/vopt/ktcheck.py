"""First- and second-order Kuhn-Tucker stationarity decided by LP feasibility.

Stationarity rows Sum λ_i ∇f_i + Sum μ_j ∇g_j = 0 are relaxed to the point's
stationarity band, tol·(1 + max gradient norm), so polished floating-point
stationary points are not rejected on roundoff; returned pairs always carry the
honestly recomputed residual.  The curvature row L''(x; d) >= 0 is exact, so
returned pairs satisfy it up to solver feasibility tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linprog import (LpProblem, MultiplierWitness, NumericalBreakdown, StrictWitness,
                      decide_alternative, solve_lp)
from .problem import (
    DEFAULT_TOL,
    DirectionAnalysis,
    LocalModel,
    MissingSecondDerivative,
    ProblemDef,
    analyze_direction,
)

__all__ = [
    "SUM_LAMBDA_ONE",
    "FRITZ_JOHN",
    "MODE_PLAIN",
    "MODE_SUPPORT",
    "NOT_STATIONARY",
    "FIRST_ORDER_ONLY",
    "SECOND_ORDER_KT",
    "MultiplierPair",
    "DirectionOutcome",
    "StationarityVerdict",
    "PrimalVerdict",
    "NotCritical",
    "MissingSecondDerivative",
    "first_order_kt",
    "second_order_multipliers",
    "classify_point",
    "primal_necessary",
]

SUM_LAMBDA_ONE = "SumLambdaOne"
FRITZ_JOHN = "FritzJohn"

MODE_PLAIN = "plain"  # stationarity + curvature only; support reported post-hoc
MODE_SUPPORT = "support"  # also pin multipliers outside I(x,d), J(x,d) to zero

NOT_STATIONARY = "NotStationary"
FIRST_ORDER_ONLY = "FirstOrderOnly"
SECOND_ORDER_KT = "SecondOrderKT"


class NotCritical(Exception):
    pass


@dataclass(frozen=True, eq=False)
class MultiplierPair:
    lam: np.ndarray  # length n, >= 0
    mu: np.ndarray  # length m, >= 0, zero off the active set
    normalization: str  # SUM_LAMBDA_ONE or FRITZ_JOHN
    residual: float  # recomputed ||Sum lam grad f + Sum mu grad g||
    curvature: float | None = None  # L''(x; d) for second-order pairs

    def supported_on(self, obj_idx, con_idx, tol: float = 1e-9) -> bool:
        """True when every strictly positive multiplier lies in the given
        index sets (the complementarity-along-d condition)."""
        ok_l = all(i in set(obj_idx) for i in range(len(self.lam)) if self.lam[i] > tol)
        ok_m = all(j in set(con_idx) for j in range(len(self.mu)) if self.mu[j] > tol)
        return ok_l and ok_m


@dataclass(frozen=True, eq=False)
class DirectionOutcome:
    analysis: DirectionAnalysis
    multipliers: MultiplierPair | None


@dataclass(frozen=True, eq=False)
class StationarityVerdict:
    point: np.ndarray
    level: str  # NOT_STATIONARY, FIRST_ORDER_ONLY, SECOND_ORDER_KT
    first_order: MultiplierPair | None
    per_direction: tuple[DirectionOutcome, ...]
    directions_tested: int


@dataclass(frozen=True, eq=False)
class PrimalVerdict:
    status: str  # "Consistent", "Inconsistent", "EmptyIndexSets"
    witness: np.ndarray | None  # z solving the strict system, when consistent
    lam: np.ndarray | None  # Fritz John certificate, when inconsistent
    mu: np.ndarray | None

    @property
    def inconsistent(self) -> bool:
        return self.status == "Inconsistent"


def first_order_kt(
    P: ProblemDef, x, tol: float = DEFAULT_TOL, normalization: str = SUM_LAMBDA_ONE
) -> MultiplierPair | None:
    """One pair (lam, mu) with lam, mu >= 0, mu supported on the active set,
    and Sum lam_i grad f_i + Sum mu_j grad g_j = 0 within the stationarity
    band; None when the stationarity system is infeasible."""
    return _multiplier_lp(LocalModel(P, x, tol), None, None, normalization)


def _multiplier_lp(
    m: LocalModel,
    f2: np.ndarray | None,
    g2: np.ndarray | None,
    normalization: str,
    obj_support: tuple[int, ...] | None = None,
    con_support: tuple[int, ...] | None = None,
) -> MultiplierPair | None:
    """Shared LP core.  Without f2/g2 this is the first-order system; with
    them a curvature row L'' >= 0 and the slack objective max min(L'', 1)
    are added.  Support tuples pin the remaining multipliers to zero by
    dropping their columns."""
    P, act_idx, fg, gg, band = m.P, m.active.indices, m.Gf, m.Gg, m.band
    n, s = P.n_objectives, P.dim
    obj_cols = list(range(n)) if obj_support is None else list(obj_support)
    con_cols = list(range(len(act_idx))) if con_support is None else [
        act_idx.index(j) for j in con_support
    ]
    if not obj_cols and normalization == SUM_LAMBDA_ONE:
        return None
    nl, nm = len(obj_cols), len(con_cols)
    second_order = f2 is not None
    width = nl + nm + (1 if second_order else 0)

    rows: list[np.ndarray] = []
    senses: list[str] = []
    b: list[float] = []

    stationarity = np.zeros((s, width))
    stationarity[:, :nl] = fg[obj_cols].T
    stationarity[:, nl : nl + nm] = gg[con_cols].T
    for r in stationarity:
        rows += [r, r]
        senses += ["<=", ">="]
        b += [band, -band]

    if second_order:
        curv = np.zeros(width)
        curv[:nl] = f2[obj_cols]
        curv[nl : nl + nm] = g2[con_cols]
        rows.append(curv)
        senses.append(">=")
        b.append(0.0)
        vrow = -curv.copy()
        vrow[-1] = 1.0  # v - L'' <= 0
        rows.append(vrow)
        senses.append("<=")
        b.append(0.0)
        cap = np.zeros(width)
        cap[-1] = 1.0
        rows.append(cap)
        senses.append("<=")
        b.append(1.0)

    norm_row = np.zeros(width)
    norm_row[:nl] = 1.0
    if normalization == FRITZ_JOHN:
        norm_row[nl : nl + nm] = 1.0
    rows.append(norm_row)
    senses.append("=")
    b.append(1.0)

    c = np.zeros(width)
    free: tuple[int, ...] = ()
    maximize = False
    if second_order:
        c[-1] = 1.0
        free = (width - 1,)
        maximize = True

    out = solve_lp(
        LpProblem(c=c, A=np.array(rows), senses=senses, b=np.array(b), free=free, maximize=maximize)
    )
    if out.status == "infeasible":
        return None
    if out.status != "optimal":
        raise NumericalBreakdown(f"multiplier search ended with status {out.status}")

    lam = np.zeros(n)
    for col, i in enumerate(obj_cols):
        lam[i] = max(out.x[col], 0.0)
    mu = np.zeros(P.n_constraints)
    for col, j in enumerate(con_cols):
        mu[act_idx[j]] = max(out.x[nl + col], 0.0)
    residual = float(
        np.linalg.norm(
            sum(lam[i] * fg[i] for i in range(n))
            + sum(mu[act_idx[k]] * gg[k] for k in range(len(act_idx)))
        )
    )
    curvature = None
    if second_order:
        curvature = float(
            sum(lam[i] * f2[i] for i in range(n))
            + sum(mu[act_idx[k]] * g2[k] for k in range(len(act_idx)))
        )
    return MultiplierPair(lam=lam, mu=mu, normalization=normalization, residual=residual,
                          curvature=curvature)


def second_order_multipliers(
    P: ProblemDef,
    x,
    d,
    tol: float = DEFAULT_TOL,
    mode: str = MODE_PLAIN,
    normalization: str = SUM_LAMBDA_ONE,
) -> MultiplierPair | None:
    """Multipliers certifying the second-order condition along one critical
    direction: stationarity rows, curvature row L''(x; d) >= 0, and the
    chosen normalization.  `d` may be a vector or a ready DirectionAnalysis."""
    da = d if isinstance(d, DirectionAnalysis) else analyze_direction(P, x, d, tol)
    return _second_order(da, mode, normalization)


def _critical_seconds(da: DirectionAnalysis) -> tuple[np.ndarray, np.ndarray]:
    if not da.is_critical:
        raise NotCritical(f"direction {da.direction} is not critical at {da.point}")
    return da.model.second(da.direction)


def _second_order(da: DirectionAnalysis, mode: str, normalization: str) -> MultiplierPair | None:
    f2, g2 = _critical_seconds(da)
    support = mode == MODE_SUPPORT
    return _multiplier_lp(
        da.model,
        f2,
        g2,
        normalization,
        obj_support=da.zero_objectives if support else None,
        con_support=da.zero_constraints if support else None,
    )


def classify_point(
    P: ProblemDef,
    x,
    tol: float = DEFAULT_TOL,
    dirs: int = 64,
    seed: int = 0,
    mode: str = MODE_PLAIN,
    normalization: str = SUM_LAMBDA_ONE,
) -> StationarityVerdict:
    """First-order test, then second-order multipliers over the sampled
    critical directions.  SecondOrderKT means every tested direction admits
    a pair; the verdict is relative to `dirs` resolution."""
    m = LocalModel(P, x, tol)
    fo = _multiplier_lp(m, None, None, normalization)
    if fo is None:
        return StationarityVerdict(point=m.point, level=NOT_STATIONARY, first_order=None,
                                   per_direction=(), directions_tested=0)
    outcomes = tuple(
        DirectionOutcome(analysis=da, multipliers=_second_order(da, mode, normalization))
        for da in m.critical_directions(dirs, seed)
    )
    all_ok = all(o.multipliers is not None for o in outcomes)
    return StationarityVerdict(
        point=m.point,
        level=SECOND_ORDER_KT if all_ok else FIRST_ORDER_ONLY,
        first_order=fo,
        per_direction=outcomes,
        directions_tested=len(outcomes),
    )


def primal_necessary(P: ProblemDef, x, d, tol: float = DEFAULT_TOL) -> PrimalVerdict:
    """Decide whether some z satisfies grad h_i(x)·z + h_i''(x; d) < 0 for
    every h_i with index in I(x,d) (objectives) and J(x,d) (constraints).
    Inconsistency is certified by the multiplier system of the alternative
    theorem, which is exactly a Fritz John second-order pair on I ∪ J."""
    da = d if isinstance(d, DirectionAnalysis) else analyze_direction(P, x, d, tol)
    f2, g2 = _critical_seconds(da)
    idx_f = da.zero_objectives
    idx_g = [da.active.indices.index(j) for j in da.zero_constraints]  # rows of Gg
    if not idx_f and not idx_g:
        return PrimalVerdict(status="EmptyIndexSets", witness=None, lam=None, mu=None)

    grads = np.vstack([da.model.Gf[list(idx_f)], da.model.Gg[idx_g]])
    seconds = [*f2[list(idx_f)], *g2[idx_g]]
    A = grads.T  # strict columns: gradient part (z variables)
    C = np.array([seconds])  # strict columns: the homogenizing u row
    cert = decide_alternative(A=A, B=None, C=C, D=None)

    if isinstance(cert, MultiplierWitness):
        lam = np.zeros(P.n_objectives)
        mu = np.zeros(P.n_constraints)
        lam[list(idx_f)] = cert.y[: len(idx_f)]
        mu[list(da.zero_constraints)] = cert.y[len(idx_f) :]
        return PrimalVerdict(status="Inconsistent", witness=None, lam=lam, mu=mu)

    assert isinstance(cert, StrictWitness)
    z = cert.x
    u = float(cert.u[0])
    if u > 1e-7:
        z = z / u
    else:
        # Homogeneous solution: grad·z < 0 strictly, so a large multiple
        # swamps the constant second-derivative terms.  Scale by the
        # weakest margin.
        margin = min((-float(g @ z) for g in grads), default=1.0)
        if margin <= 0.0:
            raise NumericalBreakdown("strict witness lost its margin at u = 0")
        t = (1.0 + max(abs(s2) for s2 in seconds)) / margin
        z = z * max(t, 1.0)
    for g, s2 in zip(grads, seconds):
        if float(g @ z) + s2 >= 0.0:
            raise NumericalBreakdown("strict witness failed re-verification after rescaling")
    return PrimalVerdict(status="Consistent", witness=z, lam=None, mu=None)
