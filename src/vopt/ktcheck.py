"""First- and second-order Kuhn-Tucker stationarity, decided by the one
multiplier oracle `LocalModel.multipliers`.

Stationarity Sum λ_i ∇f_i + Sum μ_j ∇g_j = 0 is relaxed to the oracle's band
on row-scaled gradients, so polished floating-point stationary points are not
rejected on roundoff; returned pairs always carry the honestly recomputed
residual.  Every pair is a vertex of the multiplier set, read off the extreme
rays of the multiplier cone (`LocalModel.rays`); along a critical direction
it is the vertex with the largest L''(x; d), lifted along a recession ray when
that is negative, so no LP is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linprog import MultiplierWitness, NumericalBreakdown, StrictWitness, decide_alternative
from .problem import (
    FRITZ_JOHN,
    SUM_LAMBDA_ONE,
    DirectionAnalysis,
    MultiplierPair,
    NotCritical,
    ProblemDef,
    local_model,
)

__all__ = [
    "SUM_LAMBDA_ONE",
    "FRITZ_JOHN",
    "NOT_STATIONARY",
    "FIRST_ORDER_ONLY",
    "SECOND_ORDER_KT",
    "MultiplierPair",
    "DirectionOutcome",
    "StationarityVerdict",
    "PrimalVerdict",
    "NotCritical",
    "first_order_kt",
    "second_order_multipliers",
    "classify_point",
    "primal_necessary",
]

NOT_STATIONARY = "NotStationary"
FIRST_ORDER_ONLY = "FirstOrderOnly"
SECOND_ORDER_KT = "SecondOrderKT"


@dataclass(frozen=True, eq=False)
class DirectionOutcome:
    """A tested critical direction d: its analysis and the oracle's pair with
    L''(x; d) >= 0 on the band, or None if none is."""

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


def first_order_kt(P: ProblemDef, x, normalization: str = SUM_LAMBDA_ONE) -> MultiplierPair | None:
    """One pair (lam, mu) with lam, mu >= 0, mu supported on the active set,
    and Sum lam_i grad f_i + Sum mu_j grad g_j = 0 within the stationarity
    band of `LocalModel.multipliers`; None when no pair fits it."""
    return local_model(P, x).multipliers(normalization=normalization)


def second_order_multipliers(
    P: ProblemDef, x, d, normalization: str = SUM_LAMBDA_ONE
) -> MultiplierPair | None:
    """Multipliers certifying the second-order condition along one critical
    direction d (a vector or a ready DirectionAnalysis): a pair on the band
    with L''(x; d) >= 0 under the chosen normalization, supported on I(x, d)
    and J(x, d) (see `LocalModel.multipliers`).  NotCritical unless d is."""
    m = local_model(P, x)
    _, (f2, g2) = m.along(d)
    return m.multipliers(f2, g2, normalization=normalization)


def classify_point(P: ProblemDef, x, normalization: str = SUM_LAMBDA_ONE) -> StationarityVerdict:
    """First-order test, then one second-order multiplier question per
    direction of the critical cone's finite candidate set
    (`critical_candidates`).  SecondOrderKT means every candidate admits a
    pair: exact up to DEFAULT_TOL, within the stated limit (Σλ = 1 vertices;
    s <= 2 or at most two vertices).  A read of the shared model."""
    m = local_model(P, x)
    fo = m.multipliers(normalization=normalization)
    if fo is None:
        return StationarityVerdict(point=m.point, level=NOT_STATIONARY, first_order=None,
                                   per_direction=(), directions_tested=0)
    outcomes = [
        DirectionOutcome(analysis=da,
                         multipliers=m.multipliers(f2, g2, normalization=normalization))
        for da, (f2, g2) in zip(m.critical_directions, m.critical_seconds)
    ]
    all_ok = all(o.multipliers is not None for o in outcomes)
    return StationarityVerdict(
        point=m.point,
        level=SECOND_ORDER_KT if all_ok else FIRST_ORDER_ONLY,
        first_order=fo,
        per_direction=tuple(outcomes),
        directions_tested=len(outcomes),
    )


def primal_necessary(P: ProblemDef, x, d) -> PrimalVerdict:
    """Decide whether some z satisfies grad h_i(x)·z + h_i''(x; d) < 0 for
    every h_i with index in I(x,d) (objectives) and J(x,d) (constraints).
    Inconsistency is certified by the multiplier system of the alternative
    theorem, which is exactly a Fritz John second-order pair on I ∪ J."""
    da, (f2, g2) = local_model(P, x).along(d)
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
