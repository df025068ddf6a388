"""Scan-based verdicts for the invexity classes.

Each class is equivalent to a property of the problem's Kuhn-Tucker points:
saddle of the scalarized Lagrangian, weak or plain Pareto minimality, or
optimality for the weighting problem with the same weight vector.  The
second-order classes quantify over second-order KT points only.  We test the
characterization side on a finite scan with `scalarize`'s one search per
question, at every scan KT point and multiplier candidate, so a verdict is
either Falsified with the first rival found, re-evaluated from raw
evaluations, or ConsistentAtResolution, never "proved".

`pointwise_eta_feasibility` decides the defining disjunction itself for one
pair of points, independent of the characterization path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate
from .gridsearch import find_kt_points, get_grid
from .ktcheck import SECOND_ORDER_KT, classify_point
from .linprog import MultiplierWitness, NumericalBreakdown, StrictWitness, decide_alternative
from .problem import DEFAULT_TOL, ProblemDef, feasible_at, local_model
from .scalarize import (NoFeasiblePointInBox, Witness, dominating_rival, saddle_rival,
                        weighting_rival)

KTSP_INVEX = "KTSPInvex"
SECOND_ORDER_KTSP_INVEX = "SecondOrderKTSPInvex"
KT_PSEUDOINVEX_I = "KTPseudoinvexI"
KT_PSEUDOINVEX_II = "KTPseudoinvexII"
KT_INVEX = "KTInvex"
SECOND_ORDER_KT_PSEUDOINVEX_I = "SecondOrderKTPseudoinvexI"
SECOND_ORDER_KT_PSEUDOINVEX_II = "SecondOrderKTPseudoinvexII"
SECOND_ORDER_KT_INVEX = "SecondOrderKTInvex"

INVEXITY_CLASSES = (
    KTSP_INVEX,
    SECOND_ORDER_KTSP_INVEX,
    KT_PSEUDOINVEX_I,
    KT_PSEUDOINVEX_II,
    KT_INVEX,
    SECOND_ORDER_KT_PSEUDOINVEX_I,
    SECOND_ORDER_KT_PSEUDOINVEX_II,
    SECOND_ORDER_KT_INVEX,
)

_SECOND_ORDER = {
    SECOND_ORDER_KTSP_INVEX,
    SECOND_ORDER_KT_PSEUDOINVEX_I,
    SECOND_ORDER_KT_PSEUDOINVEX_II,
    SECOND_ORDER_KT_INVEX,
}

# first-order class -> the second-order class that contains it
INCLUSION_PAIRS = (
    (KTSP_INVEX, SECOND_ORDER_KTSP_INVEX),
    (KT_PSEUDOINVEX_I, SECOND_ORDER_KT_PSEUDOINVEX_I),
    (KT_PSEUDOINVEX_II, SECOND_ORDER_KT_PSEUDOINVEX_II),
    (KT_INVEX, SECOND_ORDER_KT_INVEX),
)

FALSIFIED = "Falsified"
CONSISTENT_AT_RESOLUTION = "ConsistentAtResolution"

ORDER_FIRST = "First"
ORDER_SECOND = "Second"

RANDOM_PAIRS = 64


@dataclass(frozen=True, eq=False)
class Resolution:
    """What the verdict actually looked at."""

    grid: int
    stationary_points: int
    pair_samples: int  # characterization probes run before the verdict


@dataclass(frozen=True, eq=False)
class ClassVerdict:
    klass: str
    status: str  # FALSIFIED or CONSISTENT_AT_RESOLUTION
    witness: Witness | None
    resolution: Resolution

    @property
    def falsified(self) -> bool:
        return self.status == FALSIFIED


@dataclass(frozen=True, eq=False)
class EtaFeasibility:
    """Outcome of the two-system disjunction for one (base, probe) pair.
    system 1 is the bounded system with the value gaps on the right-hand
    side, system 2 the strict descent system; None means both refuted, with
    the multiplier certificate for system 2 attached."""

    system: int | None
    eta: np.ndarray | None
    omega: float | None
    certificate: MultiplierWitness | None

    @property
    def solvable(self) -> bool:
        return self.system is not None


@dataclass(frozen=True, eq=False)
class PairSurvey:
    pairs_tested: int
    refuted: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """All eight verdicts plus the inclusion pairs they violate.  A violation
    (first-order Consistent, second-order Falsified) cannot happen exactly;
    at finite resolution it flags a tolerance artifact."""

    verdicts: tuple[ClassVerdict, ...]
    violations: tuple[tuple[str, str], ...]

    def verdict(self, klass: str) -> ClassVerdict:
        return self.verdicts[INVEXITY_CLASSES.index(klass)]


class _Scan:
    """One resolution's inputs to the eight class checks: the grid and the
    stationary points.  The per-point models (`local_model`) and the saddle
    and weighting solves are memoised by problem content, so the checks
    share them without keeping state here; classifications and multiplier
    candidates are cheap reads of the shared model."""

    def __init__(self, P: ProblemDef, grid):
        self.P = P
        self.data = get_grid(P, grid)
        if not self.data.feasible.any():
            raise NoFeasiblePointInBox("no feasible grid point in the box")
        self.points = find_kt_points(P, grid=grid)

    def candidate_points(self, second: bool):
        if not second:
            return list(self.points)
        return [x for x in self.points if classify_point(self.P, x).level == SECOND_ORDER_KT]


def _candidate_triples(P: ProblemDef, x, second: bool = False):
    """KT multiplier candidates at x: the vertices (lambda, mu) of the
    multiplier set under Sum lambda = 1 (`LocalModel.vertices`).  The class
    defects are linear in (lambda, mu) for a fixed rival, so the vertices
    settle the whole set.  With `second`, pairs must also have nonnegative
    curvature along each of the model's `critical_directions`."""
    m = local_model(P, x)
    n, act = P.n_objectives, list(m.active.indices)

    def bends_down(v, f2, g2) -> bool:
        cur = float(v[:n] @ f2) + (float(v[n:] @ g2) if g2.size else 0.0)
        return cur < -DEFAULT_TOL * (1.0 + max(np.abs(f2).max(initial=0.0), np.abs(g2).max(initial=0.0)))

    kept = []
    for v in m.vertices()[0]:
        if second and any(bends_down(v, f2, g2) for f2, g2 in m.critical_seconds):
            continue
        mu = np.zeros(P.n_constraints)
        mu[act] = v[n:]
        kept.append((v[:n], mu))
    return tuple(kept)


_SEARCH = {KTSP_INVEX: saddle_rival, SECOND_ORDER_KTSP_INVEX: saddle_rival,
           KT_INVEX: weighting_rival, SECOND_ORDER_KT_INVEX: weighting_rival}


def _verdict(scan: _Scan, klass: str) -> ClassVerdict:
    """The first rival over the candidate points and their multiplier
    pairs; a Pareto class asks its multiplier-free question once per point."""
    P, second, grid = scan.P, klass in _SECOND_ORDER, scan.data.grid
    search = _SEARCH.get(klass)
    strict_all = klass in (KT_PSEUDOINVEX_I, SECOND_ORDER_KT_PSEUDOINVEX_I)
    probes = ((x, lam, mu) for x in scan.candidate_points(second)
              for lam, mu in (_candidate_triples(P, x, second) if search else [(None, None)]))
    witness, used = None, 0
    for x, lam, mu in probes:
        used += 1
        witness = (search(P, lam, mu, x, grid) if search
                   else dominating_rival(P, x, grid, strict_all=strict_all))
        if witness is not None:
            break
    return ClassVerdict(
        klass=klass,
        status=FALSIFIED if witness is not None else CONSISTENT_AT_RESOLUTION,
        witness=witness,
        resolution=Resolution(
            grid=scan.data.grid,
            stationary_points=len(scan.points),
            pair_samples=used,
        ),
    )


def check_class(P: ProblemDef, klass: str, grid: int | None = None) -> ClassVerdict:
    """Falsify-or-consist verdict for one invexity class.

    Stationary points come from the multistart grid scan; candidates are
    visited in sorted order, so the witness is the lexicographically first
    falsifier found.  Deterministic given the grid.
    """
    if klass not in INVEXITY_CLASSES:
        raise ValueError(f"unknown invexity class {klass!r}")
    return _verdict(_Scan(P, grid), klass)


def inclusion_audit(P: ProblemDef, grid: int | None = None) -> InclusionReport:
    """All eight class verdicts on shared scan state, plus any inclusion
    violations (a first-order class Consistent while its second-order
    superclass is Falsified)."""
    scan = _Scan(P, grid)
    verdicts = tuple(_verdict(scan, k) for k in INVEXITY_CLASSES)
    by = dict(zip(INVEXITY_CLASSES, verdicts))
    violations = tuple(
        (first, second)
        for first, second in INCLUSION_PAIRS
        if not by[first].falsified and by[second].falsified
    )
    return InclusionReport(verdicts=verdicts, violations=violations)


def pointwise_eta_feasibility(P: ProblemDef, x, y, d=None, order: str = ORDER_FIRST) -> EtaFeasibility:
    """Decide the defining disjunction for the fixed pair (x, y).

    System 1 asks for eta (and omega >= 0 at second order) with
    grad f_i(x).eta + omega f_i''(x; d) <= f_i(y) - f_i(x) for every i and
    grad g_j(x).eta + omega g_j''(x; d) <= g_j(y) on the active set at x;
    system 2 for strict descent in every objective with no active
    constraint increasing.  System 1 is decided as the homogenised
    alternative: tau > 0 with every row times tau on the left of its
    right-hand side, so `decide_alternative` returns either eta and omega
    (divided by tau, then re-verified on the unscaled rows) or a Farkas
    refutation.  The first solvable system wins; when both are refuted the
    multiplier certificate against system 2 is attached.  At first order
    that certificate is the oracle's KT pair (lambda, mu on the active set)
    whenever one exists, so system 2 is refuted on the same band that
    accepts KT points.  x must be feasible, and d critical at x for the
    second order.
    """
    y = np.asarray(y, dtype=float)
    m = local_model(P, x)
    x, act, fg, gg, s = m.point, list(m.active.indices), m.Gf, m.Gg, P.dim

    if order == ORDER_SECOND:
        f2, g2 = m.along(d)[1]
    elif order == ORDER_FIRST:
        f2, g2 = np.zeros(len(fg)), np.zeros(len(gg))
    else:
        raise ValueError(f"unknown order {order!r}")

    fx, fy = (np.array([evaluate(f, z) for f in P.objectives]) for z in (x, y))
    gy = np.array([evaluate(g, y) for g in P.constraints])

    rows = np.column_stack([np.vstack([fg, gg]), np.concatenate([f2, g2])])
    rhs = np.concatenate([fy - fx, gy[act]])
    # homogenised: (eta, omega, tau) with -tau < 0 and [rows | -rhs] <= 0; a
    # positive scale per row leaves that cone unchanged and evens out its pivots
    weak = np.column_stack([rows, -rhs])
    scale = np.abs(weak).max(axis=1, initial=0.0)
    weak = weak / np.where(scale > 0.0, scale, 1.0)[:, None]
    res = decide_alternative(np.zeros((s, 1)), weak[:, :s].T, np.array([[0.0], [-1.0]]),
                             weak[:, s:].T)
    if isinstance(res, StrictWitness):
        tau = float(res.u[1])
        eta, omega = res.x / tau, float(res.u[0]) / tau
        slack = rows @ np.append(eta, omega) - rhs
        if (slack > 1e-7 * (1.0 + np.abs(rhs))).any():
            raise NumericalBreakdown("system 1 witness failed re-verification")
        if order == ORDER_FIRST:
            omega = 0.0
        return EtaFeasibility(system=1, eta=eta, omega=omega, certificate=None)

    if order == ORDER_FIRST:  # a KT pair on the oracle's band refutes system 2
        pair = m.multipliers()
        if pair is not None:
            return EtaFeasibility(system=None, eta=None, omega=None,
                                  certificate=MultiplierWitness(y=pair.lam, z=pair.mu[act]))
    seconds = (f2[None, :], g2[None, :]) if order == ORDER_SECOND else (None, None)
    res = decide_alternative(fg.T, gg.T, *seconds)
    if isinstance(res, StrictWitness):
        omega = float(res.u[0]) if res.u.size else 0.0
        return EtaFeasibility(system=2, eta=res.x, omega=omega, certificate=None)
    return EtaFeasibility(system=None, eta=None, omega=None, certificate=res)


def pointwise_survey(P: ProblemDef, grid: int | None = None, seed: int = 0,
                     pairs: int = RANDOM_PAIRS) -> PairSurvey:
    """First-order pair sweep: all ordered pairs of discovered stationary
    points plus `pairs` random box pairs (base kept feasible by rejection).
    A nonempty refuted list means the saddle-point invexity definition fails
    at this resolution."""
    points = find_kt_points(P, grid=grid)
    tested: list[tuple[np.ndarray, np.ndarray]] = [(a, b) for a in points for b in points]
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(P.lower), np.asarray(P.upper)
    made = 0
    attempts = 0
    while made < pairs and attempts < 200 * pairs:
        attempts += 1
        base = lo + (hi - lo) * rng.random(P.dim)
        if not feasible_at(P, base, DEFAULT_TOL):
            continue
        probe = lo + (hi - lo) * rng.random(P.dim)
        tested.append((base, probe))
        made += 1
    refuted = []
    for base, probe in tested:
        if not pointwise_eta_feasibility(P, base, probe, order=ORDER_FIRST).solvable:
            refuted.append((base, probe))
    return PairSurvey(pairs_tested=len(tested), refuted=tuple(refuted))
