"""Scan-based verdicts for the invexity classes.

Each class is equivalent to a property of the problem's Kuhn-Tucker points:
saddle of the scalarized Lagrangian, weak or plain Pareto minimality, or
optimality for the weighting problem with the same weight vector.  The
second-order classes quantify over second-order KT points only.  We test the
characterization side on a finite scan, so a verdict is either Falsified with
a witness that re-verifies from raw evaluations, or ConsistentAtResolution,
never "proved".

`pointwise_eta_feasibility` decides the defining disjunction itself for one
pair of points, independent of the characterization path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import evaluate
from .gridsearch import find_kt_points, get_grid
from .ktcheck import SECOND_ORDER_KT, NotCritical, classify_point
from .linprog import (
    LpProblem,
    MultiplierWitness,
    NumericalBreakdown,
    StrictWitness,
    decide_alternative,
    solve_lp,
)
from .problem import DEFAULT_TOL, DirectionAnalysis, ProblemDef, feasible_at, local_model
from .scalarize import NoFeasiblePointInBox, check_saddle, lagrangian, solve_weighting

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

WITNESS_GAP = 1e-9  # a falsifying margin must clear this, relatively scaled
REFUTE_MARGIN = 1e-5  # Lagrangian-comparison witnesses need this much: multiplier
# residuals and boundary slack near 1e-8 fake gaps of ~1e-6 across a unit box
RANDOM_PAIRS = 64


@dataclass(frozen=True, eq=False)
class Resolution:
    """What the verdict actually looked at."""

    grid: int
    stationary_points: int
    pair_samples: int  # characterization probes run before the verdict


@dataclass(frozen=True, eq=False)
class Witness:
    """Falsification data.  `rival` beats `point` by `gap`: in Lagrangian
    value for the saddle classes, in every (some, for PseudoinvexII)
    objective for the Pareto classes, in weighted objective value for the
    KT-invex classes.  lam/mu are the KT multipliers making `point` count."""

    point: np.ndarray
    lam: np.ndarray | None
    mu: np.ndarray | None
    rival: np.ndarray
    point_values: tuple[float, ...]
    rival_values: tuple[float, ...]
    gap: float


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


def _values(exprs, x) -> np.ndarray:
    return np.array([evaluate(e, x) for e in exprs])


class _Scan:
    """One resolution's inputs to the eight class checks: the grid and the
    stationary points.  The per-point models (`local_model`) and the saddle
    and weighting solves are memoised by problem content, so the checks
    share them without keeping state here; classifications and multiplier
    candidates are cheap reads of the shared model."""

    def __init__(self, P: ProblemDef, grid, tol):
        self.P, self.tol = P, tol
        self.data = get_grid(P, grid)
        if not self.data.feasible.any():
            raise NoFeasiblePointInBox("no feasible grid point in the box")
        self.points = find_kt_points(P, grid=grid, tol=tol)

    def candidate_points(self, second: bool):
        if not second:
            return list(self.points)
        return [x for x in self.points
                if classify_point(self.P, x, tol=self.tol).level == SECOND_ORDER_KT]


def _candidate_triples(P: ProblemDef, x, tol, second: bool = False):
    """KT multiplier candidates at x: the vertices (lambda, mu) of the
    multiplier set under Sum lambda = 1 (`LocalModel.vertices`).  The class
    defects are linear in (lambda, mu) for a fixed rival, so the vertices
    settle the whole set.  With `second`, pairs must also have nonnegative
    curvature along each of the model's `critical_directions`."""
    m = local_model(P, x, tol)
    n, act = P.n_objectives, list(m.active.indices)

    def bends_down(v, f2, g2) -> bool:
        cur = float(v[:n] @ f2) + (float(v[n:] @ g2) if g2.size else 0.0)
        return cur < -tol * (1.0 + max(np.abs(f2).max(initial=0.0), np.abs(g2).max(initial=0.0)))

    kept = []
    for v in m.vertices()[0]:
        if second and any(bends_down(v, f2, g2) for f2, g2 in m.critical_seconds):
            continue
        mu = np.zeros(P.n_constraints)
        mu[act] = v[n:]
        kept.append((v[:n], mu))
    return tuple(kept)


def _saddle_witness(scan: _Scan, x, second: bool) -> tuple[Witness | None, int]:
    probes = 0
    for lam, mu in _candidate_triples(scan.P, x, scan.tol, second):
        probes += 1
        v = check_saddle(scan.P, lam, x, mu, grid=scan.data.grid, tol=scan.tol)
        if v.is_saddle or v.counterexample is None:
            continue
        rival = np.asarray(v.counterexample, dtype=float)
        lx = lagrangian(scan.P, lam, mu, x)
        lr = lagrangian(scan.P, lam, mu, rival)
        gap = lx - lr
        margin = max(REFUTE_MARGIN, 1e3 * scan.tol) * (1.0 + abs(lx))
        if gap > margin and scan.P.in_box(rival, slack=1e-9):
            return (
                Witness(
                    point=x, lam=lam, mu=mu, rival=rival,
                    point_values=(lx,), rival_values=(lr,), gap=gap,
                ),
                probes,
            )
    return None, probes


def _domination_witness(scan: _Scan, x, strict_all: bool) -> Witness | None:
    """Feasible grid point beating x: in every objective (weak Pareto
    violation) or componentwise-<= with one strict (Pareto violation).
    Among qualifying points the nearest one is preferred, so witnesses
    stay local and readable."""
    P, data = scan.P, scan.data
    xa = np.asarray(x, dtype=float)
    fx = _values(P.objectives, xa)
    margin = WITNESS_GAP * (1.0 + np.abs(fx))
    below = data.F < (fx - margin)[:, None]
    if strict_all:
        ok = data.feasible & np.all(below, axis=0)
    else:
        ok = data.feasible & np.all(data.F <= fx[:, None], axis=0) & np.any(below, axis=0)
    idx = np.flatnonzero(ok)
    if idx.size:
        dist = ((data.pts[:, idx] - xa[:, None]) ** 2).sum(axis=0)
        idx = idx[np.argsort(dist, kind="stable")]
    for i in idx:
        rival = data.pts[:, i].copy()
        fr = _values(P.objectives, rival)
        if not feasible_at(P, rival, scan.tol):
            continue
        fine = (fr < fx - margin).all() if strict_all else (
            (fr <= fx).all() and (fr < fx - margin).any()
        )
        if fine:
            gap = float((fx - fr).min()) if strict_all else float((fx - fr).max())
            return Witness(
                point=x, lam=None, mu=None, rival=rival,
                point_values=tuple(fx), rival_values=tuple(fr), gap=gap,
            )
    return None


def _weighting_witness(scan: _Scan, x, second: bool) -> tuple[Witness | None, int]:
    probes = 0
    fx = _values(scan.P.objectives, x)
    for lam, mu in _candidate_triples(scan.P, x, scan.tol, second):
        probes += 1
        ms = solve_weighting(scan.P, lam, grid=scan.data.grid)
        mine = float(lam @ fx)
        rival = ms.minimizers[0].point
        rv = float(lam @ _values(scan.P.objectives, rival))
        gap = mine - rv
        margin = max(REFUTE_MARGIN, 1e3 * scan.tol) * (1.0 + abs(mine))
        if gap > margin and feasible_at(scan.P, rival, scan.tol):
            return (
                Witness(
                    point=x, lam=lam, mu=mu, rival=np.asarray(rival, dtype=float),
                    point_values=(mine,), rival_values=(rv,), gap=gap,
                ),
                probes,
            )
    return None, probes


def _verdict(scan: _Scan, klass: str) -> ClassVerdict:
    second = klass in _SECOND_ORDER
    witness = None
    probes = 0
    for x in scan.candidate_points(second):
        if klass in (KTSP_INVEX, SECOND_ORDER_KTSP_INVEX):
            witness, used = _saddle_witness(scan, x, second)
            probes += used
        elif klass in (KT_INVEX, SECOND_ORDER_KT_INVEX):
            witness, used = _weighting_witness(scan, x, second)
            probes += used
        else:
            strict_all = klass in (KT_PSEUDOINVEX_I, SECOND_ORDER_KT_PSEUDOINVEX_I)
            witness = _domination_witness(scan, x, strict_all)
            probes += 1
        if witness is not None:
            break
    return ClassVerdict(
        klass=klass,
        status=FALSIFIED if witness is not None else CONSISTENT_AT_RESOLUTION,
        witness=witness,
        resolution=Resolution(
            grid=scan.data.grid,
            stationary_points=len(scan.points),
            pair_samples=probes,
        ),
    )


def check_class(
    P: ProblemDef,
    klass: str,
    grid: int | None = None,
    tol: float = DEFAULT_TOL,
) -> ClassVerdict:
    """Falsify-or-consist verdict for one invexity class.

    Stationary points come from the multistart grid scan; candidates are
    visited in sorted order, so the witness is the lexicographically first
    falsifier found.  Deterministic given (grid, tol).
    """
    if klass not in INVEXITY_CLASSES:
        raise ValueError(f"unknown invexity class {klass!r}")
    return _verdict(_Scan(P, grid, tol), klass)


def inclusion_audit(
    P: ProblemDef,
    grid: int | None = None,
    tol: float = DEFAULT_TOL,
) -> InclusionReport:
    """All eight class verdicts on shared scan state, plus any inclusion
    violations (a first-order class Consistent while its second-order
    superclass is Falsified)."""
    scan = _Scan(P, grid, tol)
    verdicts = tuple(_verdict(scan, k) for k in INVEXITY_CLASSES)
    by = dict(zip(INVEXITY_CLASSES, verdicts))
    violations = tuple(
        (first, second)
        for first, second in INCLUSION_PAIRS
        if not by[first].falsified and by[second].falsified
    )
    return InclusionReport(verdicts=verdicts, violations=violations)


def pointwise_eta_feasibility(
    P: ProblemDef,
    x,
    y,
    d=None,
    order: str = ORDER_FIRST,
    tol: float = DEFAULT_TOL,
) -> EtaFeasibility:
    """Decide the defining disjunction for the fixed pair (x, y).

    System 1 asks for eta (and omega >= 0 at second order) with
    grad f_i(x).eta + omega f_i''(x; d) <= f_i(y) - f_i(x) for every i and
    grad g_j(x).eta + omega g_j''(x; d) <= g_j(y) on the active set at x;
    system 2 for strict descent in every objective with no active
    constraint increasing.  The first solvable system wins; when both are refuted the
    multiplier certificate against system 2 is attached.  At first order
    that certificate is the oracle's KT pair (lambda, mu on the active set)
    whenever one exists, so system 2 is refuted on the same band that
    accepts KT points.  x must be feasible, and d critical at x for the
    second order.
    """
    y = np.asarray(y, dtype=float)
    m = local_model(P, x, tol)
    x, act, fg, gg, s = m.point, list(m.active.indices), m.Gf, m.Gg, P.dim

    if order == ORDER_SECOND:
        da = d if isinstance(d, DirectionAnalysis) else m.directions([d])[0]
        if not da.is_critical:
            raise NotCritical(f"direction {da.direction} is not critical at {x}")
        f2, g2 = m.second(da.direction)
    elif order == ORDER_FIRST:
        f2, g2 = np.zeros(len(fg)), np.zeros(len(gg))
    else:
        raise ValueError(f"unknown order {order!r}")

    fx, fy = _values(P.objectives, x), _values(P.objectives, y)
    gy = _values(P.constraints, y)

    rows = np.column_stack([np.vstack([fg, gg]), np.concatenate([f2, g2])])
    rhs = np.concatenate([fy - fx, gy[act]])
    lp = LpProblem(c=np.zeros(s + 1), A=rows, senses=["<="] * len(rows), b=rhs, free=range(s))
    out = solve_lp(lp)
    if out.status == "optimal":
        eta, omega = out.x[:s], float(out.x[s])
        slack = rows @ out.x[: s + 1] - rhs
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


def pointwise_survey(
    P: ProblemDef,
    grid: int | None = None,
    seed: int = 0,
    pairs: int = RANDOM_PAIRS,
    tol: float = DEFAULT_TOL,
) -> PairSurvey:
    """First-order pair sweep: all ordered pairs of discovered stationary
    points plus `pairs` random box pairs (base kept feasible by rejection).
    A nonempty refuted list means the saddle-point invexity definition fails
    at this resolution."""
    points = find_kt_points(P, grid=grid, tol=tol)
    tested: list[tuple[np.ndarray, np.ndarray]] = [(a, b) for a in points for b in points]
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(P.lower), np.asarray(P.upper)
    made = 0
    attempts = 0
    while made < pairs and attempts < 200 * pairs:
        attempts += 1
        base = lo + (hi - lo) * rng.random(P.dim)
        if not feasible_at(P, base, tol):
            continue
        probe = lo + (hi - lo) * rng.random(P.dim)
        tested.append((base, probe))
        made += 1
    refuted = []
    for base, probe in tested:
        if not pointwise_eta_feasibility(P, base, probe, order=ORDER_FIRST, tol=tol).solvable:
            refuted.append((base, probe))
    return PairSurvey(pairs_tested=len(tested), refuted=tuple(refuted))
