"""Problem model: objectives f_i, constraints g_j <= 0, and a scan box.

The box bounds declare the open region the problem lives in; point queries
work anywhere the expressions evaluate, global scans stay inside the box.
Also home to the one feasibility rule (`within`), the per-point
`LocalModel` (active set, gradient rows, tolerances and the KT-multiplier
oracle), the activity / criticality analysis of directions built on it, and
the sampler that supplies candidate critical directions to downstream
certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expr import (Expr, ExprError, NondifferentiablePoint, evaluate, grad, parse_expr,
                   second_dir_deriv)
from .linprog import LpProblem, NumericalBreakdown, solve_lp

__all__ = [
    "SUM_LAMBDA_ONE",
    "FRITZ_JOHN",
    "ProblemDef",
    "ActiveSet",
    "MultiplierPair",
    "LocalModel",
    "DirectionAnalysis",
    "ParseError",
    "EmptyObjectives",
    "BadBounds",
    "InfeasiblePoint",
    "MissingSecondDerivative",
    "parse_problem",
    "load_problem",
    "within",
    "feasible_at",
    "active_set",
    "analyze_direction",
    "sample_critical_directions",
]

DEFAULT_TOL = 1e-8

SUM_LAMBDA_ONE = "SumLambdaOne"
FRITZ_JOHN = "FritzJohn"


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class EmptyObjectives(Exception):
    pass


class BadBounds(Exception):
    pass


class InfeasiblePoint(Exception):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"constraint {index} violated: g = {value:.6g} > 0")


class MissingSecondDerivative(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ProblemDef:
    var_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    objectives: tuple[Expr, ...]
    constraints: tuple[Expr, ...]
    source: str = ""

    def __post_init__(self):
        for name in ("lower", "upper"):  # read-only copies: the memo keys on their bytes
            box = np.array(getattr(self, name))
            box.flags.writeable = False
            object.__setattr__(self, name, box)

    @property
    def dim(self) -> int:
        return len(self.var_names)

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def in_box(self, x, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lower - slack).all() and (x <= self.upper + slack).all())


@dataclass(frozen=True, eq=False)
class ActiveSet:
    point: np.ndarray
    tol: float
    indices: tuple[int, ...]  # sorted ascending
    values: np.ndarray  # all constraint values at the point


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
class DirectionAnalysis:
    model: LocalModel  # the point, its active set and gradient rows
    direction: np.ndarray  # unit Euclidean norm, or exactly zero
    f_products: np.ndarray  # grad f_i · d, length n
    g_products: np.ndarray  # grad g_j · d for j in active.indices, same order
    is_critical: bool
    zero_objectives: tuple[int, ...]  # i with |grad f_i · d| below tolerance
    zero_constraints: tuple[int, ...]  # active j with |grad g_j · d| below tolerance

    @property
    def point(self) -> np.ndarray:
        return self.model.point

    @property
    def active(self) -> ActiveSet:
        return self.model.active


# ---------------------------------------------------------------------------
# file format:  var <name> in [<lo>, <hi>]  /  min <expr>  /  st <expr> <= 0


def parse_problem(text: str) -> ProblemDef:
    lines = text.splitlines()
    names: list[str] = []
    lowers: list[float] = []
    uppers: list[float] = []

    def strip_comment(raw: str) -> str:
        return raw.split("#", 1)[0].rstrip()

    # first pass: variable declarations (usable anywhere in the file)
    for ln, raw in enumerate(lines, start=1):
        body = strip_comment(raw)
        if not body.strip() or not body.strip().startswith("var "):
            continue
        rest = body.strip()[4:].strip()
        try:
            name, tail = rest.split(" in ", 1)
        except ValueError:
            raise ParseError(ln, 1, "expected: var <name> in [<lo>, <hi>]") from None
        name = name.strip()
        tail = tail.strip()
        if not (tail.startswith("[") and tail.endswith("]")) or "," not in tail:
            raise ParseError(ln, len(body) - len(tail) + 1, "expected bounds [<lo>, <hi>]")
        lo_s, hi_s = tail[1:-1].split(",", 1)
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ParseError(ln, 1, "bounds must be numbers") from None
        if not lo < hi:
            raise BadBounds(f"line {ln}: bound [{lo}, {hi}] is empty")
        if name in names:
            raise ParseError(ln, 1, f"duplicate variable {name!r}")
        names.append(name)
        lowers.append(lo)
        uppers.append(hi)

    objectives: list[Expr] = []
    constraints: list[Expr] = []
    for ln, raw in enumerate(lines, start=1):
        body = strip_comment(raw)
        stripped = body.strip()
        if not stripped or stripped.startswith("var "):
            continue
        if stripped.startswith("min "):
            src = stripped[4:]
            objectives.append(_parse_line_expr(src, names, ln, body))
        elif stripped.startswith("st ") or stripped.startswith("st\t"):
            src = stripped[3:].strip()
            base, sep, tail = src.rpartition("<=")
            if not sep or tail.strip() not in ("0", "0.0", "0."):
                raise ParseError(ln, 1, "constraint must end with '<= 0'")
            constraints.append(_parse_line_expr(base.strip(), names, ln, body))
        else:
            raise ParseError(ln, 1, f"unrecognized line {stripped.split()[0]!r}")
    if not objectives:
        raise EmptyObjectives("no 'min' lines found")
    return ProblemDef(
        var_names=tuple(names),
        lower=np.array(lowers),
        upper=np.array(uppers),
        objectives=tuple(objectives),
        constraints=tuple(constraints),
        source=text,
    )


def _parse_line_expr(src: str, names: list[str], ln: int, body: str) -> Expr:
    col0 = body.index(src) + 1 if src and src in body else 1
    try:
        return parse_expr(src, tuple(names))
    except ExprError as e:
        pos = getattr(e, "position", 0)
        raise ParseError(ln, col0 + max(pos, 0), str(e)) from None


def load_problem(path) -> ProblemDef:
    return parse_problem(Path(path).read_text())


# ---------------------------------------------------------------------------
# activity / criticality


def within(v, eps: float):
    """The one feasibility rule, v <= eps·(1 + |v|), for a float or
    elementwise for an array."""
    return v <= eps * (1.0 + abs(v))


def feasible_at(P: ProblemDef, y, eps: float) -> bool:
    """Every constraint defined at y and `within` eps of satisfied."""
    try:
        for g in P.constraints:
            if not within(evaluate(g, y), eps):
                return False
    except ExprError:
        return False
    return True


def active_set(P: ProblemDef, x, tol: float = DEFAULT_TOL) -> ActiveSet:
    x = np.array(x, dtype=float)  # a copy: memoised results share the point
    vals = np.array([evaluate(g, x) for g in P.constraints])
    for j, v in enumerate(vals):
        if not within(v, tol):
            raise InfeasiblePoint(j, float(v))
    idx = tuple(j for j, v in enumerate(vals) if within(abs(v), tol))
    return ActiveSet(point=x, tol=tol, indices=idx, values=vals)


class LocalModel:
    """The local facts every first- and second-order condition reads at one
    feasible point x, computed once: the active set A(x), the gradient rows
    Gf (n x s) of the objectives and Gg (|A| x s) of the active constraints,
    and the per-row activity tolerances tol·(1 + |row|).  `multipliers` is
    the one KT-multiplier oracle."""

    def __init__(self, P: ProblemDef, x, tol: float = DEFAULT_TOL):
        self.P = P
        self.tol = tol
        self.active = active_set(P, x, tol)  # raises InfeasiblePoint
        self.point = self.active.point
        s = P.dim
        self.Gf = np.array([grad(f, self.point) for f in P.objectives])
        self.Gg = np.array(
            [grad(P.constraints[j], self.point) for j in self.active.indices]
        ).reshape(-1, s)
        norms = np.array([float(np.linalg.norm(r)) for r in (*self.Gf, *self.Gg)])
        self.f_tols = tol * (1.0 + norms[: P.n_objectives])
        self.g_tols = tol * (1.0 + norms[P.n_objectives :])

    def multipliers(self, f2=None, g2=None, obj_support=None, con_support=None, lam=None,
                    normalization: str = SUM_LAMBDA_ONE) -> MultiplierPair | None:
        """The KT-multiplier oracle: one LP over w = (λ̃, μ̃) >= 0 on the
        gradient rows r_k, each divided by c_k = max(|row_k|, 1).  It
        minimises the ∞-norm stationarity residual t = max|Σ w_k r_k| and
        accepts iff t <= tol·(1 + Σ w_k |r_k|).  With second derivatives f2
        (all objectives) and g2 (active constraints) that band is stated as
        rows, a curvature row L''(x; d) >= 0 is added and min(L'', 1) is
        maximised.  Support tuples drop the other columns; `lam` pins λ.
        λ = λ̃/c and μ = μ̃/c are then rescaled once so that Σλ = 1 (Fritz
        John: Σλ + Σμ = 1).  None when no pair passes."""
        P, act, tol = self.P, self.active.indices, self.tol
        obj = list(range(P.n_objectives)) if obj_support is None else list(obj_support)
        con = list(range(len(act))) if con_support is None else [act.index(j) for j in con_support]
        if not obj and normalization == SUM_LAMBDA_ONE:
            return None
        rows = np.vstack([self.Gf[obj], self.Gg[con]])
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        R = rows.T / scale  # s x k: one scaled row per column of w
        norms = np.linalg.norm(R, axis=0)
        (s, k), nl, second = R.shape, len(obj), f2 is not None
        # columns w, then t (or v with curvature); each stationarity row twice
        A = np.zeros((2 * s + 3 * second + (nl if lam is not None else 1), k + 1))
        b = np.zeros(len(A))
        senses = ["<=", ">="] * s
        sign = np.tile([1.0, -1.0], s)
        A[: 2 * s, :k] = np.repeat(R, 2, axis=0)
        if second:  # the band as rows: |r·w| <= tol·(1 + norms·w)
            A[: 2 * s, :k] -= np.outer(sign, tol * norms)
            b[: 2 * s] = sign * tol
            curv = np.concatenate([np.asarray(f2)[obj], np.asarray(g2)[con]]) / scale
            A[2 * s, :k] = curv  # L'' >= 0
            A[2 * s + 1] = np.append(-curv, 1.0)  # v <= L''
            A[2 * s + 2, k] = b[2 * s + 2] = 1.0  # v <= 1
            senses += [">=", "<=", "<="]
        else:  # |r·w| <= t
            A[: 2 * s, k] = -sign
        r = 2 * s + 3 * second
        if lam is not None:
            pinned = np.asarray(lam, dtype=float)[obj] * scale[:nl]
            A[r:, :nl], b[r:] = np.eye(nl), pinned / pinned.sum()
            senses += ["="] * nl
        else:
            A[r, : k if normalization == FRITZ_JOHN else nl] = b[r] = 1.0
            senses.append("=")
        c = np.append(np.zeros(k), 1.0)
        out = solve_lp(LpProblem(c=c, A=A, senses=senses, b=b,
                                 free=(k,) if second else (), maximize=second))
        if out.status == "infeasible":
            return None
        if out.status != "optimal":
            raise NumericalBreakdown(f"multiplier search ended with status {out.status}")
        w = np.maximum(out.x[:k], 0.0)
        if not second and np.abs(R @ w).max(initial=0.0) > tol * (1.0 + norms @ w):
            return None  # with curvature the LP's rows are this test already
        lam_out, mu = np.zeros(P.n_objectives), np.zeros(P.n_constraints)
        lam_out[obj] = w[:nl] / scale[:nl]
        mu[[act[j] for j in con]] = w[nl:] / scale[nl:]
        total = lam_out.sum() + (mu.sum() if normalization == FRITZ_JOHN else 0.0)
        lam_out = lam_out / total if lam is None else np.array(lam, dtype=float)
        mu = mu / total
        mu_act = mu[list(act)]
        residual = float(np.linalg.norm(lam_out @ self.Gf + mu_act @ self.Gg))
        curvature = float(lam_out @ f2 + mu_act @ g2) if second else None
        return MultiplierPair(lam=lam_out, mu=mu, normalization=normalization,
                              residual=residual, curvature=curvature)

    def directions(self, D) -> list[DirectionAnalysis]:
        """Criticality analysis of each row of D, scaled to unit length
        (a zero row stays zero): d is critical when no objective and no
        active constraint increases to first order along it."""
        D = np.array(D, dtype=float).reshape(-1, self.P.dim)
        norms = np.array([float(np.linalg.norm(d)) for d in D])
        nonzero = norms > 0.0
        D[nonzero] /= norms[nonzero, None]
        fp, gp = self.Gf @ D.T, self.Gg @ D.T  # one column per direction
        f_tols, g_tols = self.f_tols[:, None], self.g_tols[:, None]
        critical = self._critical(fp, gp)
        f_zero, g_zero = np.abs(fp) <= f_tols, np.abs(gp) <= g_tols
        idx = self.active.indices
        return [
            DirectionAnalysis(
                model=self,
                direction=D[k],
                f_products=fp[:, k],
                g_products=gp[:, k],
                is_critical=bool(critical[k]),
                zero_objectives=tuple(np.flatnonzero(f_zero[:, k]).tolist()),
                zero_constraints=tuple(idx[r] for r in np.flatnonzero(g_zero[:, k])),
            )
            for k in range(len(D))
        ]

    def _critical(self, fp, gp) -> np.ndarray:
        """Per column of the products: nothing increases beyond its tolerance."""
        return (fp <= self.f_tols[:, None]).all(axis=0) & (gp <= self.g_tols[:, None]).all(axis=0)

    def second(self, d) -> tuple[np.ndarray, np.ndarray]:
        """Second directional derivatives along d: (f_i''(x; d) for every
        objective, g_j''(x; d) for every active constraint)."""
        try:
            f2 = np.array([second_dir_deriv(f, self.point, d) for f in self.P.objectives])
            g2 = np.array([second_dir_deriv(self.P.constraints[j], self.point, d)
                           for j in self.active.indices])
        except NondifferentiablePoint as e:
            raise MissingSecondDerivative(str(e)) from e
        return f2, g2

    def critical_directions(self, count: int = 64, seed: int = 0) -> list[DirectionAnalysis]:
        """Critical subset of: `count` low-discrepancy unit directions, the
        +/- coordinate axes, candidate cone-edge rays, and the zero direction,
        each kept once.  Deterministic for a given seed."""
        s = self.P.dim
        candidates: list[np.ndarray] = list(_uniform_directions(s, count, seed))
        eye = np.eye(s)
        for i in range(s):
            candidates.append(eye[i].copy())
            candidates.append(-eye[i])
        candidates.extend(self._cone_edge_rays())
        candidates.append(np.zeros(s))

        units = np.empty((len(candidates), s))
        kept = 0
        for d in candidates:
            norm = float(np.linalg.norm(d))
            unit = d / norm if norm > 0 else d
            if kept and np.linalg.norm(units[:kept] - unit, axis=1).min() <= 1e-9:
                continue
            units[kept] = unit
            kept += 1
        units = units[:kept]
        units = units[self._critical(self.Gf @ units.T, self.Gg @ units.T)]  # analyse these only
        return [da for da in self.directions(units) if da.is_critical]

    def _cone_edge_rays(self) -> list[np.ndarray]:
        """Null directions of (s-1)-subsets of the gradient rows: candidates for
        extreme rays of the polyhedral critical cone.  Without these, a cone of
        measure zero (a line, say) is invisible to any uniform sample."""
        s = self.P.dim
        rows = [r for r in (*self.Gf, *self.Gg) if np.linalg.norm(r) > 1e-12]
        rays: list[np.ndarray] = []
        if s < 2 or not rows:
            return rays
        take = min(s - 1, len(rows))
        combos = itertools.combinations(range(len(rows)), take)
        for picked in itertools.islice(combos, 200):
            M = np.array([rows[i] for i in picked])
            _, sv, vt = np.linalg.svd(M)
            null = vt[np.sum(sv > 1e-9 * max(1.0, sv[0])) :]
            for vec in null[:2]:
                rays.append(vec)
                rays.append(-vec)
        return rays


def analyze_direction(P: ProblemDef, x, d, tol: float = DEFAULT_TOL) -> DirectionAnalysis:
    """Criticality analysis of one direction d at x (see LocalModel.directions)."""
    return LocalModel(P, x, tol).directions([d])[0]


def sample_critical_directions(
    P: ProblemDef, x, count: int = 64, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[DirectionAnalysis]:
    """The critical directions sampled at x (see LocalModel.critical_directions)."""
    return LocalModel(P, x, tol).critical_directions(count, seed)


# ---------------------------------------------------------------------------
# direction sampling

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _radical_inverse(k: int, base: int) -> float:
    inv, denom = 0.0, 1.0
    while k:
        k, rem = divmod(k, base)
        denom *= base
        inv += rem / denom
    return inv


def _uniform_directions(s: int, count: int, seed: int):
    if s == 1:
        for k in range(count):
            yield np.array([1.0 if k % 2 == 0 else -1.0])
        return
    if s == 2:
        theta0 = (seed % 997) * (2.0 * np.pi / 997.0)
        for k in range(count):
            t = theta0 + k * _GOLDEN_ANGLE
            yield np.array([np.cos(t), np.sin(t)])
        return
    bases = _PRIMES[:s]
    k = 1 + (seed % 101) * 7
    produced = 0
    while produced < count:
        u = np.array([_radical_inverse(k, b) for b in bases])
        k += 1
        v = 2.0 * u - 1.0
        norm = float(np.linalg.norm(v))
        if norm < 1e-6:
            continue
        yield v / norm
        produced += 1
