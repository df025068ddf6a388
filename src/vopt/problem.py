"""Problem model: objectives f_i, constraints g_j <= 0, and a scan box.

The box bounds declare the open region the problem lives in; point queries
work anywhere the expressions evaluate, global scans stay inside the box.
Also home to the one feasibility rule (`within`), the per-point
`LocalModel` (active set, gradient rows, tolerances and the KT-multiplier
oracle), the activity / criticality analysis of directions built on it, and
the finite set of critical directions that decides the second-order
condition.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expr import (
    Expr, ExprError, evaluate, grad, hessian, is_identifier, parse_expr, second_dir_deriv,
)
from .memo import RESULTS, memo, shared

__all__ = [
    "SUM_LAMBDA_ONE",
    "FRITZ_JOHN",
    "ProblemDef",
    "ActiveSet",
    "MultiplierPair",
    "LocalModel",
    "local_model",
    "DirectionAnalysis",
    "ParseError",
    "EmptyObjectives",
    "BadBounds",
    "InfeasiblePoint",
    "NotCritical",
    "parse_problem",
    "load_problem",
    "within",
    "feasible_at",
    "active_set",
    "analyze_direction",
    "sample_critical_directions",
    "critical_candidates",
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


class NotCritical(Exception):
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
        for name in ("lower", "upper"):  # read-only copies, so the content cannot go stale
            box = np.array(getattr(self, name), dtype=float)
            box.flags.writeable = False
            object.__setattr__(self, name, box)
        content = (self.var_names, self.lower.tobytes(), self.upper.tobytes(),
                   self.objectives, self.constraints)
        object.__setattr__(self, "_content", (hash(content), content))

    def __eq__(self, other):  # by parsed content, never the source text: the memo's key
        return self is other or (isinstance(other, ProblemDef) and self._content == other._content)

    def __hash__(self):
        return self._content[0]

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
# file format:  var <name> in [<lo>, <hi>]  /  min <expr>  /  st <expr> <= 0,
# one per line; '#' starts a comment.  Each kind's pattern is matched over the
# line's body, between its blanks and comment, so group offsets are columns.

_BODY = re.compile(r"\s*(?P<body>[^#]*?)\s*(?:#.*)?")
_VAR = re.compile(r"var (?:\s*(?P<name>\S.*?)\s* in \s*(?P<box>.*))?.*")  # name None: no ' in '
_BOX = re.compile(r"\[(?P<lo>[^,]*),(?P<hi>.*)\]")
_MIN = re.compile(r"min (?P<expr>.*)")
_ST = re.compile(r"st[ \t](?:\s*(?P<expr>.*?)\s*<=\s*0(?:\.0?)?|.*)")  # expr None: no '<= 0' tail


def parse_problem(text: str) -> ProblemDef:
    boxes: dict[str, tuple[float, float]] = {}
    rest = []  # (line number, body, match): objectives and constraints wait for every name
    for ln, line in enumerate(text.splitlines(), start=1):
        a, b = _BODY.fullmatch(line).span("body")
        if a == b:
            continue
        var = _VAR.fullmatch(line, a, b)
        if var is None:
            rest.append((ln, line[a:b], _MIN.fullmatch(line, a, b) or _ST.fullmatch(line, a, b)))
            continue
        if var["name"] is None:
            raise ParseError(ln, 1, "expected: var <name> in [<lo>, <hi>]")
        box = _BOX.fullmatch(line, *var.span("box"))
        if box is None:
            raise ParseError(ln, var.start("box") + 1, "expected bounds [<lo>, <hi>]")
        try:
            lo, hi = float(box["lo"]), float(box["hi"])
        except ValueError:
            raise ParseError(ln, 1, "bounds must be numbers") from None
        if not math.isfinite(hi - lo):  # a bound is inf or nan, or the width overflows
            raise BadBounds(f"line {ln}: bound [{lo}, {hi}] is not finite")
        if not lo < hi:
            raise BadBounds(f"line {ln}: bound [{lo}, {hi}] is empty")
        name = var["name"]
        if not is_identifier(name):
            raise ParseError(ln, var.start("name") + 1, f"variable name {name!r} is not an identifier")
        if name in boxes:
            raise ParseError(ln, 1, f"duplicate variable {name!r}")
        boxes[name] = (lo, hi)

    names = tuple(boxes)
    objectives, constraints = [], []
    for ln, body, m in rest:
        if m is None:
            raise ParseError(ln, 1, f"unrecognized line {body.split()[0]!r}")
        if m["expr"] is None:
            raise ParseError(ln, 1, "constraint must end with '<= 0'")
        (objectives if m.re is _MIN else constraints).append(_parse_line_expr(m, names, ln))
    if not objectives:
        raise EmptyObjectives("no 'min' lines found")
    if not names:
        raise ParseError(1, 1, "no 'var' lines found")
    lower, upper = np.array(list(boxes.values())).T
    return ProblemDef(names, lower, upper, tuple(objectives), tuple(constraints), source=text)


def _parse_line_expr(m: re.Match, names: tuple[str, ...], ln: int) -> Expr:
    try:
        return parse_expr(m["expr"], names)
    except ExprError as e:  # a syntax error or an unknown name, each at its offset
        raise ParseError(ln, m.start("expr") + 1 + e.position, str(e)) from None


def load_problem(path) -> ProblemDef:
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        lines = (data[: e.start].decode() + "?").splitlines()  # the last one holds the byte
        raise ParseError(len(lines), len(lines[-1]), f"byte {data[e.start]:#04x} is not UTF-8") from None
    return parse_problem(text)


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
    the one KT-multiplier oracle, read off the cone's extreme `rays`, and
    `along` the one read along a direction; the rays, the
    `critical_directions` and their `critical_seconds` are filled in on
    first use.  `local_model` shares one model per point."""

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

    @shared
    def rays(self) -> np.ndarray:
        """The extreme rays of the KT cone {w >= 0 : Σ w_k row_k = 0} within the
        stationarity band, one row per direction over (objectives, active
        constraints).  With the rows scaled by c_k = max(|row_k|, 1) into the
        columns R, a ray is a support S where [1 on λ; R_S]·w = e₁ (1 on all of
        S when S holds no objective) has full column rank and a solution
        w >= 0 with |R_S w| <= tol·(1 + Σ w_k|R_k|); it is returned as w/c."""
        rows = np.vstack([self.Gf, self.Gg])
        n, k = len(self.Gf), len(rows)
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        R = rows.T / scale
        out: list[np.ndarray] = []
        for S in (list(S) for S in _subsets(k) if S):
            lead = np.less(S, n) if S[0] < n else np.ones(len(S))
            w, _, rank, _ = np.linalg.lstsq(np.vstack([lead, R[:, S]]),
                                            np.eye(len(R) + 1)[0], rcond=None)
            band = self.tol * (1.0 + np.linalg.norm(R[:, S], axis=0) @ w)
            if rank == len(S) and w.min() >= 0.0 and np.abs(R[:, S] @ w).max() <= band:
                ray = np.zeros(k)
                ray[S] = w / scale[S]
                unit = ray / np.linalg.norm(ray)
                if not any(np.abs(unit - r / np.linalg.norm(r)).max() <= 1e-9 for r in out):
                    out.append(ray)
        return np.array(out).reshape(-1, k)

    def vertices(self, normalization: str = SUM_LAMBDA_ONE) -> tuple[np.ndarray, np.ndarray]:
        """(vertices, recession rays) of the multiplier set, read off the
        `rays`.  Under Σλ = 1 the vertices are the rays with λ ≠ 0, scaled to
        Σλ = 1, and the rays with λ = 0 recede; under Fritz John every ray is a
        vertex, scaled to Σλ + Σμ = 1."""
        n, W = self.P.n_objectives, self.rays
        if normalization == FRITZ_JOHN:
            return W / W.sum(axis=1, keepdims=True), W[:0]
        lam = W[:, :n].sum(axis=1)
        return W[lam > 0.0] / lam[lam > 0.0, None], W[lam == 0.0]

    def multipliers(self, f2=None, g2=None,
                    normalization: str = SUM_LAMBDA_ONE) -> MultiplierPair | None:
        """The KT-multiplier oracle, answered from `vertices`: at first order
        the first vertex.  With second derivatives f2 (all objectives) and g2
        (active constraints) along a critical d the vertex with the largest
        L''(x; d); when that is negative, a recession ray with positive L''
        lifts it to L'' = 1.  None when no pair passes.  No column is masked:
        Σλ∇f + Σμ∇g = 0 with no ∇h·d > 0 leaves every λ_i∇f_i·d and μ_j∇g_j·d
        at zero up to the band, so each pair already lies on I(x, d) and
        J(x, d)."""
        V, rec = self.vertices(normalization)
        if not len(V):
            return None
        v = V[0]
        if f2 is not None:
            seconds = np.concatenate([f2, g2])
            v = V[np.argmax(V @ seconds)]
            low, lift = float(v @ seconds), rec @ seconds
            if low < 0.0:
                if not (lift > 0.0).any():
                    return None
                v = v + (1.0 - low) / lift.max() * rec[np.argmax(lift)]
        n = self.P.n_objectives
        lam, mu = v[:n], np.zeros(self.P.n_constraints)
        mu[list(self.active.indices)] = v[n:]
        residual = float(np.linalg.norm(lam @ self.Gf + v[n:] @ self.Gg))
        curvature = None if f2 is None else float(lam @ f2 + v[n:] @ g2)
        return MultiplierPair(lam=lam, mu=mu, normalization=normalization,
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
        objective, g_j''(x; d) for every active constraint).  A jet's value
        part is the same along every d, so `grad` met any kink or domain
        fault while the model was built."""
        f2 = np.array([second_dir_deriv(f, self.point, d) for f in self.P.objectives])
        g2 = np.array([second_dir_deriv(self.P.constraints[j], self.point, d)
                       for j in self.active.indices])
        return f2, g2

    def along(self, d) -> tuple[DirectionAnalysis, tuple[np.ndarray, np.ndarray]]:
        """d's analysis (d a vector or a ready DirectionAnalysis) and `second`
        along it: the one per-direction read.  NotCritical unless d is critical."""
        da = d if isinstance(d, DirectionAnalysis) else self.directions([d])[0]
        if not da.is_critical:
            raise NotCritical(f"direction {da.direction} is not critical at {da.point}")
        return da, self.second(da.direction)

    @shared
    def critical_directions(self) -> tuple[DirectionAnalysis, ...]:
        """The critical members of `critical_candidates` on the rows outside
        their tolerance and the vertex Hessians (d = 0 always passes and is left out)."""
        rows = np.vstack([self.Gf, self.Gg])
        keep = np.linalg.norm(rows, axis=1) > np.concatenate([self.f_tols, self.g_tols])
        units = critical_candidates(rows[keep], self._vertex_hessians())
        return tuple(self.directions(units[self._critical(self.Gf @ units.T, self.Gg @ units.T)]))

    @shared
    def critical_seconds(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """`second` along each of the `critical_directions`, in order."""
        return tuple(self.second(da.direction) for da in self.critical_directions)

    def _vertex_hessians(self) -> list[np.ndarray]:
        """Each distinct Σλ_i∇²f_i + Σμ_j∇²g_j over the `rays` that hold an
        objective (the multiplier vertices, before Σλ = 1)."""
        P, n = self.P, self.P.n_objectives
        exprs = [*P.objectives, *(P.constraints[j] for j in self.active.indices)]
        H = np.array([hessian(e, self.point) for e in exprs])  # grad would have met any kink first
        out = []
        for ray in self.rays[self.rays[:, :n].any(axis=1)]:
            S = np.flatnonzero(ray)
            Hv = np.tensordot(ray[S], H[S], axes=1)
            if not any(np.abs(Hv - h).max() <= 1e-9 * np.abs(Hv).max() for h in out):
                out.append(Hv)
        return out


def critical_candidates(rows, hessians) -> np.ndarray:
    """Unit directions, each kept once, that reach the least of max_v dᵀH_v d
    over the cone {d : r·d <= 0 for every row r}: it sits at a critical point
    on null(R_E) for the rows E active there (Hiriart-Urruty & Seeger, SIAM
    Rev. 52, 2010).  So for every subset E of the nonzero rows, Q a basis of
    null(R_E): ±Q on a line, else ±Q·u for each eigenvector u of QᵀH_vQ and
    the `_crossings` of each pair of Hessians; the caller keeps those in the
    cone.  Exact for s <= 2 or two Hessians; three at s >= 3 can miss."""
    s = rows.shape[1]
    units = np.array([r / np.linalg.norm(r) for r in rows if r.any()]).reshape(-1, s)
    found: list[np.ndarray] = []
    for E in map(list, _subsets(len(units))):
        Q = np.eye(s)
        if E:
            _, sv, vt = np.linalg.svd(units[E])
            Q = vt[int((sv > 1e-9).sum()):].T
        if Q.shape[1] <= 1:  # a line, or nothing
            found.extend(Q.T)
            continue
        restricted = [Q.T @ H @ Q for H in hessians]
        for M in restricted:
            found.extend((Q @ np.linalg.eigh(M)[1]).T)
        for A, B in itertools.combinations(restricted, 2):
            found.extend(Q @ u for u in _crossings(A, B))
    D = np.array([d / np.linalg.norm(d) for d in found if d.any()]).reshape(-1, s)
    U = np.stack([D, -D], axis=1).reshape(-1, s)
    near = np.linalg.norm(U[:, None] - U[None], axis=2) <= 1e-9
    return U[~np.tril(near, -1).any(axis=1)]


def _subsets(k: int):
    return itertools.chain.from_iterable(itertools.combinations(range(k), r) for r in range(k + 1))


def _crossings(A, B) -> list[np.ndarray]:
    """Where max(uᵀAu, uᵀBu) can bottom out on the sphere with both forms
    active: on a plane the zeros of uᵀ(A-B)u; beyond, the eigenvectors of tA +
    (1-t)B whose eigenvalue is stationary in t on [0, 1] (Yuan, Math. Program.
    47, 1990), and on a multiple one the zeros on the plane of A-B's extremes."""
    if len(A) == 2:
        (lo, hi), V = np.linalg.eigh(A - B)
        if lo > 0.0 or hi < 0.0:
            return []
        a, b = np.sqrt(hi) * V[:, 0], np.sqrt(-lo) * V[:, 1]
        return [a + b, a - b]

    def slopes(t):  # dλ_i/dt = u_iᵀ(A - B)u_i, eigenvalues ascending
        U = np.linalg.eigh(t * A + (1.0 - t) * B)[1]
        return np.einsum("ji,jk,ki->i", U, A - B, U)

    ts = np.linspace(0.0, 1.0, 65)
    g = np.array([slopes(t) for t in ts])
    points = [(0.0, 0), (1.0, 0)]
    for k, i in zip(*np.nonzero(g[:-1] * g[1:] <= 0.0)):  # bisect each sign change
        lo, hi = ts[k], ts[k + 1]
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slopes(mid)[i] * g[k, i] > 0.0 else (lo, mid)
        points.append((lo, i))
    found = []
    for t, i in points:
        vals, U = np.linalg.eigh(t * A + (1.0 - t) * B)
        V = U[:, np.abs(vals - vals[i]) <= 1e-6 * (1.0 + np.abs(vals).max())]
        if V.shape[1] > 1:
            V = V @ np.linalg.eigh(V.T @ (A - B) @ V)[1][:, [0, -1]]
            found.extend(V @ u for u in _crossings(V.T @ A @ V, V.T @ B @ V))
        found.extend(V.T)
    return found


@memo(RESULTS)
def local_model(P: ProblemDef, x, tol: float = DEFAULT_TOL) -> LocalModel:
    """The one shared LocalModel at x: every per-point question reads it."""
    return LocalModel(P, x, tol)


def analyze_direction(P: ProblemDef, x, d, tol: float = DEFAULT_TOL) -> DirectionAnalysis:
    """Criticality analysis of one direction d at x (see LocalModel.directions)."""
    return local_model(P, x, tol).directions([d])[0]


def sample_critical_directions(P: ProblemDef, x, tol: float = DEFAULT_TOL) -> list[DirectionAnalysis]:
    """The critical directions tested at x (see LocalModel.critical_directions)."""
    return list(local_model(P, x, tol).critical_directions)
