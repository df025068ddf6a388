"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, pass index): the same
triple always yields the same files and the same argv lists.  vopt only ever
sees the files written here.  Problems are built term by term from specs
that render both to vopt source text and to a closed-form numpy callable, so
the output checks in `oracles.py` can evaluate f_i and g_j without touching
`vopt.expr`.

Nothing here imports vopt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("paper-examples", "highdim-audit", "alternatives")

# The paper's own traffic: every bundled reproduction, then the full class
# audit on each bundled fixture (resolved by vopt from its package data).
PAPER_EXAMPLES = ("4.1", "5.1", "5.2")
FIXTURE_NAMES = ("exA", "exB", "exBprime", "exC")

# alternatives: block files per pass and the largest block dimension, as
# drawn by scripts/alternative_stress.py.
ALTERNATIVES_PER_PASS = 400
ALTERNATIVES_MAX_DIM = 8

Fn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Term:
    """One summand: vopt source text of its magnitude, its sign, and the
    signed function over x[k]."""

    text: str
    fn: Fn
    negative: bool = False


@dataclass(frozen=True)
class Problem:
    """A generated (or bundled) problem with closed-form callables.

    Callables take x of shape (s,) or (s, N) and return a float or (N,)."""

    name: str
    lower: np.ndarray
    upper: np.ndarray
    objectives: tuple[Fn, ...]
    constraints: tuple[Fn, ...]
    text: str = ""

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Command:
    """One vopt invocation; `problem` names the input the output checks use."""

    argv: tuple[str, ...]
    kind: str  # reproduce | classify | scan | alternative
    problem: str


# ---------------------------------------------------------------------------
# bundled fixtures, transcribed by hand from src/vopt/fixtures/*.vopt


def _box(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


_EX_A_F = (
    lambda x: (x[0] ** 2 + x[1] ** 2) ** 2 - 2 * x[0] ** 2 + 2 * x[1] ** 2,
    lambda x: (x[0] ** 2 - 1) ** 2 + 2 * x[1] ** 2,
)

FIXTURES: dict[str, Problem] = {
    "exA": Problem("exA", *_box([-2, -2], [2, 2]), _EX_A_F,
                   (lambda x: x[0] ** 2 + x[1] ** 2 - 1,)),
    "exB": Problem("exB", *_box([-2, -2], [2, 2]), _EX_A_F, ()),
    "exBprime": Problem(
        "exBprime",
        *_box([-1, -1], [3, 3]),
        (lambda x: (x[0] + x[1]) ** 2 - 2 * x[0] + 2 * x[1],
         lambda x: (x[0] - 1) ** 2 + 2 * x[1]),
        (lambda x: -x[0], lambda x: -x[1]),
    ),
    "exC": Problem(
        "exC",
        *_box([-1, -3], [3, 1]),
        (lambda x: 2 * x[0] * x[1] - 2 * x[0] ** 2 - x[1] ** 2 + 8 * x[0] - 6 * x[1],
         lambda x: -x[0] + x[1]),
        (lambda x: x[0] - x[0] ** 2 + x[1],),
    ),
}


# ---------------------------------------------------------------------------
# term generator for highdim-audit


def _num(v: float) -> float:
    # three decimals: the text and the callable then hold the same double
    return float(round(float(v), 3))


def _shift(i: int, c: float) -> str:
    if c == 0.0:
        return f"x{i + 1}"
    return f"(x{i + 1} {'-' if c > 0 else '+'} {abs(c)!r})"


class _Draw:
    """Draws for highdim problem `index`.  Every discrete choice and every
    coefficient's base value comes from the index alone; the seed scales each
    coefficient by a factor in [1 - JITTER, 1 + JITTER].  So every seed gives
    new problem files (nothing for a content-keyed cache to reuse) of the same
    shapes, and the cost of a run does not swing with the seed: with shapes
    drawn per seed, the number of KT points per problem ranged from 13 to 34
    and run-to-run spread exceeded the bounds."""

    JITTER = 0.1

    def __init__(self, seed: int, index: int):
        self.shape = np.random.default_rng([1, index])
        self.seed = np.random.default_rng([seed, 1, index])

    def coef(self, lo: float, hi: float) -> float:
        scale = self.seed.uniform(1.0 - self.JITTER, 1.0 + self.JITTER)
        return _num(self.shape.uniform(lo, hi) * scale)

    def pick(self, n: int) -> int:
        return int(self.shape.integers(0, n))

    def sign(self) -> float:
        return -1.0 if self.shape.random() < 0.5 else 1.0


def _quad(d: _Draw, i: int, c: float) -> Term:
    a = d.coef(0.4, 1.2)
    return Term(f"{a!r}*{_shift(i, c)}^2", lambda x: a * (x[i] - c) ** 2)


def _cross(d, s, i):
    j = (i + 1 + d.pick(s - 1)) % s
    return f"x{i + 1}*x{j + 1}", d.coef(0.1, 0.4), lambda x: x[i] * x[j]


def _quartic(d, s, i):
    return f"x{i + 1}^4", d.coef(0.05, 0.2), lambda x: x[i] ** 4


def _sin(d, s, i):
    j = (i + 1) % s
    return f"sin(x{i + 1} + x{j + 1})", d.coef(0.5, 1.5), lambda x: np.sin(x[i] + x[j])


def _cos(d, s, i):
    k = d.coef(1.5, 3.0)
    return f"cos({k!r}*x{i + 1})", d.coef(0.3, 0.8), lambda x: np.cos(k * x[i])


def _exp(d, s, i):
    k = d.coef(0.2, 0.6)
    return f"exp({k!r}*x{i + 1})", d.coef(0.1, 0.4), lambda x: np.exp(k * x[i])


def _log(d, s, i):
    return f"log(1 + x{i + 1}^2)", d.coef(0.2, 0.8), lambda x: np.log(1 + x[i] ** 2)


def _sqrt(d, s, i):
    j = (i + 1) % s
    return (
        f"sqrt(1 + x{i + 1}^2 + x{j + 1}^2)",
        d.coef(0.2, 0.8),
        lambda x: np.sqrt(1 + x[i] ** 2 + x[j] ** 2),
    )


# Each family returns (term text, coefficient magnitude, term function).
# All stay finite and smooth on R^s: log and sqrt arguments are >= 1 and exp
# exponents are at most 0.66·|x_i|, so no command should meet a domain or
# overflow fault on these inputs.  The quadratic bowl keeps every objective
# coercive; the signed perturbations make some problems nonconvex, so both
# Falsified and ConsistentAtResolution verdicts occur.
EXTRA_TERMS = (_cross, _quartic, _sin, _cos, _exp, _log, _sqrt)


def _perturbation(d: _Draw, s: int, family) -> Term:
    text, b, g = family(d, s, d.pick(s))
    v = b if family is _quartic else d.sign() * b
    return Term(f"{b!r}*{text}", lambda x: v * g(x), negative=v < 0)


def _sum(terms: list[Term]) -> Term:
    text = terms[0].text
    for t in terms[1:]:
        text += f" {'-' if t.negative else '+'} {t.text}"
    fns = tuple(t.fn for t in terms)
    return Term(text, lambda x: sum(f(x) for f in fns))


def _objective(d: _Draw, s: int, centre: list[float], families) -> Term:
    """A coercive quadratic bowl around `centre` plus one smooth
    perturbation per family."""
    terms = [_quad(d, i, centre[i]) for i in range(s)]
    terms += [_perturbation(d, s, family) for family in families]
    return _sum(terms)


def _ball(d: _Draw, s: int) -> Term:
    r2 = d.coef(1.5, 3.0)
    text = " + ".join(f"x{k + 1}^2" for k in range(s)) + f" - {r2!r}"
    return Term(text, lambda x: sum(x[k] ** 2 for k in range(s)) - r2)


def _halfspace(d: _Draw, s: int) -> Term:
    a = [d.sign() * d.coef(0.1, 1.0) for _ in range(s)]
    b = d.coef(0.5, 1.5)
    text = f"{a[0]!r}*x1"
    for k in range(1, s):
        text += f" {'-' if a[k] < 0 else '+'} {abs(a[k])!r}*x{k + 1}"
    return Term(f"{text} - {b!r}", lambda x: sum(a[k] * x[k] for k in range(s)) - b)


def _exp_cap(d: _Draw, s: int) -> Term:
    i = d.pick(s)
    j = (i + 1 + d.pick(s - 1)) % s
    c = d.coef(2.0, 3.0)
    return Term(
        f"exp(0.5*x{i + 1}) + x{j + 1}^2 - {c!r}",
        lambda x: np.exp(0.5 * x[i]) + x[j] ** 2 - c,
    )


# Problem shapes of one highdim-audit pass, in order: (variables, constraint
# makers).  Every constraint is strictly feasible at the origin.  The four-
# variable problem always carries the ball, which keeps its 21^4 KT scan to
# a fraction of the box: an unconstrained 4-variable audit costs about 3x a
# ball-constrained one.
HIGHDIM_SHAPES = (
    (3, ()),
    (3, (_halfspace,)),
    (3, (_exp_cap, _ball)),
    (4, (_ball, _halfspace)),
)
HIGHDIM_BOX = 2.0


def highdim_problem(seed: int, index: int) -> Problem:
    """Problem `index` of the seeded stream, shaped by HIGHDIM_SHAPES.  The
    two bowls sit at roughly opposite centres, so the KT set is a long
    Pareto curve."""
    s, makers = HIGHDIM_SHAPES[index % len(HIGHDIM_SHAPES)]
    d = _Draw(seed, index)
    signs = [d.sign() for _ in range(s)]
    c1 = [signs[k] * d.coef(0.5, 0.9) for k in range(s)]
    c2 = [-signs[k] * d.coef(0.5, 0.9) for k in range(s)]
    nfam = len(EXTRA_TERMS)
    objectives = [
        _objective(d, s, c, (EXTRA_TERMS[(2 * index + j) % nfam], EXTRA_TERMS[(2 * index + j + 3) % nfam]))
        for j, c in enumerate((c1, c2))
    ]
    constraints = [make(d, s) for make in makers]
    lines = [f"# highdim-audit seed {seed} problem {index}"]
    lines += [f"var x{k + 1} in [-{HIGHDIM_BOX!r}, {HIGHDIM_BOX!r}]" for k in range(s)]
    lines += [f"min {t.text}" for t in objectives]
    lines += [f"st {t.text} <= 0" for t in constraints]
    return Problem(
        name=f"hd{seed}_{index}",
        lower=np.full(s, -HIGHDIM_BOX),
        upper=np.full(s, HIGHDIM_BOX),
        objectives=tuple(t.fn for t in objectives),
        constraints=tuple(t.fn for t in constraints),
        text="\n".join(lines) + "\n",
    )


# ---------------------------------------------------------------------------
# alternatives


def alternative_blocks(seed: int, index: int) -> dict[str, list]:
    """Blocks A (s x q), B (s x r), C (p x q), D (p x r) with s, q in 1..8 and
    r, p in 0..8, entries uniform in [-3, 3] at six decimals."""
    rng = np.random.default_rng([seed, 2, index])
    m = ALTERNATIVES_MAX_DIM
    s, q = (int(v) for v in rng.integers(1, m + 1, size=2))
    r, p = (int(v) for v in rng.integers(0, m + 1, size=2))

    def block(rows, cols):
        return np.round(rng.uniform(-3, 3, size=(rows, cols)), 6).tolist()

    out = {"A": block(s, q)}
    if r:
        out["B"] = block(s, r)
    if p:
        out["C"] = block(p, q)
    if p and r:
        out["D"] = block(p, r)
    return out


# ---------------------------------------------------------------------------
# passes


@dataclass(frozen=True)
class Pass:
    commands: tuple[Command, ...]
    setup_files: tuple[str, ...]  # problem or block files the set-up parses
    problems: dict[str, Problem]


def make_pass(workload: str, seed: int, index: int, work: Path) -> Pass:
    """Write the inputs of pass `index` under `work` and return its commands.
    Generated files are named by absolute path; the paper-examples commands
    name the bundled fixtures, which vopt resolves from its package data."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "paper-examples":
        return _paper_pass(seed, index)
    if workload == "highdim-audit":
        return _highdim_pass(seed, index, work)
    if workload == "alternatives":
        return _alternatives_pass(seed, index, work)
    raise ValueError(f"unknown workload {workload!r}")


def _paper_pass(seed: int, index: int) -> Pass:
    # the inputs are the bundled fixtures; the seed only orders the commands
    cmds = [Command(("reproduce-example", e), "reproduce", e) for e in PAPER_EXAMPLES]
    cmds += [
        Command(("classify", f"{name}.vopt", "--class", "all"), "classify", name)
        for name in FIXTURE_NAMES
    ]
    order = np.random.default_rng([seed, 0, index]).permutation(len(cmds))
    return Pass(
        commands=tuple(cmds[k] for k in order),
        setup_files=tuple(f"src/vopt/fixtures/{n}.vopt" for n in FIXTURE_NAMES),
        problems=dict(FIXTURES),
    )


def _highdim_pass(seed: int, index: int, work: Path) -> Pass:
    cmds, files, problems = [], [], {}
    per = len(HIGHDIM_SHAPES)
    for k in range(index * per, (index + 1) * per):
        P = highdim_problem(seed, k)
        path = work / f"{P.name}.vopt"
        path.write_text(P.text)
        files.append(str(path))
        problems[P.name] = P
        cmds.append(Command(("scan", str(path)), "scan", P.name))
        cmds.append(Command(("classify", str(path), "--class", "all"), "classify", P.name))
    return Pass(tuple(cmds), tuple(files), problems)


def _alternatives_pass(seed: int, index: int, work: Path) -> Pass:
    cmds, files = [], []
    n = ALTERNATIVES_PER_PASS
    for k in range(index * n, (index + 1) * n):
        path = work / f"alt{seed}_{k}.json"
        path.write_text(json.dumps(alternative_blocks(seed, k)))
        files.append(str(path))
        cmds.append(Command(("alternative", str(path)), "alternative", str(path)))
    return Pass(tuple(cmds), tuple(files), {})
