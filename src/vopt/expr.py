"""Closed-form scalar expressions over named variables.

Expressions are immutable trees built by :func:`parse_expr`. Each tree is
compiled once per arithmetic into nested closures: strict floats for
`evaluate`, numpy rows for `eval_grid`, and a degree-two Taylor jet (value,
first, second coefficient along a ray) for `grad`, `second_dir_deriv` and
`hessian`, so no differencing error enters the derivatives.
A Richardson-extrapolated limit quotient is provided separately as an
independent cross-check of the jet.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "Pow",
    "Expr",
    "FUNCTIONS",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariable",
    "DomainError",
    "NondifferentiablePoint",
    "NonConvergent",
    "parse_expr",
    "to_text",
    "evaluate",
    "eval_grid",
    "grad",
    "second_dir_deriv",
    "second_dir_deriv_limit",
    "hessian",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    """Malformed source text.  `position` is a 0-based character offset."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"at offset {position}: expected {' or '.join(expected)}, found {found!r}"
        )


class UnknownVariable(ExprError):
    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__(f"unknown variable {name!r}")


class DomainError(ExprError):
    """Evaluation left the real domain (log/sqrt of a nonpositive value,
    division by zero, zero raised to a negative power) or overflowed the
    double range."""


class NondifferentiablePoint(ExprError):
    """Derivative requested where one does not exist (abs at zero)."""


class NonConvergent(ExprError):
    """The limit-quotient extrapolation failed to settle."""

    def __init__(self, estimate: float, bound: float):
        self.estimate = estimate
        self.bound = bound
        super().__init__(f"limit quotient did not converge (bound {bound:.3e})")


# ---------------------------------------------------------------------------
# tree


class _Node:
    """Holds `_closures`, compiled per arithmetic; not a field, so ==, hash and repr ignore it."""

    @cached_property
    def _closures(self) -> dict:
        return {}


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    index: int
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow(_Node):
    base: "Expr"
    exponent: int  # integer exponents only


Expr = Const | Var | Neg | Call | BinOp | Pow


# ---------------------------------------------------------------------------
# parsing

_NUM_START = "0123456789."


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, lexeme, offset) without consuming."""
        self._skip_ws()
        t, i = self.text, self.pos
        if i >= len(t):
            return ("eof", "", i)
        ch = t[i]
        if ch in "+-*/^()":
            return (ch, ch, i)
        if ch in _NUM_START:
            j = i
            while j < len(t) and t[j] in "0123456789.":
                j += 1
            if j < len(t) and t[j] in "eE":
                k = j + 1
                if k < len(t) and t[k] in "+-":
                    k += 1
                if k < len(t) and t[k].isdigit():
                    j = k
                    while j < len(t) and t[j].isdigit():
                        j += 1
            return ("num", t[i:j], i)
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("ident", t[i:j], i)
        return ("bad", ch, i)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := atom ['^' integer],
    atom := number | variable | func '(' expr ')' | '(' expr ')' | '-' atom.
    """

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.toks = _Tokens(text)
        self.variables = variables

    def parse(self) -> Expr:
        e = self.expr()
        kind, lex, off = self.toks.peek()
        if kind != "eof":
            raise ExprSyntaxError(off, ("operator", "end of input"), lex)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind in "+-":
                self.toks.take()
                e = BinOp(kind, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, _, _ = self.toks.peek()
            if kind in "*/":
                self.toks.take()
                e = BinOp(kind, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.atom()
        kind, _, _ = self.toks.peek()
        if kind == "^":
            self.toks.take()
            e = Pow(e, self._integer())
        return e

    def _integer(self) -> int:
        sign = 1
        kind, lex, off = self.toks.take()
        if kind == "-":
            sign = -1
            kind, lex, off = self.toks.take()
        if kind != "num" or any(c in lex for c in ".eE"):
            raise ExprSyntaxError(off, ("integer exponent",), lex)
        return sign * int(lex)

    def atom(self) -> Expr:
        kind, lex, off = self.toks.take()
        if kind == "num":
            return Const(float(lex))
        if kind == "-":
            return Neg(self.atom())
        if kind == "(":
            e = self.expr()
            kind, lex, off = self.toks.take()
            if kind != ")":
                raise ExprSyntaxError(off, (")",), lex)
            return e
        if kind == "ident":
            nxt, _, _ = self.toks.peek()
            if nxt == "(":
                if lex not in FUNCTIONS:
                    raise ExprSyntaxError(off, FUNCTIONS, lex)
                self.toks.take()
                e = self.expr()
                kind2, lex2, off2 = self.toks.take()
                if kind2 != ")":
                    raise ExprSyntaxError(off2, (")",), lex2)
                return Call(lex, e)
            try:
                return Var(self.variables.index(lex), lex)
            except ValueError:
                raise UnknownVariable(lex, off) from None
        raise ExprSyntaxError(off, ("number", "variable", "function", "(", "-"), lex)


def parse_expr(text: str, variables: tuple[str, ...] | list[str]) -> Expr:
    """Parse `text` against the declared variable names (index = position)."""
    return _Parser(text, tuple(variables)).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(e: Expr, parent_prec: int) -> str:
    match e:
        case Const(v):
            s = _fmt_float(v)
            if v < 0 and parent_prec > 2:  # hand-built trees; parser never makes these
                return f"({s})"
        case Var(_, name):
            s = name
        case Neg(a):
            # grammar: '-' applies to an atom, so anything looser must wrap
            s = "-" + _fmt(a, 5)
            return f"({s})" if parent_prec > 2 else s
        case Call(fn, a):
            s = f"{fn}({_fmt(a, 0)})"
        case Pow(b, n):
            s = f"{_fmt(b, 5)}^{n}"
            return f"({s})" if parent_prec > 4 else s
        case BinOp(op, l, r):
            p = _PREC[op]
            # right side one level tighter: '-' and '/' are left-associative
            s = f"{_fmt(l, p)} {op} {_fmt(r, p + 1)}"
            return f"({s})" if parent_prec > p else s
    return s


def to_text(e: Expr) -> str:
    """Render to source text; `parse_expr(to_text(e), vars) == e` holds for
    trees whose constants are nonnegative (the parser never builds a negative
    Const, the grammar spells it Neg)."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# evaluation: one compile step, three arithmetics
#
# `_compile(e, A)` walks the tree once into nested closures env -> value of `e`
# in arithmetic A, kept per node, so later calls dispatch on nothing.  env is x
# for strict floats, X for grid rows and (x, d) for degree-two jets (a, b, c):
# h(x + t d) = a + b t + (c/2) t^2 + O(t^3), so b and c are the first and second
# directional derivatives along d.  The domain rules live once, in `_quotient`,
# `_power` and `_call_value`; the jets reuse them for their value component.


@dataclass(frozen=True, eq=False)
class _Arithmetic:
    const: Callable  # (v, env) -> value
    var: Callable  # (i, name, env) -> value
    neg: Callable  # value -> value
    binop: dict[str, Callable]  # op -> (value, value) -> value
    pow: Callable  # (value, n) -> value
    call: Callable  # (fn, value) -> value


def _compile(e: Expr, A: _Arithmetic):
    fn = e._closures.get(A)
    if fn is None:
        match e:
            case Const(v):
                fn = partial(A.const, v)
            case Var(i, name):
                fn = partial(A.var, i, name)
            case Neg(a):
                f, neg = _compile(a, A), A.neg
                fn = lambda env: neg(f(env))
            case BinOp(op, l, r):
                f, g, rule = _compile(l, A), _compile(r, A), A.binop[op]
                fn = lambda env: rule(f(env), g(env))
            case Pow(b, n):
                f, power = _compile(b, A), A.pow
                fn = lambda env: power(f(env), n)
            case Call(name, a):
                f, call = _compile(a, A), A.call
                fn = lambda env: call(name, f(env))
        e._closures[A] = fn
    return fn


def _float_var(i: int, name: str, x) -> float:
    if i >= len(x):
        raise UnknownVariable(name)
    return float(x[i])


def _quotient(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _power(v: float, n: int) -> float:
    if v == 0.0 and n < 0:
        raise DomainError("zero base with negative exponent")
    try:
        return float(v**n)
    except OverflowError:
        raise DomainError(f"{v}^{n} overflows") from None


def _call_value(fn: str, v: float) -> float:
    if fn in ("log", "sqrt") and v <= 0.0:
        raise DomainError(f"{fn} of {v}")
    try:
        return (abs if fn == "abs" else getattr(math, fn))(v)
    except OverflowError:
        raise DomainError(f"{fn} of {v} overflows") from None
    except ValueError:  # sin or cos of an infinity
        raise DomainError(f"{fn} of {v}") from None


def _call_row(fn: str, v: np.ndarray) -> np.ndarray:
    if fn in ("log", "sqrt"):
        v = np.where(v > 0.0, v, np.nan)
    return getattr(np, fn)(v)


_RING = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_FLOATS = _Arithmetic(
    const=lambda v, x: v, var=_float_var, neg=operator.neg,
    binop={**_RING, "/": _quotient}, pow=_power, call=_call_value,
)
_ROWS = _Arithmetic(
    const=lambda v, X: np.full(X.shape[1], v),
    var=lambda i, name, X: X[i].astype(float, copy=True),
    neg=operator.neg, binop={**_RING, "/": operator.truediv},
    pow=lambda v, n: v ** float(n), call=_call_row,
)


def evaluate(e: Expr, x) -> float:
    """Strict scalar evaluation; raises DomainError outside the real domain."""
    return _compile(e, _FLOATS)(x)


def eval_grid(e: Expr, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over column-stacked points X of shape (s, N).

    Domain violations produce nan/inf entries instead of raising; scan code
    masks non-finite values.
    """
    with np.errstate(all="ignore"):
        return _compile(e, _ROWS)(X)


_J = tuple[float, float, float]


def _jet(e: Expr, x, d) -> _J:
    return _compile(e, _JETS)((x, d))


def _jet_bin(op: str, u: _J, v: _J) -> _J:
    a1, b1, c1 = u
    a2, b2, c2 = v
    if op == "+":
        return (a1 + a2, b1 + b2, c1 + c2)
    if op == "-":
        return (a1 - a2, b1 - b2, c1 - c2)
    if op == "*":
        return (a1 * a2, a1 * b2 + b1 * a2, a1 * c2 + 2.0 * b1 * b2 + c1 * a2)
    a = _quotient(a1, a2)
    b = (b1 - a * b2) / a2
    c = (c1 - a * c2 - 2.0 * b * b2) / a2
    return (a, b, c)


def _jet_pow(u: _J, n: int) -> _J:
    a, b, c = u
    if n == 0:
        return (1.0, 0.0, 0.0)
    if n == 1:
        return u
    p2 = _power(a, n - 2)  # 0^0 = 1 covers a = 0 with n = 2
    p1 = p2 * a
    p0 = p1 * a
    if math.isinf(p0):
        _power(a, n)  # overflow is decided by the strict rule, as in `evaluate`
    return (p0, n * p1 * b, n * (n - 1) * p2 * b * b + n * p1 * c)


def _jet_call(fn: str, u: _J) -> _J:
    a, b, c = u
    v = _call_value(fn, a)
    if fn == "abs":
        if a == 0.0:
            raise NondifferentiablePoint("abs at zero")
        s = 1.0 if a > 0.0 else -1.0
        return (v, s * b, s * c)
    if fn == "sin":
        ca = math.cos(a)
        return (v, ca * b, -v * b * b + ca * c)
    if fn == "cos":
        sa = math.sin(a)
        return (v, -sa * b, -v * b * b - sa * c)
    if fn == "exp":
        return (v, v * b, v * (b * b + c))
    if fn == "log":
        return (v, b / a, _quotient(-b * b, a * a) + c / a)  # a * a may underflow to 0
    d1 = 0.5 / v  # sqrt
    return (v, d1 * b, _quotient(-0.25, a * v) * b * b + d1 * c)


_JETS = _Arithmetic(
    const=lambda v, xd: (v, 0.0, 0.0),
    var=lambda i, name, xd: (_float_var(i, name, xd[0]), float(xd[1][i]), 0.0),
    neg=lambda u: (-u[0], -u[1], -u[2]),
    binop={op: partial(_jet_bin, op) for op in "+-*/"}, pow=_jet_pow, call=_jet_call,
)


def grad(e: Expr, x) -> np.ndarray:
    """Exact gradient, one directional jet pass per coordinate."""
    x = np.asarray(x, dtype=float)
    return np.array([_jet(e, x, d)[1] for d in np.eye(x.shape[0])])


def second_dir_deriv(e: Expr, x, d) -> float:
    """Second directional derivative along d: for twice-differentiable e this
    equals d'Hd with H the Hessian at x.  Exact (no step size)."""
    d = np.asarray(d, dtype=float)
    if not d.any():
        return 0.0  # the defining limit quotient vanishes identically at d = 0
    return _jet(e, np.asarray(x, dtype=float), d)[2]


def hessian(e: Expr, x) -> np.ndarray:
    """Full Hessian assembled from directional second derivatives by
    polarization: H_ij = (Q(e_i + e_j) - Q(e_i) - Q(e_j)) / 2."""
    x = np.asarray(x, dtype=float)
    s = x.shape[0]
    eye = np.eye(s)
    q = np.array([second_dir_deriv(e, x, eye[i]) for i in range(s)])
    H = np.diag(q)
    for i in range(s):
        for j in range(i + 1, s):
            H[i, j] = H[j, i] = 0.5 * (
                second_dir_deriv(e, x, eye[i] + eye[j]) - q[i] - q[j]
            )
    return H


def second_dir_deriv_limit(
    e: Expr, x, d, steps: int = 20, t0: float = 0.1
) -> tuple[float, float]:
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
