"""Closed-form scalar expressions over named variables.

Expressions are immutable trees built by :func:`parse_expr`. Each tree is
compiled once per arithmetic into nested closures: strict floats for
`evaluate`, numpy rows for `eval_grid`, and a degree-two Taylor jet (value,
first, second coefficient along a ray) for `grad`, `second_dir_deriv` and
`hessian`, so no differencing error enters the derivatives.
"""

from __future__ import annotations

import math
import operator
import re
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
    "parse_expr",
    "is_identifier",
    "to_text",
    "evaluate",
    "eval_grid",
    "grad",
    "second_dir_deriv",
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

_TOKEN = re.compile(r"""[ \t]*(?:  # blanks are spaces and tabs
    (?P<num>[0-9.]+(?P<exp>[eE][+-]?(?P<digits>\w+))?)  # digits and points, maybe an exponent
  | (?P<ident>\w+)  # a name if its first character is a letter (str.isalpha) or _
  | (?P<op>[-+*/^()])
  | (?P<eof>\Z)
  | (?P<bad>.)
)""", re.S | re.X)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, lexeme, offset) through the end of input.  An operator is its own
    kind; a word that is not a name is a bad token, its first character; an
    exponent keeps only the leading digits (`str.isdigit`) of its word."""
    toks, pos = [], 0
    while not toks or toks[-1][0] != "eof":
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        lex, off = m[kind], m.start(kind)
        if kind == "op":
            kind = lex
        elif kind == "ident" and not (lex[0].isalpha() or lex[0] == "_"):
            kind, lex = "bad", lex[0]
        elif kind == "num" and m["exp"]:
            n = next((i for i, c in enumerate(m["digits"]) if not c.isdigit()), len(m["digits"]))
            lex = text[off : m.start("digits") + n if n else m.start("exp")]
        toks.append((kind, lex, off))
        pos = off + len(lex)
    return toks


def parse_expr(text: str, variables: tuple[str, ...] | list[str]) -> Expr:
    """Parse `text` against the declared variable names (index = position), by
    recursive descent over: expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := atom ['^' ['-'] integer],
    atom := number | variable | func '(' expr ')' | '(' expr ')' | '-' atom."""
    toks, variables = _tokens(text)[::-1], tuple(variables)  # the next token is toks[-1]

    def ending(e: Expr, want: str, expected: tuple[str, ...]) -> Expr:  # e, then token `want`
        kind, lex, off = toks.pop()
        if kind != want:
            raise ExprSyntaxError(off, expected, lex)
        return e

    def chain(level: int) -> Expr:  # terms (level 0) or factors (1), joined left-associatively
        operand = factor if level else partial(chain, 1)
        e = operand()
        while toks[-1][0] in ("+-", "*/")[level]:
            e = BinOp(toks.pop()[0], e, operand())
        return e

    def factor() -> Expr:
        e = atom()
        if toks[-1][0] != "^":
            return e
        toks.pop()
        kind, lex, off = toks.pop()
        sign = 1
        if kind == "-":
            sign, (kind, lex, off) = -1, toks.pop()
        if kind != "num" or not lex.isdigit():
            raise ExprSyntaxError(off, ("integer exponent",), lex)
        return Pow(e, sign * int(lex))

    def atom() -> Expr:
        kind, lex, off = toks.pop()
        if kind == "num":
            try:
                if math.isfinite(v := float(lex)):
                    return Const(v)
            except ValueError:  # two points, or a point alone
                pass
            raise ExprSyntaxError(off, ("finite number",), lex)
        if kind == "-":
            return Neg(atom())
        if kind == "(":
            return ending(chain(0), ")", (")",))
        if kind == "ident" and toks[-1][0] == "(":
            if lex not in FUNCTIONS:
                raise ExprSyntaxError(off, FUNCTIONS, lex)
            return Call(lex, atom())  # the parenthesised argument
        if kind == "ident" and lex in variables:
            return Var(variables.index(lex), lex)
        if kind == "ident":
            raise UnknownVariable(lex, off)
        raise ExprSyntaxError(off, ("number", "variable", "function", "(", "-"), lex)

    return ending(chain(0), "eof", ("operator", "end of input"))


def is_identifier(text: str) -> bool:
    """Whether `text` is one identifier token, a name `parse_expr` can read."""
    return _tokens(text)[0] == ("ident", text, 0)


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

