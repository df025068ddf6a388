"""Closed-form scalar expressions over named variables.

Expressions are immutable trees built by :func:`parse_expr`. Evaluation is
plain recursion; first and second directional derivatives are propagated
exactly through a degree-two Taylor jet (value, first, second coefficient
along a ray), so no differencing error enters `grad` or `second_dir_deriv`.
A Richardson-extrapolated limit quotient is provided separately as an
independent cross-check of the jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
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
# evaluation


def evaluate(e: Expr, x) -> float:
    """Strict scalar evaluation; raises DomainError outside the real domain."""
    match e:
        case Const(v):
            return v
        case Var(i, name):
            if i >= len(x):
                raise UnknownVariable(name)
            return float(x[i])
        case Neg(a):
            return -evaluate(a, x)
        case BinOp("+", l, r):
            return evaluate(l, x) + evaluate(r, x)
        case BinOp("-", l, r):
            return evaluate(l, x) - evaluate(r, x)
        case BinOp("*", l, r):
            return evaluate(l, x) * evaluate(r, x)
        case BinOp("/", l, r):
            d = evaluate(r, x)
            if d == 0.0:
                raise DomainError("division by zero")
            return evaluate(l, x) / d
        case Pow(b, n):
            v = evaluate(b, x)
            if v == 0.0 and n < 0:
                raise DomainError("zero base with negative exponent")
            return _power(v, n)
        case Call(fn, a):
            v = evaluate(a, x)
            return _call_value(fn, v)
    raise TypeError(f"not an expression node: {e!r}")


def _power(v: float, n: int) -> float:
    try:
        return float(v**n)
    except OverflowError:
        raise DomainError(f"{v}^{n} overflows") from None


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp of {v} overflows") from None


def _call_value(fn: str, v: float) -> float:
    if fn == "sin":
        return math.sin(v)
    if fn == "cos":
        return math.cos(v)
    if fn == "exp":
        return _exp(v)
    if fn == "abs":
        return abs(v)
    if fn == "log":
        if v <= 0.0:
            raise DomainError(f"log of {v}")
        return math.log(v)
    if fn == "sqrt":
        if v <= 0.0:
            raise DomainError(f"sqrt of {v}")
        return math.sqrt(v)
    raise TypeError(fn)


def eval_grid(e: Expr, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over column-stacked points X of shape (s, N).

    Domain violations produce nan/inf entries instead of raising; scan code
    masks non-finite values.
    """
    with np.errstate(all="ignore"):
        return _eval_arr(e, X)


def _eval_arr(e: Expr, X: np.ndarray) -> np.ndarray:
    match e:
        case Const(v):
            return np.full(X.shape[1], v)
        case Var(i, _):
            return X[i].astype(float, copy=True)
        case Neg(a):
            return -_eval_arr(a, X)
        case BinOp("+", l, r):
            return _eval_arr(l, X) + _eval_arr(r, X)
        case BinOp("-", l, r):
            return _eval_arr(l, X) - _eval_arr(r, X)
        case BinOp("*", l, r):
            return _eval_arr(l, X) * _eval_arr(r, X)
        case BinOp("/", l, r):
            return _eval_arr(l, X) / _eval_arr(r, X)
        case Pow(b, n):
            return _eval_arr(b, X) ** float(n)
        case Call(fn, a):
            v = _eval_arr(a, X)
            if fn == "abs":
                return np.abs(v)
            if fn in ("log", "sqrt"):
                v = np.where(v > 0.0, v, np.nan)
            return getattr(np, fn)(v)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# exact derivatives via a degree-two jet
#
# _jet(e, x, d) returns (a, b, c) with h(x + t d) = a + b t + (c/2) t^2 + O(t^3),
# i.e. b is the first and c the second directional derivative along d.

_J = tuple[float, float, float]


def _jet(e: Expr, x, d) -> _J:
    match e:
        case Const(v):
            return (v, 0.0, 0.0)
        case Var(i, name):
            if i >= len(x):
                raise UnknownVariable(name)
            return (float(x[i]), float(d[i]), 0.0)
        case Neg(a):
            a1, b1, c1 = _jet(a, x, d)
            return (-a1, -b1, -c1)
        case BinOp(op, l, r):
            u, v = _jet(l, x, d), _jet(r, x, d)
            return _jet_bin(op, u, v)
        case Pow(base, n):
            return _jet_pow(_jet(base, x, d), n)
        case Call(fn, arg):
            return _jet_call(fn, _jet(arg, x, d))
    raise TypeError(f"not an expression node: {e!r}")


def _jet_bin(op: str, u: _J, v: _J) -> _J:
    a1, b1, c1 = u
    a2, b2, c2 = v
    if op == "+":
        return (a1 + a2, b1 + b2, c1 + c2)
    if op == "-":
        return (a1 - a2, b1 - b2, c1 - c2)
    if op == "*":
        return (a1 * a2, a1 * b2 + b1 * a2, a1 * c2 + 2.0 * b1 * b2 + c1 * a2)
    if a2 == 0.0:
        raise DomainError("division by zero")
    a = a1 / a2
    b = (b1 - a * b2) / a2
    c = (c1 - a * c2 - 2.0 * b * b2) / a2
    return (a, b, c)


def _jet_pow(u: _J, n: int) -> _J:
    a, b, c = u
    if n == 0:
        return (1.0, 0.0, 0.0)
    if n == 1:
        return u
    if a == 0.0 and n < 0:
        raise DomainError("zero base with negative exponent")
    # 0^0 := 1 below covers a = 0 with n = 2
    p2 = _power(a, n - 2) if (a != 0.0 or n >= 2) else 0.0
    p1 = p2 * a
    p0 = p1 * a
    return (p0, n * p1 * b, n * (n - 1) * p2 * b * b + n * p1 * c)


def _jet_call(fn: str, u: _J) -> _J:
    a, b, c = u
    if fn == "abs":
        if a == 0.0:
            raise NondifferentiablePoint("abs at zero")
        s = 1.0 if a > 0.0 else -1.0
        return (abs(a), s * b, s * c)
    if fn == "sin":
        sa, ca = math.sin(a), math.cos(a)
        return (sa, ca * b, -sa * b * b + ca * c)
    if fn == "cos":
        sa, ca = math.sin(a), math.cos(a)
        return (ca, -sa * b, -ca * b * b - sa * c)
    if fn == "exp":
        ea = _exp(a)
        return (ea, ea * b, ea * (b * b + c))
    if fn == "log":
        if a <= 0.0:
            raise DomainError(f"log of {a}")
        return (math.log(a), b / a, -b * b / (a * a) + c / a)
    if fn == "sqrt":
        if a <= 0.0:
            raise DomainError(f"sqrt of {a}")
        r = math.sqrt(a)
        d1 = 0.5 / r
        return (r, d1 * b, -0.25 / (a * r) * b * b + d1 * c)
    raise TypeError(fn)


def grad(e: Expr, x) -> np.ndarray:
    """Exact gradient, one directional jet pass per coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.shape[0])
    d = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        d[i] = 1.0
        g[i] = _jet(e, x, d)[1]
        d[i] = 0.0
    return g


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
