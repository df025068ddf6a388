"""Bit-exactness of the expression backend.

`expr_bits.json` holds `float.hex` of `evaluate`, `eval_grid`, `grad`,
`second_dir_deriv` and `hessian` as the three recursive interpreters
(`evaluate`, `_eval_arr`, `_jet`) computed them, before one compiled walk
replaced them, on every fixture objective and constraint and on inline
expressions that reach each domain rule.  A failure is recorded by the
name of the exception class.  The compiled walk must reproduce every entry,
and `grad_hessian` must give `grad`'s and `hessian`'s entries at once.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vopt.cli import FIXTURES
from vopt.expr import (
    ExprError, eval_grid, evaluate, grad, grad_hessian, hessian, parse_expr, second_dir_deriv,
)
from vopt.problem import load_problem

REFERENCE = Path(__file__).with_name("expr_bits.json")

POINTS = [(0.0, 0.0), (0.3, -0.7), (1.0, 0.0), (-1.25, 0.5), (2.0, -3.0), (0.5, 1.5)]
DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]
INLINE = [
    "exp(x1) * log(x2)",
    "sqrt(x1^2 + 1) / x2",
    "abs(x1 - x2)^3 + abs(x1)",
    "x1^-2 + x2^0",
    "x1^-3 * sin(x2) - cos(x1) / x2^-1",
    "log(x1) + sqrt(x2)",
    "x1 / (x2 - x2) + exp(-x1^2 / 2)",
    "(x1 + 1)^-1 * x2^2 - 3 / (1 + x1^2)",
    "cos(x1 * x2)^2 / sqrt(abs(x2) + 0.5)",
    "exp(x2^4) - x1^5 + 0^2",
]


def _cases():
    for name in ("exA", "exB", "exBprime", "exC"):
        P = load_problem(FIXTURES / f"{name}.vopt")
        for k, e in enumerate(P.objectives + P.constraints):
            yield f"{name}[{k}]", e
    for src in INLINE:
        yield src, parse_expr(src, ("x1", "x2"))


def _hex(f):
    try:
        v = f()
    except ExprError as err:
        return type(err).__name__
    return [float(t).hex() for t in np.ravel(v)]


def _record(e) -> dict:
    X = np.array(POINTS).T
    return {
        "eval_grid": _hex(lambda: eval_grid(e, X)),
        "points": [
            {
                "evaluate": _hex(lambda: evaluate(e, x)),
                "grad": _hex(lambda: grad(e, x)),
                "second_dir_deriv": [_hex(lambda: second_dir_deriv(e, x, d)) for d in DIRECTIONS],
                "hessian": _hex(lambda: hessian(e, x)),
            }
            for x in POINTS
        ],
    }


def test_reference_covers_every_case():
    assert sorted(json.loads(REFERENCE.read_text())) == sorted(k for k, _ in _cases())


@pytest.mark.parametrize("key, e", list(_cases()), ids=[k for k, _ in _cases()])
def test_values_and_derivatives_are_bit_exact(key, e):
    assert _record(e) == json.loads(REFERENCE.read_text())[key]


@pytest.mark.parametrize("key, e", list(_cases()), ids=[k for k, _ in _cases()])
def test_grad_hessian_is_grad_and_hessian_bit_for_bit(key, e):
    pinned = json.loads(REFERENCE.read_text())[key]["points"]
    for x, point in zip(POINTS, pinned):
        assert _hex(lambda: grad_hessian(e, x)[0]) == point["grad"]
        assert _hex(lambda: grad_hessian(e, x)[1]) == point["hessian"]
