import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vopt.expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    ExprError,
    ExprSyntaxError,
    Neg,
    NondifferentiablePoint,
    Pow,
    UnknownVariable,
    Var,
    eval_grid,
    evaluate,
    grad,
    hessian,
    is_identifier,
    parse_expr,
    second_dir_deriv,
    to_text,
)

from _oracles import second_dir_deriv_limit

V2 = ("x1", "x2")

# the quartic pair used throughout the fixture problems
F1 = "(x1^2 + x2^2)^2 - 2*x1^2 + 2*x2^2"
F2 = "(x1^2 - 1)^2 + 2*x2^2"


def test_parse_and_eval_basics():
    e = parse_expr("2*x1 + x2^2 - 1", V2)
    assert evaluate(e, [3.0, 2.0]) == pytest.approx(9.0)
    # per the grammar, unary minus binds the atom before '^' applies: (-x1)^2
    assert evaluate(parse_expr("-x1^2", V2), [2.0, 0.0]) == 4.0
    assert evaluate(parse_expr("-(x1^2)", V2), [2.0, 0.0]) == -4.0
    assert evaluate(parse_expr("2 - 3 - 4", V2), [0, 0]) == -5.0
    assert evaluate(parse_expr("8 / 4 / 2", V2), [0, 0]) == 1.0
    assert evaluate(parse_expr("x1^-2", V2), [2.0, 0.0]) == 0.25
    assert evaluate(parse_expr("x1^0", V2), [0.0, 0.0]) == 1.0


def test_parse_errors():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr("x1 + + 3", V2)
    assert ei.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^2.5", V2)  # exponents must be integers
    with pytest.raises(ExprSyntaxError):
        parse_expr("foo(x1)", V2)  # not a known function
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x1 + 1", V2)
    with pytest.raises(UnknownVariable):
        parse_expr("x1 + q", V2)


@pytest.mark.parametrize("text, position, found", [
    ("x1 + 1.2.3", 5, "1.2.3"),  # float() refuses these three
    ("x1 + .", 5, "."),
    ("x1 + 1e²", 5, "1e²"),  # exponent digits are what str.isdigit takes
    ("1e999*x1", 0, "1e999"),  # reads inf
    ("9" * 400, 0, "9" * 400),
])
def test_a_number_that_is_malformed_or_not_finite_is_a_syntax_error(text, position, found):
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr(text, V2)
    assert (ei.value.position, ei.value.expected, ei.value.found) == (
        position, ("finite number",), found)


def test_tokens_keep_the_scanner_rules():
    # a name is a letter (str.isalpha) or '_', then letters, digits (str.isalnum) or '_'
    assert parse_expr("x² + _é1", ("x²", "_é1")) == BinOp("+", Var(0, "x²"), Var(1, "_é1"))
    assert parse_expr("1e٣ - 2E-1", V2) == BinOp("-", Const(1000.0), Const(0.2))
    for text, position, expected, found in [
        ("²x", 0, ("number", "variable", "function", "(", "-"), "²"),
        ("x1 + ٣", 5, ("number", "variable", "function", "(", "-"), "٣"),
        ("x1 1e5²", 3, ("operator", "end of input"), "1e5²"),
        ("x1^1e²", 3, ("integer exponent",), "1e²"),
        ("x1^2.0", 3, ("integer exponent",), "2.0"),
        ("x1\n", 2, ("operator", "end of input"), "\n"),  # blanks are spaces and tabs
        ("sin(x1", 6, (")",), ""),
    ]:
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr(text, V2)
        assert (ei.value.position, ei.value.expected, ei.value.found) == (
            position, expected, found), text


@pytest.mark.parametrize("text, ok", [
    ("x", True), ("_z1", True), ("é", True), ("x²", True), ("sin", True),
    ("2x", False), ("²", False), ("٣", False), ("x y", False), ("x1, x2", False),
    (" x", False), ("", False),
])
def test_is_identifier(text, ok):
    assert is_identifier(text) is ok


def test_domain_errors():
    assert evaluate(parse_expr("abs(x1)", V2), [-3.0, 0.0]) == 3.0
    for src, x in [("log(x1)", [-1.0, 0]), ("sqrt(x1)", [0.0, 0]),
                   ("x2 / x1", [0.0, 1.0]), ("x1^-1", [0.0, 0])]:
        with pytest.raises(DomainError):
            evaluate(parse_expr(src, V2), x)
    with pytest.raises(NondifferentiablePoint):
        grad(parse_expr("abs(x1)", V2), [0.0, 0.0])
    # math.sin raises ValueError at an infinity; that is the domain left too
    e = parse_expr("sin(1e300 * 1e300 * x1)", V2)
    with pytest.raises(DomainError):
        evaluate(e, [1.0, 0.0])
    assert np.isnan(eval_grid(e, np.array([[1.0], [0.0]]))[0])


def test_too_short_point_is_an_unknown_variable():
    e = parse_expr("x1 + x2", V2)
    for f in (evaluate, grad):
        with pytest.raises(UnknownVariable):
            f(e, [1.0])


def test_quartic_gradients():
    e = parse_expr(F1, V2)
    assert evaluate(e, [1.0, 0.0]) == pytest.approx(-1.0)
    np.testing.assert_allclose(grad(e, [0.5, 0.0]), [-1.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(grad(e, [1.0, 0.0]), [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(grad(e, [0.0, 0.0]), [0.0, 0.0], atol=1e-14)
    e2 = parse_expr(F2, V2)
    np.testing.assert_allclose(grad(e2, [1.0, 0.0]), [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(grad(e2, [0.5, 0.5]), [4 * 0.5 * -0.75, 2.0], atol=1e-14)


def test_quartic_curvature():
    # expected values: Hessian of F1 at the origin is diag(-4, 4),
    # at (1, 0) it is diag(8, 8); both derived by hand differentiation
    e = parse_expr(F1, V2)
    assert second_dir_deriv(e, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(-4.0)
    assert second_dir_deriv(e, [0.0, 0.0], [0.0, 1.0]) == pytest.approx(4.0)
    assert second_dir_deriv(e, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(hessian(e, [1.0, 0.0]), np.diag([8.0, 8.0]), atol=1e-12)
    np.testing.assert_allclose(hessian(parse_expr(F2, V2), [1.0, 0.0]),
                               np.diag([8.0, 4.0]), atol=1e-12)


def test_bilinear_curvature():
    # 2ab - 2a^2 - b^2 has constant Hessian [[-4, 2], [2, -2]]
    e = parse_expr("2*x1*x2 - 2*x1^2 - x2^2 + 8*x1 - 6*x2", V2)
    np.testing.assert_allclose(grad(e, [1.0, -1.0]), [2.0, -2.0], atol=1e-14)
    assert second_dir_deriv(e, [1.0, -1.0], [1.0, 1.0]) == pytest.approx(-2.0)
    r = 1.0 / math.sqrt(2.0)
    assert second_dir_deriv(e, [1.0, -1.0], [r, r]) == pytest.approx(-1.0)


def test_transcendental_derivatives():
    e = parse_expr("sin(x1) * exp(x2)", V2)
    x = [0.3, -0.2]
    np.testing.assert_allclose(
        grad(e, x),
        [math.cos(0.3) * math.exp(-0.2), math.sin(0.3) * math.exp(-0.2)],
        rtol=1e-14,
    )
    assert second_dir_deriv(e, x, [1.0, 1.0]) == pytest.approx(
        2.0 * math.cos(0.3) * math.exp(-0.2), rel=1e-13
    )
    q = parse_expr("x1 / x2", V2)
    assert second_dir_deriv(q, [1.0, 2.0], [1.0, 1.0]) == pytest.approx(-0.25)
    assert second_dir_deriv(parse_expr("log(x1)", ("x1",)), [2.0], [1.0]) == pytest.approx(-0.25)
    assert second_dir_deriv(parse_expr("sqrt(x1)", ("x1",)), [4.0], [1.0]) == pytest.approx(-1 / 32)


def test_zero_direction_is_zero():
    for src in (F1, "sin(x1)*x2", "abs(x1)"):
        e = parse_expr(src, V2)
        assert second_dir_deriv(e, [0.0, 0.0], [0.0, 0.0]) == 0.0


def test_limit_quotient_matches_jet():
    cases = [
        (F1, [0.3, -0.4], [1.0, 0.5]),
        (F2, [1.0, 0.0], [0.0, 1.0]),
        ("sin(x1)*exp(x2)", [0.3, -0.2], [1.0, 1.0]),
        ("x1/x2 + log(x2)", [1.0, 2.0], [-1.0, 1.0]),
    ]
    for src, x, d in cases:
        e = parse_expr(src, V2)
        est, bound = second_dir_deriv_limit(e, x, d)
        exact = second_dir_deriv(e, x, d)
        assert abs(est - exact) <= max(bound, 1e-9 * (1 + abs(exact)))


def test_limit_quotient_exact_on_quadratics():
    e = parse_expr("3*x1^2 - x1*x2 + 0.5*x2^2", V2)
    est, bound = second_dir_deriv_limit(e, [0.7, -0.3], [1.0, 2.0])
    # quotient is constant in t for quadratics
    assert bound <= 1e-9
    assert est == pytest.approx(second_dir_deriv(e, [0.7, -0.3], [1.0, 2.0]), abs=1e-9)


def test_eval_grid_matches_scalar_eval():
    e = parse_expr(F1, V2)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(2, 50))
    vals = eval_grid(e, X)
    for k in range(X.shape[1]):
        assert vals[k] == pytest.approx(evaluate(e, X[:, k]), rel=1e-13)


def test_eval_grid_masks_domain_violations():
    vals = eval_grid(parse_expr("log(x1)", V2), np.array([[-1.0, 1.0], [0.0, 0.0]]))
    assert not np.isfinite(vals[0]) and vals[1] == 0.0


# --- round trip -------------------------------------------------------------

_leaf = st.one_of(
    st.integers(0, 9).map(lambda n: Const(float(n))),
    st.floats(0.0, 50.0, allow_nan=False).map(Const),
    st.sampled_from([Var(0, "x1"), Var(1, "x2")]),
)


def _inner(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: Call(t[0], t[1])
        ),
    )


_trees = st.recursive(_leaf, _inner, max_leaves=25)


def _inner_with_domains(children):
    return st.one_of(
        _inner(children),
        st.tuples(st.sampled_from(["log", "sqrt"]), children).map(lambda t: Call(t[0], t[1])),
        st.tuples(children, st.integers(-3, -1)).map(lambda t: Pow(t[0], t[1])),
    )


_domain_trees = st.recursive(_leaf, _inner_with_domains, max_leaves=25)


def _subtrees(tree):
    yield tree
    for child in vars(tree).values():
        if isinstance(child, (Const, Var, Neg, Call, BinOp, Pow)):
            yield from _subtrees(child)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(tree):
    assert parse_expr(to_text(tree), V2) == tree


@given(_trees, st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_print_preserves_value(tree, a, b):
    x = [a, b]
    try:
        v1 = evaluate(tree, x)
    except DomainError:
        return
    v2 = evaluate(parse_expr(to_text(tree), V2), x)
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


@given(_trees, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 3.0))
@example(Call("exp", Pow(Const(6.0), 4)), 0.0, 0.0, 1.0, 0.0, 1.0)  # exp(1296) overflows
@settings(max_examples=150, deadline=None)
def test_second_derivative_scales_quadratically(tree, a, b, d1, d2, t):
    x, d = [a, b], np.array([d1, d2])
    try:
        q1 = second_dir_deriv(tree, x, d)
        q2 = second_dir_deriv(tree, x, t * d)
    except (DomainError, NondifferentiablePoint):
        return
    if math.isfinite(q1) and math.isfinite(q2):
        assert q2 == pytest.approx(t * t * q1, rel=1e-9, abs=1e-9 * (1 + abs(q1)))


@given(_domain_trees, st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1))
@example(Pow(BinOp("/", Var(0, "x1"), Var(1, "x2")), 2), 1.0, 1e-308, 0.0)  # jet overflow
@settings(max_examples=300, deadline=None)
def test_domain_rules_agree_across_arithmetics(tree, a, b, d2):
    x = [a, b]
    try:
        evaluate(tree, x)
    except DomainError:
        # the grid marks the failing node non-finite; IEEE may absorb that
        # further up (exp(-inf) = 0), so look at every node
        X = np.array([[a], [b]])
        assert not all(np.isfinite(eval_grid(t, X)[0]) for t in _subtrees(tree))
        with pytest.raises(ExprError):
            second_dir_deriv(tree, x, [1.0, d2])


@given(_domain_trees, st.floats(-2, 2), st.floats(-2, 2))
@example(Call("log", Var(1, "x2")), 0.0, 3e-166)  # the log jet's a * a underflows to 0
@settings(max_examples=100, deadline=None)
def test_evaluation_leaves_equality_hash_and_text_unchanged(tree, a, b):
    twin = parse_expr(to_text(tree), V2)
    before = (tree == twin, hash(tree), hash(twin), repr(tree))
    for f in (lambda: evaluate(tree, [a, b]), lambda: grad(tree, [a, b]),
              lambda: eval_grid(tree, np.array([[a], [b]]))):
        try:
            f()
        except ExprError:
            pass
    assert (tree == twin, hash(tree), hash(twin), repr(tree)) == before
    assert parse_expr(to_text(tree), V2) == tree
