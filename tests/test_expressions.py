import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from czmap.errors import EvalError, ExpressionSyntaxError, UnknownIdentifier
from czmap.expressions import (Expression, derive, evaluate,
                               parse_expression, to_string)


def ev(text, variables=(), **env):
    ast = parse_expression(text, variables)
    return float(evaluate(ast, env, text))


def test_basic_values():
    assert ev("sin(t)^2", ("t",), t=math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert ev("1/(y*y)", ("y",), y=2.0) == pytest.approx(0.25)
    assert ev("x^2 - y^2", ("x", "y"), x=1.0, y=2.0) == pytest.approx(-3.0)


def test_precedence():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("2 ^ 3 ^ 2") == 512.0          # right associative
    assert ev("-2 ^ 2") == 4.0               # unary minus binds tighter
    assert ev("2 ^ -1") == 0.5
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("pi", ()) == pytest.approx(math.pi)


def test_functions():
    assert ev("pow(2, 10)") == 1024.0
    assert ev("abs(-3)") == 3.0
    assert ev("sqrt(16)") == 4.0
    assert ev("exp(log(5))") == pytest.approx(5.0)


def test_print_parse_round_trip():
    for text in ("sin(t)^2", "1/(y*y)", "x^2 - y^2", "-x^2", "a - (b - c)",
                 "2*x + 3/(y + 1)", "pow(x, 2) - abs(-y)", "-(a + b)",
                 "x ^ 2 ^ 3", "(x ^ 2) ^ 3"):
        variables = ("t", "x", "y", "a", "b", "c")
        printed = to_string(parse_expression(text, variables))
        reprinted = to_string(parse_expression(printed, variables))
        assert printed == reprinted


def test_syntax_error_carries_column():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + * 2", ())
    assert err.value.position == 4


def test_unknown_identifier_suggests():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expression("sine(x)", ("x",))
    assert "sin" in err.value.suggestions
    with pytest.raises(UnknownIdentifier) as err:
        parse_expression("x1 + x3", ("x1", "x2"))
    assert "x1" in err.value.suggestions or "x2" in err.value.suggestions


def test_evaluation_errors_are_located():
    ast = parse_expression("1/(y*y)", ("y",))
    with pytest.raises(EvalError):
        evaluate(ast, {"y": 0.0}, "1/(y*y)")
    ast = parse_expression("sqrt(x)", ("x",))
    with pytest.raises(EvalError):
        evaluate(ast, {"x": -1.0}, "sqrt(x)")


def test_vectorized_evaluation():
    e = Expression("x^2 + y", ("x", "y"))
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(e(pts), [3.0, 13.0])


def test_symbolic_derivative_matches_finite_difference():
    e = Expression("sin(2*x)*exp(y/3) + x^3/(1 + y^2)", ("x", "y"))
    dx = e.partial(0)
    dy = e.partial(1)
    pts = np.array([[0.3, -0.2], [1.1, 0.7], [-0.4, 0.05]])
    h = 1e-6
    ex = np.zeros((3, 2))
    ex[:, 0] = h
    fd_x = (e(pts + ex) - e(pts - ex)) / (2 * h)
    fd_y = (e(pts + ex[:, ::-1]) - e(pts - ex[:, ::-1])) / (2 * h)
    assert np.allclose(dx(pts), fd_x, atol=1e-8)
    assert np.allclose(dy(pts), fd_y, atol=1e-8)


def test_derivative_of_power_with_variable_base():
    e = Expression("x^3", ("x",))
    d = e.partial(0)
    pts = np.array([[-2.0], [0.5]])
    assert np.allclose(d(pts), 3 * pts[:, 0] ** 2)


def test_substitute_scales_variables():
    e = Expression("sin(x)*y", ("x", "y"))
    scaled = e.dilated(0.5)
    pts = np.array([[1.0, 2.0], [0.2, -1.0]])
    assert np.allclose(scaled(pts), e(0.5 * pts))


_expr_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.9).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["x", "y"]))


@st.composite
def _expr_text(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_expr_leaf)
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    left = draw(_expr_text(depth=depth + 1))
    right = draw(_expr_text(depth=depth + 1))
    if op == "^":
        right = draw(st.sampled_from(["2", "3", "0.5"]))
    fn = draw(st.sampled_from(["", "sin", "cos", "exp", "abs", "sqrt"]))
    body = f"({left} {op} {right})"
    return f"{fn}{body}" if fn else body


@settings(max_examples=120, deadline=None)
@given(_expr_text())
def test_fuzzed_expressions_never_crash(text):
    """Grammar-valid inputs either evaluate or raise located errors."""
    try:
        ast = parse_expression(text, ("x", "y"))
    except ExpressionSyntaxError:
        return
    printed = to_string(ast)
    assert to_string(parse_expression(printed, ("x", "y"))) == printed
    try:
        evaluate(ast, {"x": 0.7, "y": 1.3}, text)
    except EvalError:
        pass


_point_value = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 800.0, math.inf, -math.inf,
                     math.nan]))
_point_batch = st.integers(0, 5).flatmap(
    lambda n: hnp.arrays(np.float64, (n, 2) if n else (2,),
                         elements=_point_value))


def _assert_same_as_tree_walk(source, points, variables=("x", "y")):
    """The compiled call returns the tree walk's bits or raises its error."""
    expr = Expression(source, variables)
    assert expr._compiled is not None
    env = {name: points[..., k] for k, name in enumerate(variables)}
    try:
        expected = evaluate(expr.ast, env, expr.text)
    except EvalError as err:
        with pytest.raises(EvalError) as got:
            expr(points)
        assert got.value.position == err.position
        return
    expected = np.broadcast_to(expected, points.shape[:-1])
    got = expr(points)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(_expr_text(), _point_batch)
def test_compiled_expression_matches_tree_walk(text, points):
    try:
        ast = parse_expression(text, ("x", "y"))
    except ExpressionSyntaxError:
        return
    _assert_same_as_tree_walk(text, points)
    # derivatives carry the negative literals that folding makes
    _assert_same_as_tree_walk(derive(ast, "x"), points)


@pytest.mark.parametrize("text, value", [
    ("1/(1/x)", 0.0),          # finite output, infinite intermediate
    ("log(x - x)", 1.0),
    ("sqrt(-x*x - 1)", 1.0),
    ("exp(1000*x)", 1.0),
    ("1/abs(x)", math.inf),    # infinite input, finite output
])
def test_compiled_expression_non_finite_intermediate(text, value):
    points = np.array([[value, 0.0], [0.5, 0.0]])
    with pytest.raises(EvalError):
        Expression(text, ("x", "y"))(points)
    _assert_same_as_tree_walk(text, points)


def test_compiled_call_skips_the_tree_walk(monkeypatch):
    import czmap.expressions as expressions

    e = Expression("sin(x)^2 + 1/(y*y)", ("x", "y"))
    pts = np.array([[0.3, 1.5], [1.1, 0.7]])
    expected = e(pts)

    def no_walk(*args):
        raise AssertionError("tree walk on a finite evaluation")

    monkeypatch.setattr(expressions, "evaluate", no_walk)
    assert e(pts).tobytes() == expected.tobytes()
