"""Whitelisted expression parsing for problem files."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import expressions, geometry
from klab.errors import ExpressionError


def test_basic_arithmetic():
    e = expressions.parse_expression("2*x + y^2 - 1", dim=2)
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert np.allclose(e(pts), [2.0 + 4.0 - 1.0, 1.0 + 1.0 - 1.0])


def test_functions_and_pi():
    e = expressions.parse_expression("sin(pi*x)*cos(pi*y)", dim=2)
    pts = np.array([[0.5, 0.0], [0.25, 1.0]])
    expect = np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    assert np.allclose(e(pts), expect)


def test_three_dimensional():
    e = expressions.parse_expression("x*y*z + sqrt(abs(z))", dim=3)
    pts = np.array([[1.0, 2.0, 4.0]])
    assert e(pts)[0] == pytest.approx(8.0 + 2.0)


def test_unary_and_division():
    e = expressions.parse_expression("-x / (1 + y)", dim=2)
    assert e(np.array([[2.0, 1.0]]))[0] == pytest.approx(-1.0)


def test_constant_broadcast():
    e = expressions.parse_expression("3.5", dim=2)
    out = e(np.zeros((7, 2)))
    assert out.shape == (7,)
    assert np.all(out == 3.5)


def test_polar_frame(lshape):
    frame = expressions.polar_frame(lshape, 0)
    e = expressions.parse_expression("r^(2/3)*sin(2*theta/3)", dim=2,
                                     polar=frame)
    # at angle theta and radius r from the reentrant corner
    r, th = 0.5, 1.0
    v, n1, n2, _ = geometry.corner_frame(lshape, 0)
    p = np.asarray(v) + r * (math.cos(th) * np.asarray(n1)
                             + math.sin(th) * np.asarray(n2))
    val = e(p[None, :])[0]
    assert val == pytest.approx(r ** (2.0 / 3.0) * math.sin(2.0 * th / 3.0),
                                rel=1e-12)


def test_polar_names_need_frame():
    with pytest.raises(ExpressionError):
        expressions.parse_expression("r*theta", dim=2)


def test_polar_frame_is_2d_only(box):
    with pytest.raises(ExpressionError):
        expressions.polar_frame(box, 0)


def test_rejects_unknown_names():
    with pytest.raises(ExpressionError):
        expressions.parse_expression("q + 1", dim=2)
    with pytest.raises(ExpressionError):
        expressions.parse_expression("z", dim=2)
    with pytest.raises(ExpressionError):
        expressions.parse_expression("sinh(x)", dim=2)
    # a function name is only allowed as the callee of a call
    with pytest.raises(ExpressionError):
        expressions.parse_expression("sin + 1", dim=2)


def test_rejects_calls_and_attributes():
    for bad in ("__import__('os')", "x.real", "[1,2][0]", "x if y else 1",
                "lambda p: p", "x @ y", "f(x)(y)"):
        with pytest.raises(ExpressionError):
            expressions.parse_expression(bad, dim=2)


def test_rejects_malformed():
    with pytest.raises(ExpressionError):
        expressions.parse_expression("2*(x", dim=2)
    with pytest.raises(ExpressionError):
        expressions.parse_expression("", dim=2)
    with pytest.raises(ExpressionError):
        expressions.parse_expression("1" + "0" * 400, dim=2)


def test_vector_expression():
    v = expressions.parse_vector(["x", "-y"], dim=2)
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = v(pts)
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1.0, -2.0], [3.0, -4.0]])
    with pytest.raises(ExpressionError):
        expressions.parse_vector(["x"], dim=2)
    with pytest.raises(ExpressionError):
        expressions.parse_vector(["x", "y", "x"], dim=2)


def test_caret_rewrite():
    e = expressions.parse_expression("x^3", dim=2)
    assert e(np.array([[2.0, 0.0]]))[0] == 8.0


def test_fractional_power_of_negative_base():
    e = expressions.parse_expression("x^(1/3)", dim=2)
    with np.errstate(invalid="ignore"):
        out = e(np.array([[-1.0, 0.0]]))
    # numpy power of a negative base with fractional exponent is nan;
    # the parser leaves the semantics to the evaluator
    assert np.isnan(out[0])


def test_dimension_guard():
    with pytest.raises(ExpressionError):
        expressions.parse_expression("x", dim=1)


@pytest.mark.parametrize("text, polar_used", [
    ("0", False), ("x*y + 1", False), ("r^(2/3)*sin(2*theta/3)", True),
    ("theta", True)])
def test_polar_frame_evaluated_only_when_named(monkeypatch, lshape, text,
                                               polar_used):
    frame = expressions.polar_frame(lshape, 0)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 2))
    calls = []
    evaluate = expressions.PolarFrame.evaluate

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(expressions.PolarFrame, "evaluate", counted)
    got = expressions.parse_expression(text, 2, frame)(pts)
    assert calls == ([50] if polar_used else [])
    if not polar_used:
        want = expressions.parse_expression(text, 2)(pts)
    else:
        r, theta = evaluate(frame, pts)
        want = (r ** (2.0 / 3.0) * np.sin(2.0 * theta / 3.0)
                if "r" in text else theta)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("text, want", [
    ("0", 0.0), ("-0", 0.0), ("1-1", 0.0), ("0*pi", 0.0),
    ("2*pi^2", 2.0 * math.pi ** 2), ("0*x", None), ("r", None),
    ("theta - theta", None)])
def test_constant_of_coordinate_free_trees(lshape, text, want):
    """constant is the value of a tree that names no coordinate; "0*x"
    and the polar names stay non-constant whatever they evaluate to."""
    e = expressions.parse_expression(text, 2, expressions.polar_frame(lshape, 0))
    assert e.constant == want
    if want is not None:
        assert type(e.constant) is float
        assert np.array_equal(e(np.zeros((3, 2))), np.full(3, want))


def test_parsing_constants_never_warns():
    """A constant tree is evaluated at parse time with every floating
    point warning silenced; the value is the one evaluation gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {t: expressions.parse_expression(t, 2).constant
               for t in ("1/0", "log(0)", "sqrt(-1)")}
    assert got["1/0"] == math.inf and got["log(0)"] == -math.inf
    assert math.isnan(got["sqrt(-1)"])


_COMPONENTS = ["x*y + 1", "sin(pi*x) - y", "3.5", "0", "exp(-x^2 - y^2)"]
_POLAR_COMPONENTS = ["r^(2/3)*sin(2*theta/3)", "theta",
                     "-(2/3)*r^(-1/3)*sin(theta/3)", "r*x"]


@settings(deadline=None, max_examples=40)
@given(st.booleans(),
       st.data(),
       st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_vector_expression_evaluates_one_environment(lshape, with_frame, data,
                                                     n, seed):
    """Each column is its component's own call, bit for bit, and the
    polar frame is evaluated once when any component names r or theta
    (never otherwise); a point array that is not (N, 2) is rejected."""
    texts = data.draw(st.lists(st.sampled_from(
        _COMPONENTS + (_POLAR_COMPONENTS if with_frame else [])),
        min_size=1, max_size=4))
    frame = expressions.polar_frame(lshape, 0) if with_frame else None
    comps = [expressions.parse_expression(t, 2, frame) for t in texts]
    vec = expressions.VectorExpression(comps)
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
    calls = []
    evaluate = expressions.PolarFrame.evaluate

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expressions.PolarFrame, "evaluate", counted)
        got = vec(pts)
    polar = with_frame and any(t in _POLAR_COMPONENTS for t in texts)
    assert calls == ([n] if polar else [])
    assert got.shape == (n, len(comps))
    for j, comp in enumerate(comps):
        assert got[:, j].tobytes() == comp(pts).tobytes()
    for bad in (pts[:, :1], pts.ravel(), np.zeros((n, 3))):
        with pytest.raises(ExpressionError):
            vec(bad)
