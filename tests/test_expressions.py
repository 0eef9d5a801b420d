"""Whitelisted expression parsing for problem files."""

import math

import numpy as np
import pytest

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
