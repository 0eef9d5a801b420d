"""Whitelisted closed-form expressions for problem files.

Problem specifications carry source terms, boundary data and exact
solutions as strings. The strings are parsed with the ast module and
evaluated against a fixed whitelist: arithmetic, a handful of
elementary functions, the constant pi, the Cartesian coordinates
x, y, z, and (when a polar frame is supplied) the polar pair r, theta
about a named corner. Nothing outside the whitelist evaluates, so a
problem file cannot run arbitrary code.

The caret is accepted as a power operator and rewritten to ** before
parsing; fractional powers require nonnegative bases.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ExpressionError
from .geometry import Polyhedron

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}

_UNARYOPS = {ast.UAdd: np.positive, ast.USub: np.negative}

_AXES = "xyz"


@dataclass(frozen=True)
class PolarFrame:
    """Polar coordinates about one corner of a polygon.

    theta is measured from the first incident edge direction n1 toward
    the interior normal n2 and reduced modulo 2 pi, so interior points
    near the corner get angles in (0, interior angle).
    """

    origin: tuple
    n1: tuple
    n2: tuple

    def evaluate(self, points: np.ndarray):
        rel = np.asarray(points, dtype=float) - np.asarray(self.origin)
        u = rel @ np.asarray(self.n1)
        v = rel @ np.asarray(self.n2)
        r = np.hypot(u, v)
        theta = np.mod(np.arctan2(v, u), 2.0 * math.pi)
        return r, theta


def polar_frame(domain: Polyhedron, vertex_idx: int) -> PolarFrame:
    """Frame for r, theta about the given polygon corner."""
    if domain.dimension != 2:
        raise ExpressionError(
            "polar coordinates are available for two-dimensional domains only")
    if not 0 <= vertex_idx < len(domain.vertices):
        raise ExpressionError(f"polar vertex index {vertex_idx} out of range")
    origin, n1, n2, _ = geometry.corner_frame(domain, vertex_idx)
    return PolarFrame(origin=tuple(float(c) for c in origin),
                      n1=tuple(float(c) for c in n1),
                      n2=tuple(float(c) for c in n2))


class Expression:
    """Parsed expression; calling it evaluates on an (N, d) point array."""

    def __init__(self, source: str, dim: int, polar: PolarFrame | None = None):
        self.source = source
        self.dim = dim
        self.polar = polar
        try:
            tree = ast.parse(source.replace("^", "**"), mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from exc
        self._tree = tree.body
        self.names = frozenset(node.id for node in ast.walk(self._tree)
                               if isinstance(node, ast.Name))
        self._validate(self._tree)

    def _allowed_names(self):
        allowed = set(_CONSTANTS) | set(_AXES[:self.dim])
        if self.polar is not None:
            allowed |= {"r", "theta"}
        return allowed

    def _validate(self, node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(
                    f"only numeric literals are allowed, got {node.value!r}")
            return
        if isinstance(node, ast.Name):
            if node.id not in self._allowed_names() and node.id not in _FUNCTIONS:
                raise ExpressionError(
                    f"unknown name {node.id!r} in {self.source!r} "
                    f"(allowed: {sorted(self._allowed_names())})")
            return
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ExpressionError(
                    f"operator {type(node.op).__name__} is not allowed")
            self._validate(node.left)
            self._validate(node.right)
            return
        if isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARYOPS:
                raise ExpressionError(
                    f"operator {type(node.op).__name__} is not allowed")
            self._validate(node.operand)
            return
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _FUNCTIONS):
                raise ExpressionError("only whitelisted function calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(
                    f"{node.func.id} takes exactly one positional argument")
            self._validate(node.args[0])
            return
        raise ExpressionError(
            f"syntax {type(node).__name__} is not allowed in expressions")

    def _env(self, points: np.ndarray) -> dict:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ExpressionError(
                f"expected an (N, {self.dim}) point array, got shape {pts.shape}")
        env = dict(_CONSTANTS)
        for i in range(self.dim):
            env[_AXES[i]] = pts[:, i]
        if self.polar is not None and self.names & {"r", "theta"}:
            env["r"], env["theta"] = self.polar.evaluate(pts)
        return env

    def _eval(self, node, env):
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](self._eval(node.left, env),
                                          self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return _UNARYOPS[type(node.op)](self._eval(node.operand, env))
        return _FUNCTIONS[node.func.id](self._eval(node.args[0], env))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        env = self._env(points)
        out = self._eval(self._tree, env)
        n = len(np.asarray(points))
        return np.broadcast_to(np.asarray(out, dtype=float), (n,)).copy()

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(text: str, dim: int,
                     polar: PolarFrame | None = None) -> Expression:
    """Validate and compile one expression string."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    if dim not in (2, 3):
        raise ExpressionError("expressions are defined for dimension 2 or 3")
    return Expression(text, dim, polar)


class VectorExpression:
    """Tuple of expressions evaluated into an (N, k) array."""

    def __init__(self, components):
        self.components = tuple(components)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        cols = [comp(points) for comp in self.components]
        return np.stack(cols, axis=1)


def parse_vector(texts, dim: int,
                 polar: PolarFrame | None = None) -> VectorExpression:
    """Compile a list of component expressions, one per coordinate."""
    if not isinstance(texts, (list, tuple)) or len(texts) != dim:
        raise ExpressionError(
            f"vector expression needs exactly {dim} components")
    return VectorExpression(parse_expression(t, dim, polar) for t in texts)
