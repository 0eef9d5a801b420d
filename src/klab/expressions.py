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


def _env(points: np.ndarray, dim: int, polar: PolarFrame | None,
         names) -> dict:
    """Names bound at an (N, dim) point array: the coordinates, and r and
    theta (one frame evaluation) when a polar frame is given and names
    asks for either."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ExpressionError(
            f"expected an (N, {dim}) point array, got shape {pts.shape}")
    env = dict(_CONSTANTS)
    for i in range(dim):
        env[_AXES[i]] = pts[:, i]
    if polar is not None and names & {"r", "theta"}:
        env["r"], env["theta"] = polar.evaluate(pts)
    return env


class Expression:
    """Parsed expression; calling it evaluates on an (N, d) point array.

    constant is the value of an expression that names no coordinate
    (x, y, z, r or theta), else None.
    """

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
        # Parsing never warns: a value such as 1/0 or log(0) is an error
        # only where a caller evaluates the expression.
        self.constant = None
        if not self.names & {*_AXES, "r", "theta"}:
            with np.errstate(all="ignore"):
                self.constant = float(self._eval(self._tree, _CONSTANTS))

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
            try:
                float(node.value)
            except OverflowError as exc:
                raise ExpressionError(
                    f"numeric literal in {self.source!r} is too large") from exc
            return
        if isinstance(node, ast.Name):
            if node.id not in self._allowed_names():
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
        env = _env(points, self.dim, self.polar, self.names)
        return self._values(env, len(env["x"]))

    def _values(self, env: dict, n: int) -> np.ndarray:
        out = self._eval(self._tree, env)
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
    """Tuple of expressions evaluated into an (N, k) array.

    The components share the first one's dimension and polar frame
    (parse_vector compiles them so); every component is evaluated on
    one set of bound names, so the frame is evaluated at most once per
    call.
    """

    def __init__(self, components):
        self.components = tuple(components)
        self.dim = self.components[0].dim
        self.polar = self.components[0].polar
        self.names = frozenset().union(*(c.names for c in self.components))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        env = _env(points, self.dim, self.polar, self.names)
        n = len(env["x"])
        return np.stack([c._values(env, n) for c in self.components], axis=1)


def parse_vector(texts, dim: int,
                 polar: PolarFrame | None = None) -> VectorExpression:
    """Compile a list of component expressions, one per coordinate."""
    if not isinstance(texts, (list, tuple)) or len(texts) != dim:
        raise ExpressionError(
            f"vector expression needs exactly {dim} components")
    return VectorExpression(parse_expression(t, dim, polar) for t in texts)
