"""Distance weights to the singular set and regularized equivalents.

The primary weight eta is the Euclidean distance to the singular set:
the corner points of a polygon, the closed edges (hence also the
corners) of a polyhedron. Norm machinery uses eta directly; its
gradient is the unit vector away from the nearest singular point, so
eta * |grad eta| = eta / eta is exactly one almost everywhere.

The regularized weight r_omega is built from smoothed distances. The
smoothing clamp rho_smooth is the C1 monotone function

    rho_smooth(rho) = rho                         for rho <= s,
    rho_smooth(rho) = rho / 2 + s - s^2 / (2 rho) for rho > s,

which satisfies rho / 2 <= rho_smooth(rho) <= rho everywhere, matches
value and slope at rho = s, and has slope 1/2 + s^2 / (2 rho^2) bounded
between 1/2 and 1. In 2D r_omega is the smoothed corner distance. In 3D
it is a product rho0_s * rho1_s where rho0 is the distance to the
vertex set and rho1 is the geodesic distance to the singular edges in
the metric scaled by 1 / rho0_s, computed by multi-source Dijkstra on
the mesh edge graph; rho1 is dimensionless, of the order of the angle
subtended at the nearest vertex. The product is equivalent to eta with
constants certified by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from . import kernels
from .config import SINGULAR_NODE_TOL
from .errors import GeometryError, NonpositiveWeightError
from .geometry import Polyhedron
from .mesh import SimplicialMesh, element_faces

DEFAULT_S1 = 0.25
# Mesh nodes through which rho1 is relaxed at an arbitrary point; nodes
# tied in distance with the last of them are taken too, so the value does
# not depend on how a search orders equidistant nodes.
RHO1_NEIGHBOURS = 8


def distance_to_vertices(domain: Polyhedron, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d, _ = kernels.nearest_points(pts, domain.vertices)
    return d


@dataclass
class EtaField:
    """Distance to the singular set, with exact unit gradient: the one
    place that set (polygon corners, polyhedron edges) is measured."""

    domain: Polyhedron

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._nearest(points)[0]

    def on_singular_set(self, points: np.ndarray) -> np.ndarray:
        """Mask of the points within SINGULAR_NODE_TOL of the singular set."""
        return self(points) <= SINGULAR_NODE_TOL

    def _nearest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to and coordinates of the nearest singular point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.domain.dimension == 2:
            d, idx = kernels.nearest_points(pts, self.domain.vertices)
            return d, self.domain.vertices[idx]
        segs = self.domain.singular_segments()
        d, nearest, _ = kernels.nearest_on_segments(pts, segs[:, 0], segs[:, 1])
        return d, nearest

    def grad_over_value(self, points: np.ndarray) -> np.ndarray:
        """grad(eta) / eta; the squared norm of this is 1 / eta^2."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, nearest = self._nearest(pts)
        if np.any(d <= 0.0):
            raise NonpositiveWeightError("grad_over_value evaluated on the singular set")
        return (pts - nearest) / d[:, None] / d[:, None]


def eta_field(domain: Polyhedron) -> EtaField:
    return EtaField(domain)


def rho_smooth(rho: np.ndarray, scale: float) -> np.ndarray:
    """C1 monotone clamp with rho / 2 <= rho_smooth <= rho."""
    if scale <= 0.0:
        raise NonpositiveWeightError("smoothing scale must be positive")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise NonpositiveWeightError("distance input to rho_smooth is negative")
    big = rho > scale
    out = rho.copy()
    rb = rho[big]
    out[big] = rb / 2.0 + scale - scale * scale / (2.0 * rb)
    return out


def default_smoothing_scale(domain: Polyhedron) -> float:
    """A quarter of the smallest gap between non-incident singular faces."""
    return 0.25 * domain.min_singular_separation()


@dataclass
class RomegaField:
    """Regularized weight equivalent to the singular-set distance.

    2D: smoothed corner distance. 3D: product of the smoothed vertex
    distance and the smoothed scaled geodesic distance to the singular
    edges; the latter is carried on mesh nodes and extended to
    arbitrary points by straight-segment estimates relaxed through
    nearby nodes.
    """

    domain: Polyhedron
    s0: float
    s1: float | None = None
    mesh: SimplicialMesh | None = None
    node_rho1_raw: np.ndarray | None = field(default=None, repr=False)

    def rho0(self, points: np.ndarray) -> np.ndarray:
        return rho_smooth(distance_to_vertices(self.domain, points), self.s0)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.domain.dimension == 2:
            return self.rho0(pts)
        # Both factors are 0 at a vertex.
        return self.rho0(pts) * self.rho1(pts)

    def rho1(self, points: np.ndarray) -> np.ndarray:
        if self.domain.dimension == 2:
            raise ValueError("rho1 is defined for 3D domains only")
        return rho_smooth(self._rho1_raw(points), self.s1)

    def _segment_cost(self, starts: np.ndarray, ends: np.ndarray,
                      samples: int = 8) -> np.ndarray:
        """Approximate integral of ds / rho0_s along straight segments."""
        t = (np.arange(samples) + 0.5) / samples
        lengths = np.linalg.norm(ends - starts, axis=1)
        cost = np.zeros(len(starts))
        for tk in t:
            mid = starts + tk * (ends - starts)
            cost += 1.0 / self.rho0(mid)
        return cost * lengths / samples

    def _near_nodes(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point row, node) pairs: the RHO1_NEIGHBOURS nearest mesh nodes
        of every point and every node tied with the last of them."""
        # Imported here: scipy.spatial adds about 0.1 s to the start of
        # every process, and only 3D weights need it.
        from scipy.spatial import cKDTree

        nodes = self.mesh.nodes
        k = min(RHO1_NEIGHBOURS, len(nodes))
        tree = cKDTree(nodes)
        rows, near = [], []
        todo = np.arange(len(pts))
        width = min(k + 1, len(nodes))
        while True:
            # A list of ranks keeps the (P, width) shape, width 1 included.
            dist, idx = tree.query(pts[todo], list(range(1, width + 1)))
            keep = dist <= dist[:, k - 1:k]
            # A point whose last column still ties is searched wider.
            done = ~keep[:, -1] | (width == len(nodes))
            r, c = np.nonzero(keep[done])
            rows.append(todo[done][r])
            near.append(idx[done][r, c])
            todo = todo[~done]
            if not len(todo):
                return np.concatenate(rows), np.concatenate(near)
            width = min(2 * width, len(nodes))

    def _rho1_raw(self, points: np.ndarray) -> np.ndarray:
        """Cheapest of the straight path to the nearest edge point and
        the straight paths to nearby nodes plus their Dijkstra cost.

        0 where rho0 is 0: a vertex lies on the singular edges, and the
        path from it to itself would cost 0 * inf.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts))
        away = self.rho0(pts) > 0.0
        pts = pts[away]
        segs = self.domain.singular_segments()
        _, nearest, _ = kernels.nearest_on_segments(pts, segs[:, 0], segs[:, 1])
        best = self._segment_cost(pts, nearest)
        rows, near = self._near_nodes(pts)
        via = np.full(len(pts), np.inf)
        np.minimum.at(via, rows, self.node_rho1_raw[near] + self._segment_cost(
            pts[rows], self.mesh.nodes[near]))
        out[away] = np.minimum(best, via)
        return out


def romega_field(domain: Polyhedron,
                 mesh: SimplicialMesh | None = None) -> RomegaField:
    s0 = default_smoothing_scale(domain)
    if domain.dimension == 2:
        return RomegaField(domain, s0=s0)
    if mesh is None:
        raise ValueError("3D regularized weight needs a mesh for the edge metric")
    w = RomegaField(domain, s0=s0, s1=DEFAULT_S1, mesh=mesh)
    w.node_rho1_raw = _node_rho1(domain, mesh, w)
    return w


def _node_rho1(domain: Polyhedron, mesh: SimplicialMesh, w: RomegaField) -> np.ndarray:
    """Multi-source Dijkstra to the singular edges in the 1/rho0_s metric."""
    nodes = mesh.nodes
    pairs, _ = element_faces(mesh.elements, len(nodes), 2)
    mids = 0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]])
    lengths = np.linalg.norm(nodes[pairs[:, 1]] - nodes[pairs[:, 0]], axis=1)
    costs = lengths / w.rho0(mids)
    # dijkstra(directed=False) walks each edge both ways
    graph = sp.csr_matrix((costs, (pairs[:, 0], pairs[:, 1])),
                          shape=(len(nodes), len(nodes)))
    sources = np.where(EtaField(domain).on_singular_set(nodes))[0]
    if not len(sources):
        raise GeometryError("mesh has no nodes on the singular edges")
    dist = dijkstra(graph, directed=False, indices=sources, min_only=True)
    if np.any(~np.isfinite(dist)):
        raise GeometryError("mesh edge graph is disconnected")
    return dist


# ---------------------------------------------------------------------
# power weights for assembly
# ---------------------------------------------------------------------


def power_weight(base_field, exponent: float):
    """Callable base(x) ** exponent with a nonpositivity guard.

    With a negative exponent the base must stay positive at every point
    the callable sees; quadrature rules with interior points guarantee
    that for distance weights.
    """

    def w(points):
        vals = np.asarray(base_field(points), dtype=float)
        if exponent < 0.0 and np.any(vals <= 0.0):
            raise NonpositiveWeightError(
                "weight base vanishes where a negative power is required")
        return vals ** exponent

    return w


# ---------------------------------------------------------------------
# sampling and certification
# ---------------------------------------------------------------------


def halton(n: int, dim: int, start: int = 1) -> np.ndarray:
    """Halton low-discrepancy points in [0, 1]^dim (bases 2, 3, 5)."""
    bases = (2, 3, 5)[:dim]
    out = np.empty((n, dim))
    for j, b in enumerate(bases):
        # Radical inverse, one digit of every index per pass. Finished
        # indices add f * 0 = 0.0, so each entry sees the same float
        # operations as a digit loop run on its own index.
        k = np.arange(start, start + n, dtype=np.int64)
        inv = np.zeros(n)
        f = 1.0 / b
        while k.any():
            inv += f * (k % b)
            k //= b
            f /= b
        out[:, j] = inv
    return out


def sample_interior(domain: Polyhedron, n: int) -> np.ndarray:
    """n Halton points farther than 1e-9 from the boundary."""
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    out: list = []
    start = 1
    while len(out) < n:
        cand = lo + halton(4 * n, domain.dimension, start=start) * (hi - lo)
        start += 4 * n
        keep = domain.contains(cand) & (domain.boundary_distance(cand) > 1e-9)
        out.extend(cand[keep][: n - len(out)])
        if start > 400 * n:
            raise GeometryError("interior sampling failed; domain volume too small")
    return np.array(out)


@dataclass
class EquivalenceReport:
    """Sampled two-sided comparison of a weight against eta."""

    lower: float
    upper: float
    n_points: int
    argmin: tuple
    argmax: tuple
    s0: float
    s1: float | None

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "n_points": self.n_points,
            "argmin": list(self.argmin),
            "argmax": list(self.argmax),
            "s0": self.s0,
            "s1": self.s1,
        }


def certify_equivalence(domain: Polyhedron, mesh: SimplicialMesh | None = None,
                        n: int = 2048) -> EquivalenceReport:
    """Sampled bounds c_low <= r_omega / eta <= c_high on the interior."""
    weight = romega_field(domain, mesh=mesh)
    pts = sample_interior(domain, n)
    eta = EtaField(domain)(pts)
    w = weight(pts)
    if np.any(w <= 0.0):
        raise NonpositiveWeightError("regularized weight is nonpositive at a sample")
    ratio = w / eta
    i_min, i_max = int(np.argmin(ratio)), int(np.argmax(ratio))
    return EquivalenceReport(
        lower=float(ratio[i_min]),
        upper=float(ratio[i_max]),
        n_points=len(pts),
        argmin=tuple(float(c) for c in pts[i_min]),
        argmax=tuple(float(c) for c in pts[i_max]),
        s0=weight.s0,
        s1=weight.s1,
    )
