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
between 1/2 and 1. In 2D r_omega is the smoothed corner distance, so
1/2 <= r_omega / eta <= 1. In 3D it is the closed form

    r_omega = rho_smooth(rho0, s0) * rho_smooth(t, s1),   t = eta / rho0,

where rho0 is the distance to the vertex set and t is taken as 0 at the
vertices. The vertices lie on the singular edges, so eta <= rho0 and t
lies in [0, 1]; near a vertex t is the sine of the angle to the nearest
edge there. The clamp bounds on each factor give 1/4 <= r_omega / eta
<= 1 on every domain, with no mesh; `certify_equivalence` samples the
ratio to report where in that interval a domain lies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import SINGULAR_NODE_TOL
from .errors import GeometryError, NonpositiveWeightError
from .geometry import Polyhedron

DEFAULT_S1 = 0.25


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
    distance and the smoothed ratio t = eta / rho0 (0 at the vertices).
    """

    domain: Polyhedron
    s0: float
    s1: float | None = None

    def rho0(self, points: np.ndarray) -> np.ndarray:
        return rho_smooth(distance_to_vertices(self.domain, points), self.s0)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.domain.dimension == 2:
            return self.rho0(pts)
        # Both factors are 0 at a vertex.
        return self.rho0(pts) * self.rho1(pts)

    def rho1(self, points: np.ndarray) -> np.ndarray:
        """rho_smooth(eta / rho0, s1), and 0 where rho0 is 0.

        The vertices lie on the singular edges, so eta <= rho0 and the
        ratio lies in [0, 1]: near a vertex it is the sine of the angle
        to the nearest edge there.
        """
        if self.domain.dimension == 2:
            raise ValueError("rho1 is defined for 3D domains only")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho0 = distance_to_vertices(self.domain, pts)
        ratio = np.zeros(len(pts))
        away = rho0 > 0.0
        ratio[away] = EtaField(self.domain)(pts[away]) / rho0[away]
        return rho_smooth(ratio, self.s1)


def romega_field(domain: Polyhedron) -> RomegaField:
    s1 = DEFAULT_S1 if domain.dimension == 3 else None
    return RomegaField(domain, s0=default_smoothing_scale(domain), s1=s1)


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
    """The first n Halton points of the bounding box that lie in the
    domain farther than 1e-9 from its boundary; GeometryError when the
    first 400 n points hold fewer."""
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    out = [np.empty((0, domain.dimension))]
    found, start = 0, 1
    while found < n:
        if start > 400 * n:
            raise GeometryError("interior sampling failed; domain volume too small")
        count = min(2 * (n - found), 400 * n + 1 - start)
        cand = lo + halton(count, domain.dimension, start=start) * (hi - lo)
        start += count
        keep = domain.contains(cand)
        # A face lies in its plane, so only a point within 1e-8 of a face
        # plane can lie within 1e-9 of the boundary.
        near = np.flatnonzero(keep)
        near = near[domain.face_plane_distance(cand[near]) <= 1e-8]
        keep[near] = domain.boundary_distance(cand[near]) > 1e-9
        out.append(cand[keep][: n - found])
        found += len(out[-1])
    return np.concatenate(out)


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


def certify_equivalence(domain: Polyhedron, n: int = 2048) -> EquivalenceReport:
    """Sampled bounds c_low <= r_omega / eta <= c_high on the interior."""
    weight = romega_field(domain)
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
