"""Singular-set decompositions and constructive Poincare constants.

The weighted Poincare inequality

    integral of u^2 / eta^2  <=  (kappa - 1) * integral of |grad u|^2

for zero-trace fields is certified by covering a neighborhood of the
singular set with canonical regions (corner sectors in 2D; edge
cylinders, vertex cones and vertex balls in 3D). Each region carries a
regional Hardy constant: an exact sector constant (theta / pi)^2 for
wedge-shaped regions, and the reciprocal of the first Dirichlet
eigenvalue of the spherical link for vertex balls. Away from the
regions the distance weight is bounded below and the plain Poincare
inequality takes over.

The module exposes both sides of the comparison: `constructive_kappa`
assembles the certified constant from regional pieces with explicit
provenance, while `variational_kappa` computes the sharp discrete
constant as a generalized eigenvalue on the zero-trace subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import femcore, geometry, kernels, sobolev, sphere, weights
from .errors import DecompositionError, DegenerateLinkError
from .femcore import FemField
from .geometry import Polyhedron
from .mesh import SimplicialMesh, free_prolongations

DEFAULT_SEED = 20240917
# (eps, delta) halvings build_decomposition tries before it gives up
MAX_HALVINGS = 20
ETA_MATCH_TOL = 1e-10
_SAMPLE_INSET = 1e-3


# ---------------------------------------------------------------------
# regional constants
# ---------------------------------------------------------------------


def sector_constant(theta: float) -> float:
    """Hardy constant (theta / pi)^2 of a wedge of opening theta.

    For u vanishing on both wedge walls, each arc {r = const} carries a
    1D Dirichlet Poincare inequality with eigenvalue (pi / theta)^2, so

        integral of u^2 / r^2  <=  (theta / pi)^2 integral of |grad u|^2.
    """
    if not 0.0 < theta <= 2.0 * math.pi:
        raise DecompositionError("wedge opening must lie in (0, 2 pi]")
    return (theta / math.pi) ** 2


def sector_factor(theta: float) -> float:
    """First-eigenvalue frequency pi / theta of the arc (0, theta)."""
    if theta <= 0.0:
        raise DecompositionError("wedge opening must be positive")
    return math.pi / theta


def sector_constant_fem(theta: float, n: int = 128) -> float:
    """Cross-check of sector_constant by a 1D eigensolve.

    Solves -v'' = lambda v on (0, theta) with P1 elements on n equal
    intervals and returns 1 / lambda_1. Agrees with the analytic
    constant to O(h^2).
    """
    if not 0.0 < theta <= 2.0 * math.pi:
        raise DecompositionError("wedge opening must lie in (0, 2 pi]")
    if n < 2:
        raise ValueError("need at least two intervals")
    h = theta / n
    m = n - 1
    stiff = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1)
             - np.diag(np.ones(m - 1), -1)) / h
    mass = (np.diag(np.full(m, 4.0)) + np.diag(np.ones(m - 1), 1)
            + np.diag(np.ones(m - 1), -1)) * (h / 6.0)
    lam = scipy.linalg.eigh(stiff, mass, eigvals_only=True,
                            subset_by_index=(0, 0))[0]
    return 1.0 / float(lam)


@dataclass
class CapConstant:
    """First Dirichlet eigenvalue of a spherical link and its Hardy constant.

    For u vanishing on the lateral cone boundary, every sphere
    {rho = const} carries the link eigenvalue lambda_1, giving

        integral of u^2 / rho^2  <=  (1 / lambda_1) integral of |grad u|^2

    over the solid cone, with no radial boundary terms.
    """

    value: float
    eigenvalue: float
    link_area: float
    levels: int
    dofs: int
    iterations: int

    def as_dict(self) -> dict:
        return {"value": self.value, "eigenvalue": self.eigenvalue,
                "link_area": self.link_area, "levels": self.levels,
                "dofs": self.dofs, "iterations": self.iterations,
                "provenance": "eigensolve"}


def cap_constant_from_link(link: sphere.SphericalPolygon,
                           levels: int = 4) -> CapConstant:
    """Hardy constant 1 / lambda_1 of a vertex link by surface FEM."""
    nodes, elements, boundary = sphere.refine_triangulation(link.triangles,
                                                            levels)
    if not boundary.any():
        raise DegenerateLinkError("link has no boundary (full sphere)")
    k_mat, m_mat = sphere.surface_p1_matrices(nodes, elements)
    free = np.where(~boundary)[0]
    if not len(free):
        raise DegenerateLinkError("link mesh has no interior nodes; "
                                  "increase the refinement level")
    k_ff = k_mat[free][:, free].tocsr()
    m_ff = m_mat[free][:, free].tocsr()
    lam, _, info = femcore.generalized_eig_extreme(k_ff, m_ff, which="min")
    return CapConstant(value=1.0 / lam, eigenvalue=lam,
                       link_area=link.area, levels=levels,
                       dofs=len(free), iterations=info["iterations"])


# ---------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------


def _radius(rel, n1, n2):
    return np.hypot(femcore.row_product(rel, n1),
                    femcore.row_product(rel, n2))


def _in_wedge(rel, n1, n2, r_max, theta):
    """0 < r < r_max and 0 < phi < theta for the polar coordinates (r,
    phi in [0, 2 pi)) of each row of rel in the frame (n1, n2); r_max is
    a scalar or one bound per row. The angle is taken only on the rows
    that pass the radius test. Coordinates are femcore.row_product
    projections, so a point's membership does not depend on how many
    points are tested with it."""
    x = femcore.row_product(rel, n1)
    y = femcore.row_product(rel, n2)
    r = np.hypot(x, y)
    ok = (r > 0.0) & (r < r_max)
    rows = np.flatnonzero(ok)
    phi = np.mod(np.arctan2(y[rows], x[rows]), 2.0 * np.pi)
    ok[rows] = (phi > 0.0) & (phi < theta)
    return ok


@dataclass
class SectorRegion:
    """Corner sector {0 < r < radius, 0 < phi < theta} of a polygon."""

    label: str
    vertex_id: int
    center: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    theta: float
    radius: float
    constant: float
    constant_provenance: str = "analytic"
    kind: str = "vertex_sector"

    def contains(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(points) - self.center
        return _in_wedge(rel, self.n1, self.n2, self.radius, self.theta)

    def radial_weight(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.linalg.norm(pts - self.center, axis=1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, span = _SAMPLE_INSET, 1.0 - 2.0 * _SAMPLE_INSET
        r = self.radius * np.sqrt(lo + span * rng.random(n))
        phi = self.theta * (lo + span * rng.random(n))
        return (self.center + r[:, None] * np.cos(phi)[:, None] * self.n1
                + r[:, None] * np.sin(phi)[:, None] * self.n2)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "vertex_id": self.vertex_id, "theta": self.theta,
                "radius": self.radius, "constant": self.constant,
                "provenance": self.constant_provenance}


@dataclass
class EdgeCylinderRegion:
    """Wedge shell around an edge: z in (eps, length - eps), 0 < r < delta."""

    label: str
    edge_id: int
    origin: np.ndarray
    axis: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    theta: float
    length: float
    eps: float
    delta: float
    constant: float
    constant_provenance: str = "analytic"
    kind: str = "edge_cylinder"

    @property
    def z_extent(self) -> float:
        return self.length - 2.0 * self.eps

    def contains(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(points) - self.origin
        z = femcore.row_product(rel, self.axis)
        ok = (z > self.eps) & (z < self.length - self.eps)
        rows = np.flatnonzero(ok)
        ok[rows] = _in_wedge(rel[rows], self.n1, self.n2, self.delta,
                             self.theta)
        return ok

    def radial_weight(self, points: np.ndarray) -> np.ndarray:
        return _radius(np.atleast_2d(points) - self.origin, self.n1, self.n2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, span = _SAMPLE_INSET, 1.0 - 2.0 * _SAMPLE_INSET
        z = self.eps + self.z_extent * (lo + span * rng.random(n))
        r = self.delta * np.sqrt(lo + span * rng.random(n))
        phi = self.theta * (lo + span * rng.random(n))
        return (self.origin + z[:, None] * self.axis
                + r[:, None] * np.cos(phi)[:, None] * self.n1
                + r[:, None] * np.sin(phi)[:, None] * self.n2)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "edge_id": self.edge_id, "theta": self.theta,
                "r_e": self.delta, "z_e": self.z_extent,
                "constant": self.constant,
                "provenance": self.constant_provenance}


@dataclass
class VertexConeRegion:
    """Cone {0 < z < eps, 0 < r < slope * z} along an edge at a vertex."""

    label: str
    vertex_id: int
    edge_id: int
    apex: np.ndarray
    axis: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    theta: float
    eps: float
    slope: float
    constant: float
    constant_provenance: str = "analytic"
    kind: str = "vertex_cone"

    def contains(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(points) - self.apex
        z = femcore.row_product(rel, self.axis)
        ok = (z > 0.0) & (z < self.eps)
        rows = np.flatnonzero(ok)
        ok[rows] = _in_wedge(rel[rows], self.n1, self.n2,
                             self.slope * z[rows], self.theta)
        return ok

    def radial_weight(self, points: np.ndarray) -> np.ndarray:
        return _radius(np.atleast_2d(points) - self.apex, self.n1, self.n2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, span = _SAMPLE_INSET, 1.0 - 2.0 * _SAMPLE_INSET
        z = self.eps * (lo + span * rng.random(n))
        r = self.slope * z * np.sqrt(lo + span * rng.random(n))
        phi = self.theta * (lo + span * rng.random(n))
        return (self.apex + z[:, None] * self.axis
                + r[:, None] * np.cos(phi)[:, None] * self.n1
                + r[:, None] * np.sin(phi)[:, None] * self.n2)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "vertex_id": self.vertex_id, "edge_id": self.edge_id,
                "theta": self.theta, "slope": self.slope, "eps": self.eps,
                "constant": self.constant,
                "provenance": self.constant_provenance}


@dataclass
class VertexBallRegion:
    """Link cone of radius 2 eps at a vertex, minus cones and cylinders.

    Membership is the exact lattice-octant test of the link, so the
    region is the part of the domain near the vertex not already
    claimed by an edge region. The radial weight is the distance to
    the vertex, and c1 = min eta / rho over the region converts the
    link Hardy bound into a bound with the full singular distance.
    """

    label: str
    vertex_id: int
    center: np.ndarray
    radius: float
    link: sphere.SphericalPolygon
    excluded: list = field(default_factory=list)
    constant: float | None = None
    constant_provenance: str = "eigensolve"
    cap: CapConstant | None = None
    c1: float | None = None
    c1_samples: int = 0
    kind: str = "vertex_ball"

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        rel = pts - self.center
        rho = np.linalg.norm(rel, axis=1)
        ok = (rho > 0.0) & (rho < self.radius)
        rows = np.flatnonzero(ok)
        ok[rows] = self.link.contains_directions(rel[rows]
                                                 / rho[rows, None])
        # Each excluded region sees only the points still inside.
        rows = np.flatnonzero(ok)
        for other in self.excluded:
            rows = rows[~other.contains(pts[rows])]
        ok[:] = False
        ok[rows] = True
        return ok

    def radial_weight(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.linalg.norm(pts - self.center, axis=1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, span = _SAMPLE_INSET, 1.0 - 2.0 * _SAMPLE_INSET
        out = []
        collected = 0
        for _ in range(200):
            m = max(2 * (n - collected), 32)
            dirs = self.link.sample_directions(m, rng)
            rho = self.radius * np.cbrt(lo + span * rng.random(m))
            pts = self.center + rho[:, None] * dirs
            keep = self.contains(pts)
            if keep.any():
                out.append(pts[keep])
                collected += int(keep.sum())
            if collected >= n:
                break
        else:
            raise DecompositionError(
                f"could not sample ball region {self.label}")
        return np.concatenate(out, axis=0)[:n]

    def as_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "vertex_id": self.vertex_id, "radius": self.radius,
                "link_area": self.link.area, "constant": self.constant,
                "provenance": self.constant_provenance,
                "c1": self.c1, "c1_provenance": "sampled",
                "c1_samples": self.c1_samples}


# ---------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------


@dataclass
class Decomposition:
    """Disjoint canonical regions covering the singular neighborhood.

    Every interior point with eta below eta_min_bound lies in some
    region, so eta >= eta_min_bound holds on the residual set; the
    bound is delta in 3D and epsilon in 2D.
    """

    domain: Polyhedron
    epsilon: float
    delta: float
    regions: list
    eta_min_bound: float
    trials: int
    samples: int
    seed: int

    def by_kind(self, kind: str) -> list:
        return [r for r in self.regions if r.kind == kind]

    def as_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta,
                "eta_min_bound": self.eta_min_bound, "trials": self.trials,
                "samples": self.samples, "seed": self.seed,
                "regions": [r.as_dict() for r in self.regions]}


def _build_regions_2d(domain: Polyhedron, eps: float) -> list:
    regions = []
    for vi in range(len(domain.vertices)):
        v, n1, n2, theta = geometry.corner_frame(domain, vi)
        regions.append(SectorRegion(
            label=f"sector_v{vi}", vertex_id=vi, center=np.asarray(v, float),
            n1=np.asarray(n1, float), n2=np.asarray(n2, float), theta=theta,
            radius=eps, constant=sector_constant(theta)))
    return regions


def _build_regions_3d(domain: Polyhedron, eps: float, delta: float) -> list:
    cylinders = []
    cones = []
    slope = delta / math.hypot(eps, delta)
    for ei, e in enumerate(domain.edges):
        origin, axis, n1, n2, theta = geometry.edge_frame(domain, ei)
        length = float(np.linalg.norm(domain.vertices[e[1]]
                                      - domain.vertices[e[0]]))
        if length <= 2.0 * eps:
            raise DecompositionError(
                f"edge {ei} too short for the cylinder at eps={eps}")
        c = sector_constant(theta)
        cylinders.append(EdgeCylinderRegion(
            label=f"cylinder_e{ei}", edge_id=ei, origin=origin, axis=axis,
            n1=n1, n2=n2, theta=theta, length=length, eps=eps, delta=delta,
            constant=c))
        far = origin + length * axis
        # The wedge frame (n1, n2) is valid along the whole edge; the far
        # cone only reverses the axial coordinate.
        cones.append(VertexConeRegion(
            label=f"cone_v{e[0]}_e{ei}", vertex_id=int(e[0]), edge_id=ei,
            apex=origin, axis=axis, n1=n1, n2=n2, theta=theta, eps=eps,
            slope=slope, constant=c))
        cones.append(VertexConeRegion(
            label=f"cone_v{e[1]}_e{ei}", vertex_id=int(e[1]), edge_id=ei,
            apex=far, axis=-axis, n1=n1, n2=n2, theta=theta, eps=eps,
            slope=slope, constant=c))

    balls = []
    for vi in range(len(domain.vertices)):
        link = geometry.vertex_link(domain, vi)
        own_cones = [c for c in cones if c.vertex_id == vi]
        balls.append(VertexBallRegion(
            label=f"ball_v{vi}", vertex_id=vi,
            center=np.asarray(domain.vertices[vi], float), radius=2.0 * eps,
            link=link, excluded=own_cones + cylinders))
    return cylinders + cones + balls


def _check_decomposition(domain: Polyhedron, decomp: Decomposition,
                         samples: int, rng: np.random.Generator) -> None:
    eta = weights.eta_field(domain)
    clouds = []
    for region in decomp.regions:
        pts = region.sample(samples, rng)
        if not domain.contains(pts, tol=0.0).all():
            raise DecompositionError(f"{region.label} leaves the domain")
        if not region.contains(pts).all():
            raise DecompositionError(
                f"{region.label} samples violate its coordinate bounds")
        if region.kind in ("vertex_sector", "edge_cylinder", "vertex_cone"):
            gap = np.abs(eta(pts) - region.radial_weight(pts))
            if gap.max(initial=0.0) > ETA_MATCH_TOL:
                raise DecompositionError(
                    f"{region.label}: singular distance deviates from the "
                    f"region radius by {gap.max():.3e}")
        clouds.append(pts)

    pool = np.concatenate(clouds, axis=0)
    owner = np.repeat(np.arange(len(decomp.regions)),
                      [len(c) for c in clouds])
    for i, region in enumerate(decomp.regions):
        claimed = region.contains(pool)
        foreign = claimed & (owner != i)
        if foreign.any():
            j = int(owner[np.argmax(foreign)])
            raise DecompositionError(
                f"{region.label} and {decomp.regions[j].label} overlap")

    interior = weights.sample_interior(domain, samples)
    close = eta(interior) < decomp.eta_min_bound * (1.0 - 1e-6)
    if close.any():
        pts = interior[close]
        covered = np.zeros(len(pts), dtype=bool)
        for region in decomp.regions:
            covered |= region.contains(pts)
        if not covered.all():
            raise DecompositionError(
                "points near the singular set escape every region")

    for region, pts in zip(decomp.regions, clouds):
        if region.kind != "vertex_ball":
            continue
        ratio = eta(pts) / region.radial_weight(pts)
        c1 = float(ratio.min())
        if c1 <= 0.0:
            raise DecompositionError(f"{region.label}: c1 is not positive")
        region.c1 = c1
        region.c1_samples = len(pts)


def build_decomposition(domain: Polyhedron, samples: int = 1000,
                        seed: int = DEFAULT_SEED,
                        cap_levels: int = 4) -> Decomposition:
    """Search for a valid decomposition by joint (eps, delta) halving.

    Starts from eps = min edge length / 4 and delta = eps / 2, halving
    both after any failed sampled check. Ball constants are attached
    once the geometric checks pass.
    """
    l_min = domain.min_edge_length()
    eps0 = l_min / 4.0
    failures = []
    for trial in range(MAX_HALVINGS + 1):
        eps = eps0 / 2.0 ** trial
        delta = eps / 2.0
        rng = np.random.default_rng(seed)
        try:
            if domain.dimension == 2:
                regions = _build_regions_2d(domain, eps)
                bound = eps
            else:
                regions = _build_regions_3d(domain, eps, delta)
                bound = delta
            decomp = Decomposition(domain=domain, epsilon=eps, delta=delta,
                                   regions=regions, eta_min_bound=bound,
                                   trials=trial + 1, samples=samples,
                                   seed=seed)
            _check_decomposition(domain, decomp, samples, rng)
        except DecompositionError as exc:
            failures.append(f"eps={eps:.6g}: {exc}")
            continue
        for region in decomp.by_kind("vertex_ball"):
            cap = cap_constant_from_link(region.link, levels=cap_levels)
            region.cap = cap
            region.constant = cap.value
        return decomp
    raise DecompositionError(
        "no valid decomposition after {} halvings; last failures: {}".format(
            MAX_HALVINGS, "; ".join(failures[-3:])))


# ---------------------------------------------------------------------
# inequality checks and the two kappas
# ---------------------------------------------------------------------


def gradient_energy(u: FemField) -> float:
    """Integral of |grad u|^2, exact for piecewise-linear fields."""
    vols, grads = kernels.simplex_geometry(u.mesh.nodes, u.mesh.elements)
    egrads = u.element_gradients(grads)
    return float(kernels.neumaier_sum(vols * np.einsum("ed,ed->e", egrads,
                                                       egrads)))


def random_zero_trace_fields(mesh: SimplicialMesh, n_fields: int,
                             rng: np.random.Generator) -> list:
    """Unit-scale random nodal fields vanishing on the boundary."""
    free = ~mesh.boundary_node_mask()
    out = []
    for _ in range(n_fields):
        vals = np.zeros(mesh.num_nodes)
        vals[free] = rng.standard_normal(int(free.sum()))
        out.append(FemField(mesh, vals))
    return out


@dataclass
class KappaCertificate:
    """Constructive Poincare constant with its regional breakdown."""

    constructive: float
    variational: float | None
    eta_min: float
    eta_min_bound: float
    eta_min_sampled: float
    poincare_constant: float
    poincare_iterations: int
    residual_term: float
    region_terms: list
    decomposition: dict
    slack: float
    passed: bool | None

    def as_dict(self) -> dict:
        return {"constructive_kappa": self.constructive,
                "variational_kappa": self.variational,
                "eta_min": {"value": self.eta_min,
                            "offset_bound": self.eta_min_bound,
                            "sampled": self.eta_min_sampled,
                            "provenance": "sampled"},
                "poincare_constant": {"value": self.poincare_constant,
                                      "iterations": self.poincare_iterations,
                                      "provenance": "eigensolve"},
                "residual_term": self.residual_term,
                "region_terms": list(self.region_terms),
                "decomposition": dict(self.decomposition),
                "slack": self.slack,
                "passed": self.passed}


def _free_stiffness(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Stiffness matrix restricted to the interior (zero-trace) nodes."""
    free = mesh.free_nodes()
    return femcore.assemble_stiffness(mesh)[free][:, free].tocsr()


def domain_poincare_constant(mesh: SimplicialMesh,
                             k_free: sp.csr_matrix | None = None
                             ) -> tuple[float, int]:
    """1 / lambda_1 of the Dirichlet Laplacian, discrete.

    ``k_free`` is ``_free_stiffness(mesh)`` when the caller has it already.
    """
    free = mesh.free_nodes()
    if k_free is None:
        k_free = _free_stiffness(mesh)
    m_mat = femcore.assemble_weighted_mass(mesh, lambda p: np.ones(len(p)),
                                           degree=2)
    lam, _, info = femcore.generalized_eig_extreme(
        k_free, m_mat[free][:, free].tocsr(), which="min",
        hierarchy=free_prolongations(mesh.prolongations, free))
    return 1.0 / lam, info["iterations"]


def constructive_kappa(domain: Polyhedron, mesh: SimplicialMesh,
                       decomposition: Decomposition | None = None,
                       samples: int = 1000,
                       seed: int = DEFAULT_SEED) -> KappaCertificate:
    """Assemble the certified constant kappa from regional pieces.

    kappa = 1 + sum of regional constants (against the radial weight,
    corrected by c1 for balls) + C_P / eta_min^2 for the residual set.
    The variational constant is computed on the same mesh and the
    certificate fails if it exceeds the constructive one beyond the
    documented discretization slack.
    """
    decomp = decomposition or build_decomposition(domain, samples=samples,
                                                  seed=seed)
    eta = weights.eta_field(domain)

    region_terms = []
    total = 0.0
    for region in decomp.regions:
        entry = region.as_dict()
        if region.kind == "vertex_ball":
            if region.constant is None or region.c1 is None:
                raise DecompositionError(
                    f"{region.label} is missing its constant or c1")
            term = region.constant / region.c1 ** 2
            entry["cap"] = region.cap.as_dict() if region.cap else None
        else:
            term = region.constant
            # The eigenvalue constant is (theta / pi)^2; the factor
            # quoted alongside the angle inequality reads pi / theta.
            # Both are recorded, with their gap, rather than guessing
            # which one a reader expects.
            factor = sector_factor(region.theta)
            entry["paper_factor"] = factor
            entry["paper_factor_discrepancy"] = abs(region.constant - factor)
        entry["term"] = term
        region_terms.append(entry)
        total += term

    interior = weights.sample_interior(domain, samples)
    outside = np.ones(len(interior), dtype=bool)
    for region in decomp.regions:
        outside &= ~region.contains(interior)
    sampled_min = float(eta(interior[outside]).min()) if outside.any() \
        else math.inf
    eta_min = min(decomp.eta_min_bound, sampled_min)

    k_free = _free_stiffness(mesh)
    c_p, its = domain_poincare_constant(mesh, k_free)
    residual = c_p / eta_min ** 2
    kappa = 1.0 + total + residual

    var = variational_kappa(domain, mesh, k_free)
    slack = 0.05 * var.kappa
    passed = var.kappa <= kappa + slack

    return KappaCertificate(
        constructive=kappa, variational=var.kappa, eta_min=eta_min,
        eta_min_bound=decomp.eta_min_bound, eta_min_sampled=sampled_min,
        poincare_constant=c_p, poincare_iterations=its,
        residual_term=residual, region_terms=region_terms,
        decomposition=decomp.as_dict(), slack=slack, passed=passed)


@dataclass
class VariationalKappa:
    """Sharp discrete constant 1 + max of u^2 / eta^2 mass over energy."""

    kappa: float
    eigenvalue: float
    iterations: int
    dofs: int


def variational_kappa(domain: Polyhedron, mesh: SimplicialMesh,
                      k_free: sp.csr_matrix | None = None) -> VariationalKappa:
    """Smallest kappa with norm(u, K11)^2 <= kappa * energy, discrete.

    Computed as 1 + lambda_max of the 1/eta^2 weighted mass against the
    stiffness matrix on the zero-trace subspace. The mass matrix is the
    one the order-1 index-1 norm itself integrates, so the inequality
    with the returned kappa is a sharp Rayleigh bound for every
    zero-trace field on this mesh, not just an asymptotic statement.
    ``k_free`` is ``_free_stiffness(mesh)`` when the caller has it already.
    """
    free = mesh.free_nodes()
    if k_free is None:
        k_free = _free_stiffness(mesh)
    m_mat = sobolev.k11_mass(domain, mesh)
    lam, _, info = femcore.generalized_eig_extreme(
        m_mat[free][:, free].tocsr(), k_free, which="max",
        hierarchy=free_prolongations(mesh.prolongations, free))
    return VariationalKappa(kappa=1.0 + lam, eigenvalue=lam,
                            iterations=info["iterations"], dofs=len(free))
