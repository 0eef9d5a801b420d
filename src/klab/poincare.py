"""Singular-set decompositions and constructive Poincare constants.

The weighted Poincare inequality

    integral of u^2 / eta^2  <=  (kappa - 1) * integral of |grad u|^2

for zero-trace fields is certified by covering a neighborhood of the
singular set with canonical regions. Corner sectors (2D), edge
cylinders and vertex cones (3D) are one shape, a `WedgeRegion`, with
the exact Hardy constant (theta / pi)^2; a vertex ball, the rest of
the link cone near a vertex, carries the reciprocal of the first
Dirichlet eigenvalue of its spherical link. Away from the regions the
distance weight is bounded below and the plain Poincare inequality
takes over. Its constant C_P is 1 / lambda_1 of the domain's bounding
box, in closed form (`domain_poincare_bound`, provenance "bounding
box"): by domain monotonicity an upper bound of the domain's own, where
a mesh eigensolve would give a value below it. The cap constants of
the vertex balls still come from a link eigensolve.

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
# Relative margin on a region's bounding ball, far above the rounding of
# the coordinates its membership test computes.
_BALL_PAD = 1e-6


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


@dataclass
class WedgeRegion:
    """Wedge region {0 < r < r0 + slope z, 0 < phi < theta, z_lo < z < z_hi}.

    (r, phi) are polar coordinates in the frame (n1, n2) about origin, and
    z is the coordinate along axis; a 2D corner sector has axis None and
    only the (r, phi) bounds. An edge cylinder has r0 = delta, slope 0
    and z in (eps, length - eps); a vertex cone has r0 = 0 and z in
    (0, eps), its apex at the vertex and its axis along the edge.

    Hardy bound: for u vanishing on both walls phi = 0 and phi = theta,

        integral over R of u^2 / r^2  <=  (theta / pi)^2 integral over R
                                          of |grad u|^2,

    with gradient set S = R: each arc {r, z fixed, 0 < phi < theta} lies
    inside the wedge and u vanishes at both its ends, so the arc's 1D
    Dirichlet inequality with eigenvalue (pi / theta)^2, divided by r and
    integrated over r and z, bounds the left side by the angular part
    |d_phi u / r|^2 of the gradient on R alone.
    """

    label: str
    origin: np.ndarray
    axis: np.ndarray | None
    n1: np.ndarray
    n2: np.ndarray
    theta: float
    r0: float
    constant: float
    slope: float = 0.0
    z_lo: float = 0.0
    z_hi: float = 0.0
    vertex_id: int | None = None
    edge_id: int | None = None
    constant_provenance: str = "analytic"

    @property
    def kind(self) -> str:
        if self.axis is None:
            return "vertex_sector"
        return "edge_cylinder" if self.vertex_id is None else "vertex_cone"

    def contains(self, points: np.ndarray) -> np.ndarray:
        """The axial test first, then the radius and the angle (phi in
        [0, 2 pi)), each only on the rows that passed the tests before
        it. Coordinates are femcore.row_product projections, so a
        point's membership does not depend on how many points are tested
        with it."""
        rel = np.atleast_2d(points) - self.origin
        rows = np.arange(len(rel))
        r_max = self.r0
        if self.axis is not None:
            z = femcore.row_product(rel, self.axis)
            rows = np.flatnonzero((z > self.z_lo) & (z < self.z_hi))
            r_max = self.r0 + self.slope * z[rows]
        x = femcore.row_product(rel[rows], self.n1)
        y = femcore.row_product(rel[rows], self.n2)
        r = np.hypot(x, y)
        inside = (r > 0.0) & (r < r_max)
        phi = np.mod(np.arctan2(y[inside], x[inside]), 2.0 * np.pi)
        ok = np.zeros(len(rel), dtype=bool)
        ok[rows[inside]] = (phi > 0.0) & (phi < self.theta)
        return ok

    def bounding_ball(self) -> tuple[np.ndarray, float]:
        """Centre and radius of a ball holding the region, centred on the
        axis at the middle of the z range: the frame is orthonormal, and
        r < r0 + slope z."""
        if self.axis is None:
            return self.origin, self.r0
        mid = 0.5 * (self.z_lo + self.z_hi)
        r_max = self.r0 + abs(self.slope) * max(abs(self.z_lo), abs(self.z_hi))
        return (self.origin + mid * self.axis,
                math.hypot(0.5 * (self.z_hi - self.z_lo), r_max))

    def radial_weight(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(points) - self.origin
        return np.hypot(femcore.row_product(rel, self.n1),
                        femcore.row_product(rel, self.n2))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, span = _SAMPLE_INSET, 1.0 - 2.0 * _SAMPLE_INSET
        base, r_max = self.origin, self.r0
        if self.axis is not None:
            z = self.z_lo + (self.z_hi - self.z_lo) * (lo + span
                                                       * rng.random(n))
            base = base + z[:, None] * self.axis
            r_max = self.r0 + self.slope * z
        r = r_max * np.sqrt(lo + span * rng.random(n))
        phi = self.theta * (lo + span * rng.random(n))
        return (base + r[:, None] * np.cos(phi)[:, None] * self.n1
                + r[:, None] * np.sin(phi)[:, None] * self.n2)

    def as_dict(self) -> dict:
        if self.kind == "vertex_sector":
            shape = {"vertex_id": self.vertex_id, "radius": self.r0}
        elif self.kind == "edge_cylinder":
            shape = {"edge_id": self.edge_id, "r_e": self.r0,
                     "z_e": self.z_hi - self.z_lo}
        else:
            shape = {"vertex_id": self.vertex_id, "edge_id": self.edge_id,
                     "slope": self.slope, "eps": self.z_hi}
        return {"kind": self.kind, "label": self.label, "theta": self.theta,
                **shape, "constant": self.constant,
                "provenance": self.constant_provenance}


@dataclass
class VertexBallRegion:
    """Link cone of radius 2 eps at a vertex, minus cones and cylinders.

    Membership is the exact lattice-octant test of the link, so the
    region is the part of the domain near the vertex not already
    claimed by an edge region. The radial weight is the distance to
    the vertex, and c1 = min eta / rho over the region converts the
    link Hardy bound into a bound with the full singular distance.

    Gradient set: the cap bound integrates each sphere {rho = const}
    in full, so its right side is the gradient integral over the whole
    of B(v, 2 eps) intersected with the domain, including the cones and
    cylinders at v that the region itself excludes.
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

    def bounding_ball(self) -> tuple[np.ndarray, float]:
        return self.center, self.radius

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
        regions.append(WedgeRegion(
            label=f"sector_v{vi}", vertex_id=vi, origin=np.asarray(v, float),
            axis=None, n1=np.asarray(n1, float), n2=np.asarray(n2, float),
            theta=theta, r0=eps, constant=sector_constant(theta)))
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
        wedge = {"edge_id": ei, "n1": n1, "n2": n2, "theta": theta,
                 "constant": sector_constant(theta)}
        cylinders.append(WedgeRegion(
            label=f"cylinder_e{ei}", origin=origin, axis=axis, r0=delta,
            z_lo=eps, z_hi=length - eps, **wedge))
        # The wedge frame (n1, n2) is valid along the whole edge; the far
        # cone only reverses the axial coordinate.
        for vi, apex, direction in ((e[0], origin, axis),
                                    (e[1], origin + length * axis, -axis)):
            cones.append(WedgeRegion(
                label=f"cone_v{vi}_e{ei}", vertex_id=int(vi), origin=apex,
                axis=direction, r0=0.0, slope=slope, z_hi=eps, **wedge))

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
        if isinstance(region, WedgeRegion):
            gap = np.abs(eta(pts) - region.radial_weight(pts))
            if gap.max(initial=0.0) > ETA_MATCH_TOL:
                raise DecompositionError(
                    f"{region.label}: singular distance deviates from the "
                    f"region radius by {gap.max():.3e}")
        else:
            c1 = float((eta(pts) / region.radial_weight(pts)).min())
            if c1 <= 0.0:
                raise DecompositionError(f"{region.label}: c1 is not positive")
            region.c1 = c1
            region.c1_samples = len(pts)
        clouds.append(pts)

    pool = np.concatenate(clouds, axis=0)
    owner = np.repeat(np.arange(len(decomp.regions)),
                      [len(c) for c in clouds])
    for i, region in enumerate(decomp.regions):
        # Membership is tested row by row, so testing only the points in
        # the region's bounding ball gives the same verdicts.
        centre, radius = region.bounding_ball()
        rel = pool - centre
        rows = np.flatnonzero(np.einsum("nd,nd->n", rel, rel)
                              < (radius * (1.0 + _BALL_PAD)) ** 2)
        foreign = rows[region.contains(pool[rows]) & (owner[rows] != i)]
        if len(foreign):
            j = int(owner[foreign[0]])
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
    residual_term: float
    region_terms: list
    decomposition: dict
    slack: float
    passed: bool | None

    def as_dict(self) -> dict:
        # The window probe's pencil is the variational one, so its acrit
        # is lambda_max^(-1/2) with lambda_max <= constructive - 1.
        return {"constructive_kappa": self.constructive,
                "variational_kappa": self.variational,
                "acrit_lower_bound": {
                    "value": (self.constructive - 1.0) ** -0.5,
                    "provenance": "constructive"},
                "eta_min": {"value": self.eta_min,
                            "offset_bound": self.eta_min_bound,
                            "sampled": self.eta_min_sampled,
                            "provenance": "sampled"},
                "poincare_constant": {"value": self.poincare_constant,
                                      "provenance": "bounding box"},
                "residual_term": self.residual_term,
                "region_terms": list(self.region_terms),
                "decomposition": dict(self.decomposition),
                "slack": self.slack,
                "passed": self.passed}


def domain_poincare_bound(domain: Polyhedron) -> float:
    """Upper bound of the Dirichlet Poincare constant 1 / lambda_1(domain).

    Extension by zero embeds H^1_0(domain) in H^1_0(B) for the bounding
    box B with sides L_i, so lambda_1(domain) >= lambda_1(B) =
    pi^2 sum 1 / L_i^2 (domain monotonicity). A discrete eigenvalue lies
    above the continuous one, so unlike a mesh eigensolve this constant
    is on the conservative side of the true one.
    """
    sides = domain.vertices.max(axis=0) - domain.vertices.min(axis=0)
    return 1.0 / (math.pi ** 2 * float(np.sum(1.0 / sides ** 2)))


def constructive_kappa(domain: Polyhedron, mesh: SimplicialMesh,
                       decomposition: Decomposition | None = None,
                       samples: int = 1000,
                       seed: int = DEFAULT_SEED) -> KappaCertificate:
    """Assemble the certified constant kappa from regional pieces.

    kappa = 1 + sum of regional constants (against the radial weight,
    corrected by c1 for balls) + C_P / eta_min^2 for the residual set,
    with C_P the bounding-box bound of domain_poincare_bound.
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
            factor = math.pi / region.theta
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

    c_p = domain_poincare_bound(domain)
    residual = c_p / eta_min ** 2
    kappa = 1.0 + total + residual

    var = variational_kappa(domain, mesh)
    slack = 0.05 * var.kappa
    passed = var.kappa <= kappa + slack

    return KappaCertificate(
        constructive=kappa, variational=var.kappa, eta_min=eta_min,
        eta_min_bound=decomp.eta_min_bound, eta_min_sampled=sampled_min,
        poincare_constant=c_p,
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
                      stiffness=None, mass=None) -> VariationalKappa:
    """Smallest kappa with norm(u, K11)^2 <= kappa * energy, discrete.

    Computed as 1 + lambda_max of the 1/eta^2 weighted mass against the
    stiffness matrix on the zero-trace subspace. The mass matrix is the
    one the order-1 index-1 norm itself integrates, so the inequality
    with the returned kappa is a sharp Rayleigh bound for every
    zero-trace field on this mesh, not just an asymptotic statement.
    ``stiffness`` and ``mass`` are assemble_stiffness(mesh) and
    sobolev.k11_mass(domain, mesh) when the caller has them already.
    """
    free = mesh.free_nodes()
    k_free = (femcore.assemble_stiffness(mesh) if stiffness is None
              else stiffness)[free][:, free].tocsr()
    m_free = (sobolev.k11_mass(domain, mesh) if mass is None
              else mass)[free][:, free].tocsr()
    lam, _, info = femcore.generalized_eig_extreme(
        m_free, k_free, which="max",
        hierarchy=free_prolongations(mesh.prolongations, free))
    return VariationalKappa(kappa=1.0 + lam, eigenvalue=lam,
                            iterations=info["iterations"], dofs=len(free))
