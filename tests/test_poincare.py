"""Regional Hardy constants, decompositions and the two kappas."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import (femcore, geometry, kernels, mesh as meshmod, poincare,
                  sobolev, sphere, weights, wellposed)
from klab.errors import DecompositionError, MeshSizeError
from klab.sobolev import NormSpec

from conftest import problem_path


def test_sector_constant_analytic():
    assert poincare.sector_constant(math.pi / 2) == pytest.approx(0.25)
    assert poincare.sector_constant(math.pi) == pytest.approx(1.0)
    assert poincare.sector_constant(1.5 * math.pi) == pytest.approx(2.25)
    with pytest.raises(DecompositionError):
        poincare.sector_constant(0.0)
    with pytest.raises(DecompositionError):
        poincare.sector_constant(2.5 * math.pi)


def test_mesh_without_interior_nodes_rejected(square):
    coarse = meshmod.build_mesh(square, 1.0)
    assert coarse.boundary_node_mask().all()
    with pytest.raises(MeshSizeError, match="no interior nodes"):
        poincare.variational_kappa(square, coarse)


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 1.5 * math.pi])
def test_sector_constant_fem_cross_check(theta):
    fem = poincare.sector_constant_fem(theta, n=128)
    exact = poincare.sector_constant(theta)
    assert abs(fem - exact) / exact < 1e-3
    # the conforming eigensolve overestimates the eigenvalue, so the
    # inverse sits below the analytic constant
    assert fem <= exact


def test_sector_constant_fem_converges():
    theta = 1.5 * math.pi
    errs = [abs(poincare.sector_constant_fem(theta, n=n)
                - poincare.sector_constant(theta)) for n in (32, 64, 128)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.05)


def test_cap_constant_hemisphere():
    cap = poincare.cap_constant_from_link(sphere.hemisphere(), levels=3)
    # first Dirichlet eigenvalue of the hemisphere is 2
    assert cap.eigenvalue == pytest.approx(2.0, rel=0.02)
    assert cap.value == pytest.approx(0.5, rel=0.02)
    octant_cap = poincare.cap_constant_from_link(sphere.octant(), levels=3)
    assert octant_cap.eigenvalue > cap.eigenvalue
    d = cap.as_dict()
    assert d["provenance"] == "eigensolve"
    assert d["link_area"] == pytest.approx(2.0 * math.pi)


def test_build_decomposition_square(square):
    dec = poincare.build_decomposition(square, samples=400)
    assert len(dec.regions) == 4
    assert all(r.kind == "vertex_sector" for r in dec.regions)
    assert dec.epsilon == pytest.approx(0.25)
    assert dec.trials == 1
    assert dec.eta_min_bound == dec.epsilon
    for r in dec.regions:
        assert r.constant == pytest.approx(0.25)


def test_build_decomposition_lshape(lshape):
    dec = poincare.build_decomposition(lshape, samples=400)
    assert len(dec.regions) == 6
    thetas = sorted(r.theta for r in dec.regions)
    assert thetas[-1] == pytest.approx(1.5 * math.pi)
    assert max(r.constant for r in dec.regions) == pytest.approx(2.25)


def test_build_decomposition_box(box):
    dec = poincare.build_decomposition(box, samples=150, cap_levels=2)
    assert len(dec.by_kind("edge_cylinder")) == 12
    assert len(dec.by_kind("vertex_cone")) == 24
    assert len(dec.by_kind("vertex_ball")) == 8
    for r in dec.by_kind("edge_cylinder"):
        assert r.constant == pytest.approx(0.25)
    for r in dec.by_kind("vertex_ball"):
        assert r.constant is not None and r.constant > 0.0
        assert 0.0 < r.c1 <= 1.0 + 1e-12
        assert r.cap.dofs > 0
    d = dec.as_dict()
    assert len(d["regions"]) == 44


@pytest.mark.parametrize("name", ["lshape", "box", "fichera"])
def test_check_decomposition_reports_overlap(name):
    """A copy of a region overlaps the region, and of the regions that
    claim a foreign sample the check names the first."""
    dom, regions = _regions(name)
    twin = dataclasses.replace(regions[0], label="twin")
    eps = dom.min_edge_length() / 4.0
    decomp = poincare.Decomposition(
        domain=dom, epsilon=eps, delta=eps / 2.0, regions=regions + [twin],
        eta_min_bound=eps, trials=1, samples=200, seed=1)
    with pytest.raises(DecompositionError,
                       match=f"{regions[0].label} and twin overlap"):
        poincare._check_decomposition(dom, decomp, 200,
                                      np.random.default_rng(1))


def _polar_reference(rel, n1, n2):
    x = rel @ n1
    y = rel @ n2
    return np.hypot(x, y), np.mod(np.arctan2(y, x), 2.0 * np.pi)


def _contains_reference(region, pts):
    """Every coordinate and every test on the whole point array."""
    if isinstance(region, poincare.WedgeRegion):
        rel = pts - region.origin
        r, phi = _polar_reference(rel, region.n1, region.n2)
        ok = (r > 0.0) & (phi > 0.0) & (phi < region.theta)
        if region.axis is None:
            return ok & (r < region.r0)
        z = rel @ region.axis
        return (ok & (z > region.z_lo) & (z < region.z_hi)
                & (r < region.r0 + region.slope * z))
    rel = pts - region.center
    rho = np.linalg.norm(rel, axis=1)
    ok = (rho > 0.0) & (rho < region.radius)
    dirs = np.zeros_like(rel)
    dirs[ok] = rel[ok] / rho[ok, None]
    ok &= region.link.contains_directions(dirs)
    for other in region.excluded:
        ok &= ~_contains_reference(other, pts)
    return ok


@functools.lru_cache(maxsize=None)
def _regions(name):
    if name == "lshape":
        dom = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
    else:
        dom = geometry.build_polyhedron_3d(name)
    eps = dom.min_edge_length() / 4.0
    if dom.dimension == 2:
        return dom, poincare._build_regions_2d(dom, eps)
    return dom, poincare._build_regions_3d(dom, eps, eps / 2.0)


def _rotated(regions, rot):
    """The wedge regions turned by the orthogonal matrix rot, so their
    frames are no longer axis-aligned and every projection rounds. Balls
    are dropped: their link test needs axis-aligned octants."""
    out = []
    for region in regions:
        if region.kind == "vertex_ball":
            continue
        moved = {key: rot @ getattr(region, key)
                 for key in ("origin", "axis", "n1", "n2")
                 if getattr(region, key) is not None}
        out.append(dataclasses.replace(region, **moved))
    return out


def _wedge_points(base, axis, n1, n2, z, r, phi):
    pts = base + r[:, None] * (np.cos(phi)[:, None] * n1
                               + np.sin(phi)[:, None] * n2)
    if axis is not None:
        pts = pts + z[:, None] * axis
    return pts


def _boundary_points(region, n, rng):
    """Points on the region's bounding surfaces, where membership hangs
    on the last bit of each coordinate."""
    u = rng.random(n)
    if region.kind == "vertex_ball":
        dirs = region.link.sample_directions(n, rng)
        return region.center + region.radius * dirs
    base, axis = region.origin, region.axis
    z = region.z_lo + (region.z_hi - region.z_lo) * u
    rmax = region.r0 + region.slope * z
    r = rmax * rng.random(n)
    phi = region.theta * rng.random(n)
    out = [_wedge_points(base, axis, region.n1, region.n2, z,
                         np.broadcast_to(rmax, (n,)), phi),  # r = r_max
           _wedge_points(base, axis, region.n1, region.n2, z, r, 0.0 * phi),
           _wedge_points(base, axis, region.n1, region.n2, z, r,
                         region.theta + 0.0 * phi)]
    if axis is not None:
        # the end faces: the cylinder's z = eps and z = length - eps, the
        # cone's apex z = 0 and base z = eps
        for z_end in (region.z_lo, region.z_hi):
            r_end = (region.r0 + region.slope * z_end) * rng.random(n)
            out.append(_wedge_points(base, axis, region.n1, region.n2,
                                     np.full(n, z_end), r_end, phi))
    return np.concatenate(out)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["lshape", "box", "l_prism", "fichera"]),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_region_membership_matches_full_array_formula(name, rotate, seed):
    """contains and (for every wedge, sectors included) radial_weight
    equal the whole-array formulas bit for bit, on random points, region
    samples and points placed on the end faces z = z_lo, z_hi, the
    surface r = r0 + slope z and the walls phi = 0, theta; a point
    tested alone gets the answer it gets in the batch."""
    dom, regions = _regions(name)
    rng = np.random.default_rng(seed)
    lo, hi = dom.vertices.min(axis=0), dom.vertices.max(axis=0)
    pts = lo + (hi - lo) * rng.uniform(-0.05, 1.05, (400, dom.dimension))
    if rotate:
        rot, _ = np.linalg.qr(rng.standard_normal((dom.dimension,) * 2))
        regions = _rotated(regions, rot)
        pts = pts @ rot.T
    edges = np.concatenate([_boundary_points(r, 8, rng) for r in regions])
    pts = np.concatenate([pts, edges]
                         + [r.sample(8, rng) for r in regions
                            if r.kind != "vertex_ball" or not rotate])
    alone = 400 + rng.choice(len(edges), size=30, replace=False)
    for region in regions:
        got = region.contains(pts)
        assert np.array_equal(got, _contains_reference(region, pts)), \
            region.label
        for i in alone:
            assert region.contains(pts[i:i + 1])[0] == got[i], region.label
        # the overlap check tests only the points in this ball
        centre, radius = region.bounding_ball()
        assert np.all(np.linalg.norm(pts[got] - centre, axis=1)
                      <= radius * (1.0 + 1e-12)), region.label
        if isinstance(region, poincare.WedgeRegion):
            want, _ = _polar_reference(pts - region.origin, region.n1,
                                       region.n2)
            assert np.array_equal(region.radial_weight(pts), want)


def _region_hardy_lhs(region, u):
    """Integral of u^2 / w^2 over the region, w its radial weight."""
    mesh = u.mesh
    rule = femcore.simplex_rule(mesh.dimension, 5)
    pts = femcore.quadrature_points(mesh, rule).reshape(-1, mesh.dimension)
    uq = u.at_quadrature(rule).ravel()
    inside = region.contains(pts)
    dens = np.zeros(len(pts))
    if inside.any():
        dens[inside] = (uq[inside] / region.radial_weight(pts[inside])) ** 2
    dens = dens.reshape(mesh.num_elements, -1)
    return float(kernels.neumaier_sum(
        mesh.element_volumes() * (dens @ rule.weights)))


def test_region_inequality_random_fields(lshape, lshape_mesh):
    # each region's constant is a real Hardy bound: for zero-trace
    # fields the regional integral of u^2 / w^2 stays below constant
    # times the Dirichlet energy over the whole domain
    dec = poincare.build_decomposition(lshape, samples=300)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    fields = poincare.random_zero_trace_fields(lshape_mesh, 10, rng)
    for u in fields:
        energy = poincare.gradient_energy(u)
        for region in dec.regions:
            lhs = _region_hardy_lhs(region, u)
            assert 0.0 <= lhs <= region.constant * energy * (1.0 + 1e-12), \
                region.label


def test_random_zero_trace_fields_deterministic(square_mesh):
    a = poincare.random_zero_trace_fields(
        square_mesh, 3, np.random.default_rng(42))
    b = poincare.random_zero_trace_fields(
        square_mesh, 3, np.random.default_rng(42))
    mask = square_mesh.boundary_node_mask()
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.values, ub.values)
        assert np.all(ua.values[mask] == 0.0)
        assert np.any(ua.values != 0.0)


@pytest.mark.parametrize("name", ["square.json", "l_shape.json", "box.json",
                                  "l_prism.json", "fichera.json"])
def test_domain_poincare_bound(name):
    """The bounding-box constant is exact on the unit square and bounds
    the discrete 1 / lambda_min(K, M) from above: conforming elements
    underestimate the domain's constant, which the box's bounds."""
    domain = geometry.load_domain(problem_path(name))
    bound = poincare.domain_poincare_bound(domain)
    if name == "square.json":
        assert bound == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-15)
    m = meshmod.build_mesh(domain, 0.25)
    free = m.free_nodes()
    k_mat = femcore.assemble_stiffness(m)[free][:, free].tocsr()
    m_mat = femcore.assemble_weighted_mass(m, lambda p: np.ones(len(p)),
                                           degree=2)[free][:, free].tocsr()
    lam, _, info = femcore.generalized_eig_extreme(k_mat, m_mat, which="min")
    assert info["converged"]
    assert bound >= 1.0 / lam


def test_variational_kappa_rayleigh_sharp(lshape, lshape_mesh):
    var = poincare.variational_kappa(lshape, lshape_mesh)
    assert var.kappa == pytest.approx(1.0 + var.eigenvalue, rel=1e-14)
    eta = weights.eta_field(lshape)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    worst = 0.0
    for u in poincare.random_zero_trace_fields(lshape_mesh, 20, rng):
        lhs = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).value ** 2
        rhs = var.kappa * poincare.gradient_energy(u)
        assert lhs <= rhs * (1.0 + 1e-8)
        worst = max(worst, lhs / rhs)
    # the bound is sharp: random fields come close to it on this mesh
    assert worst > 0.5


def test_variational_kappa_monotone_under_nesting(box):
    m0 = meshmod.build_mesh(box, 0.25)
    m1 = meshmod.refine(m0, 1)
    k0 = poincare.variational_kappa(box, m0).kappa
    k1 = poincare.variational_kappa(box, m1).kappa
    assert k1 >= k0


def test_constructive_kappa_certificate(lshape, lshape_mesh):
    cert = poincare.constructive_kappa(lshape, lshape_mesh, samples=300)
    assert cert.passed
    assert cert.constructive >= cert.variational
    assert cert.residual_term > 0.0
    assert cert.eta_min > 0.0
    assert cert.eta_min <= cert.eta_min_bound
    # reassemble kappa from the reported pieces
    total = sum(entry["term"] for entry in cert.region_terms)
    assert cert.constructive == pytest.approx(
        1.0 + total + cert.residual_term, rel=1e-12)
    # every regional entry names its constant and provenance
    for entry in cert.region_terms:
        assert entry["constant"] > 0.0
        assert "provenance" in entry
        if entry["kind"] == "vertex_sector":
            assert entry["paper_factor"] == pytest.approx(
                math.pi / entry["theta"])
            assert entry["paper_factor_discrepancy"] == pytest.approx(
                abs(entry["constant"] - entry["paper_factor"]))
    d = cert.as_dict()
    assert d["passed"] is True
    assert d["poincare_constant"] == {"value": cert.poincare_constant,
                                      "provenance": "bounding box"}


def test_constructive_kappa_assembles_stiffness_once(lshape, lshape_mesh,
                                                     monkeypatch):
    """The certificate assembles one stiffness matrix, for the variational
    eigensolve, with the same results as the standalone calls."""
    calls = []
    assemble = femcore.assemble_stiffness
    monkeypatch.setattr(femcore, "assemble_stiffness",
                        lambda m: calls.append(1) or assemble(m))
    cert = poincare.constructive_kappa(lshape, lshape_mesh, samples=300)
    assert len(calls) == 1
    var = poincare.variational_kappa(lshape, lshape_mesh)
    assert cert.poincare_constant == poincare.domain_poincare_bound(lshape)
    assert cert.variational == var.kappa


def test_constructive_kappa_box(box, box_mesh):
    cert = poincare.constructive_kappa(box, box_mesh, samples=150)
    assert cert.passed
    assert cert.constructive >= cert.variational
    kinds = {e["kind"] for e in cert.region_terms}
    assert kinds == {"edge_cylinder", "vertex_cone", "vertex_ball"}
    for entry in cert.region_terms:
        if entry["kind"] == "vertex_ball":
            assert entry["cap"]["provenance"] == "eigensolve"
            assert entry["term"] == pytest.approx(
                entry["constant"] / entry["c1"] ** 2)


@pytest.mark.parametrize("name", ["l_shape", "square", "box", "l_prism",
                                  "fichera"])
def test_acrit_lower_bound_below_discrete_acrit(name):
    """The certified kappa bounds the window probe's pencil, so
    (kappa_c - 1)^(-1/2) is at most the discrete acrit (kappa_var -
    1)^(-1/2), and in 2D at most the analytic edge min pi / theta."""
    domain = geometry.load_domain(problem_path(f"{name}.json"))
    mesh = meshmod.build_mesh(domain,
                              0.125 if domain.dimension == 2 else 0.25)
    decomp = poincare.build_decomposition(domain, samples=150, cap_levels=2)
    cert = poincare.constructive_kappa(domain, mesh, decomposition=decomp,
                                       samples=150)
    bound = cert.as_dict()["acrit_lower_bound"]
    assert bound["provenance"] == "constructive"
    assert bound["value"] == (cert.constructive - 1.0) ** -0.5
    assert 0.0 < bound["value"] <= (cert.variational - 1.0) ** -0.5
    edge = wellposed.predicted_window_edge(domain)
    assert (edge is None) == (domain.dimension == 3)
    if edge is not None:
        assert bound["value"] <= edge


_WEDGE_TERM_KEYS = {"paper_factor", "paper_factor_discrepancy", "term"}
# kind: (keys of its decomposition.regions entry, keys its region_terms
# entry adds)
REGION_REPORT_KEYS = {
    "vertex_sector": ({"kind", "label", "vertex_id", "theta", "radius",
                       "constant", "provenance"}, _WEDGE_TERM_KEYS),
    "edge_cylinder": ({"kind", "label", "edge_id", "theta", "r_e", "z_e",
                       "constant", "provenance"}, _WEDGE_TERM_KEYS),
    "vertex_cone": ({"kind", "label", "vertex_id", "edge_id", "theta",
                     "slope", "eps", "constant", "provenance"},
                    _WEDGE_TERM_KEYS),
    "vertex_ball": ({"kind", "label", "vertex_id", "radius", "link_area",
                     "constant", "provenance", "c1", "c1_provenance",
                     "c1_samples"}, {"cap", "term"}),
}


def test_region_report_keys(lshape, lshape_mesh, box, box_mesh):
    """Each region kind writes exactly its own keys into poincare.json."""
    box_decomp = poincare.build_decomposition(box, samples=150, cap_levels=2)
    certs = [poincare.constructive_kappa(lshape, lshape_mesh, samples=300),
             poincare.constructive_kappa(box, box_mesh,
                                         decomposition=box_decomp)]
    seen = set()
    for cert in certs:
        regions = cert.decomposition["regions"]
        assert len(regions) == len(cert.region_terms)
        for entry, term in zip(regions, cert.region_terms):
            keys, term_keys = REGION_REPORT_KEYS[entry["kind"]]
            assert set(entry) == keys, entry["label"]
            assert set(term) == keys | term_keys, entry["label"]
            seen.add(entry["kind"])
    assert seen == set(REGION_REPORT_KEYS)
