"""Distance weights, smoothing, sampling and equivalence certification."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klab import geometry, mesh as meshmod, weights
from klab.errors import GeometryError, NonpositiveWeightError

from conftest import problem_path


def test_eta_square_oracle(square):
    eta = weights.eta_field(square)
    pts = np.array([[0.5, 0.5], [0.1, 0.2], [0.9, 0.95], [0.0, 0.0]])
    corners = square.vertices
    expect = np.array([np.min(np.linalg.norm(corners - p, axis=1))
                       for p in pts])
    assert np.allclose(eta(pts), expect, atol=1e-14)
    assert eta(np.array([[0.0, 0.0]]))[0] == 0.0


def test_eta_box_is_edge_distance(box):
    eta = weights.eta_field(box)
    # center of the box: nearest edge point is the midpoint of any edge
    assert eta(np.array([[0.5, 0.5, 0.5]]))[0] == pytest.approx(
        np.hypot(0.5, 0.5), rel=1e-14)
    # near a face interior, the nearest singular points are on edges
    assert eta(np.array([[0.5, 0.5, 0.01]]))[0] == pytest.approx(
        np.hypot(0.5, 0.01), rel=1e-12)
    # on an edge
    assert eta(np.array([[0.25, 0.0, 0.0]]))[0] == 0.0


def test_eta_gradient_is_unit(lshape):
    # eta * grad_over_value is grad(eta): a unit vector, which central
    # differences of eta confirm component by component
    eta = weights.eta_field(lshape)
    rng = np.random.default_rng(5)
    pts = rng.random((200, 2)) * 2.0 - 1.0
    pts = pts[eta(pts) > 1e-6]
    g = eta.grad_over_value(pts) * eta(pts)[:, None]
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
    h = 1e-7
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (eta(pts + step) - eta(pts - step)) / (2.0 * h)
        assert np.allclose(fd, g[:, k], atol=1e-5)


def test_grad_over_value(lshape):
    eta = weights.eta_field(lshape)
    pts = np.array([[0.3, 0.4], [-0.5, 0.25]])
    gv = eta.grad_over_value(pts)
    assert np.allclose(np.linalg.norm(gv, axis=1), 1.0 / eta(pts))
    with pytest.raises(NonpositiveWeightError):
        eta.grad_over_value(np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("name", ["lshape", "box"])
def test_grad_over_value_is_gradient_over_eta(name, request):
    # against central differences of log(eta), which is grad(eta) / eta
    domain = request.getfixturevalue(name)
    eta = weights.eta_field(domain)
    pts = weights.sample_interior(domain, 300)
    pts = pts[eta(pts) > 1e-3]
    got = eta.grad_over_value(pts)
    h = 1e-7
    for k in range(domain.dimension):
        step = np.zeros(domain.dimension)
        step[k] = h
        fd = (np.log(eta(pts + step)) - np.log(eta(pts - step))) / (2.0 * h)
        assert np.allclose(fd, got[:, k], rtol=1e-5, atol=1e-5)


_EQUIVALENCE_DOMAINS = {
    "square": geometry.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "lshape": geometry.build_polygon(geometry.L_SHAPE_VERTICES),
}


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_EQUIVALENCE_DOMAINS)),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_romega_is_equivalent_to_eta_in_2d(name, x, y):
    """In 2D eta is the corner distance and r_omega its rho_smooth, so
    r_omega / eta lies in [1/2, 1] at every interior point."""
    domain = _EQUIVALENCE_DOMAINS[name]
    p = np.array([[x, y]])
    assume(domain.contains(p)[0])
    eta = weights.eta_field(domain)(p)[0]
    assume(eta > 0.0)
    ratio = weights.romega_field(domain)(p)[0] / eta
    # one rounding of rho_smooth's closed form may land an ulp above eta
    assert 0.5 <= ratio <= 1.0 + 4.0 * np.finfo(float).eps


_EQUIVALENCE_DOMAINS_3D = {name: geometry.build_polyhedron_3d(name)
                           for name in ("box", "l_prism", "fichera")}


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_EQUIVALENCE_DOMAINS_3D)),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_romega_is_equivalent_to_eta_in_3d(name, unit):
    """r_omega = rho_smooth(rho0, s0) * rho_smooth(eta / rho0, s1), and
    rho / 2 <= rho_smooth(rho) <= rho, so r_omega / eta lies in [1/4, 1]
    at every interior point; r_omega is 0 at the vertices."""
    domain = _EQUIVALENCE_DOMAINS_3D[name]
    lo, hi = domain.vertices.min(axis=0), domain.vertices.max(axis=0)
    p = (lo + np.array(unit) * (hi - lo))[None, :]
    w = weights.romega_field(domain)
    assert np.array_equal(w(domain.vertices), np.zeros(len(domain.vertices)))
    assume(domain.contains(p)[0])
    eta = weights.eta_field(domain)(p)[0]
    assume(eta > 0.0)
    ratio = w(p)[0] / eta
    # a few roundings of the closed form may land ulps above eta
    assert 0.25 <= ratio <= 1.0 + 4.0 * np.finfo(float).eps


def test_rho_smooth_properties():
    scale = 0.25
    r = np.linspace(0.0, 3.0, 4001)
    s = weights.rho_smooth(r, scale)
    assert np.all(s <= r + 1e-15)
    assert np.all(s >= r / 2.0 - 1e-15)
    # identity below the scale
    assert np.allclose(s[r <= scale], r[r <= scale])
    # monotone and C1: derivative jumps stay small across the knot
    ds = np.diff(s) / np.diff(r)
    assert np.all(ds > 0.0)
    assert np.abs(np.diff(ds)).max() < 1e-2
    with pytest.raises(NonpositiveWeightError):
        weights.rho_smooth(r, 0.0)
    with pytest.raises(NonpositiveWeightError):
        weights.rho_smooth(np.array([-0.1]), scale)


def test_power_weight_guard(square):
    eta = weights.eta_field(square)
    w = weights.power_weight(eta, -2.0)
    pts = np.array([[0.5, 0.5]])
    assert w(pts)[0] == pytest.approx(eta(pts)[0] ** -2.0)
    with pytest.raises(NonpositiveWeightError):
        w(np.array([[0.0, 0.0]]))
    wp = weights.power_weight(eta, 2.0)
    assert wp(np.array([[0.0, 0.0]]))[0] == 0.0


def test_halton_determinism_and_range():
    a = weights.halton(64, 3)
    b = weights.halton(64, 3)
    assert np.array_equal(a, b)
    assert a.min() > 0.0 and a.max() < 1.0
    # first base-2 points
    assert np.allclose(a[:3, 0], [0.5, 0.25, 0.75])
    # continuation: start offsets reproduce the tail
    c = weights.halton(32, 3, start=33)
    assert np.array_equal(a[32:], c)


def _halton_reference(n, dim, start=1):
    """Digit loop on one index at a time."""
    out = np.empty((n, dim))
    for j, b in enumerate((2, 3, 5)[:dim]):
        for i in range(n):
            k, inv, f = start + i, 0.0, 1.0 / b
            while k > 0:
                inv += f * (k % b)
                k //= b
                f /= b
            out[i, j] = inv
    return out


@pytest.mark.parametrize("n,dim,start", [(0, 3, 1), (1, 2, 1), (500, 3, 1),
                                         (257, 3, 40001), (64, 1, 0)])
def test_halton_matches_digit_loop(n, dim, start):
    assert np.array_equal(weights.halton(n, dim, start=start),
                          _halton_reference(n, dim, start=start))


def test_sample_interior(lshape):
    pts = weights.sample_interior(lshape, 500)
    assert pts.shape == (500, 2)
    assert np.all(lshape.contains(pts))
    assert np.all(lshape.boundary_distance(pts) > 0.0)
    again = weights.sample_interior(lshape, 500)
    assert np.array_equal(pts, again)


def _sample_interior_reference(domain, n):
    """Batches of 4 n Halton candidates, each tested with the exact
    boundary distance."""
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    out: list = []
    start = 1
    while len(out) < n:
        cand = lo + weights.halton(4 * n, domain.dimension,
                                   start=start) * (hi - lo)
        start += 4 * n
        keep = domain.contains(cand) & (domain.boundary_distance(cand) > 1e-9)
        out.extend(cand[keep][: n - len(out)])
        if start > 400 * n:
            raise GeometryError("interior sampling failed")
    return np.array(out)


@pytest.mark.parametrize("name", ["square.json", "l_shape.json", "box.json",
                                  "l_prism.json", "fichera.json"])
def test_sample_interior_matches_batch_loop(name):
    """Only candidates near a face plane get the exact boundary distance,
    and the batches are smaller, yet the points are the same."""
    domain = geometry.load_domain(problem_path(name))
    for n in (1, 17, 1000):
        assert np.array_equal(weights.sample_interior(domain, n),
                              _sample_interior_reference(domain, n))


def test_certify_equivalence_2d_bounds(square, lshape):
    for dom in (square, lshape):
        rep = weights.certify_equivalence(dom, n=2048)
        assert 0.5 <= rep.lower <= rep.upper <= 1.0
        assert rep.n_points == 2048
        assert rep.s1 is None
        d = rep.as_dict()
        assert set(d) == {"lower", "upper", "n_points", "argmin",
                          "argmax", "s0", "s1"}


def test_certify_equivalence_3d(box):
    rep = weights.certify_equivalence(box, n=512)
    assert 0.0 < rep.lower <= rep.upper
    assert rep.upper < 10.0
    assert rep.s1 is not None


def test_romega_2d_matches_smoothed_distance(lshape):
    w = weights.romega_field(lshape)
    pts = weights.sample_interior(lshape, 200)
    d = weights.distance_to_vertices(lshape, pts)
    assert np.allclose(w(pts), weights.rho_smooth(d, w.s0))


def test_romega_3d_properties(box):
    w = weights.romega_field(box)
    eta = weights.eta_field(box)
    pts = weights.sample_interior(box, 128)
    vals = w(pts)
    assert np.all(vals > 0.0)
    ratio = vals / eta(pts)
    assert ratio.min() > 0.05
    assert ratio.max() < 20.0
    # rho1 vanishing rate near an edge midpoint: approaching the edge,
    # the weight goes to zero like the distance
    edge_mid = np.array([0.5, 0.0, 0.0])
    inward = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    d1 = eta(edge_mid + 1e-2 * inward)[0]
    d2 = eta(edge_mid + 2e-2 * inward)[0]
    w1 = w(edge_mid[None, :] + 1e-2 * inward[None, :])[0]
    w2 = w(edge_mid[None, :] + 2e-2 * inward[None, :])[0]
    assert w2 / w1 == pytest.approx(d2 / d1, rel=0.35)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_romega_3d_vanishes_at_vertices(l_prism):
    """r_omega is exactly 0 where rho0 is, and finite and positive
    elsewhere on the mesh, with no floating-point warning."""
    m = meshmod.build_mesh(l_prism, 0.25)
    w = weights.romega_field(l_prism)
    assert np.array_equal(w(l_prism.vertices), np.zeros(len(l_prism.vertices)))
    assert np.array_equal(w.rho1(l_prism.vertices),
                          np.zeros(len(l_prism.vertices)))
    vals = w(m.nodes)
    at_vertex = weights.distance_to_vertices(l_prism, m.nodes) == 0.0
    assert at_vertex.sum() == len(l_prism.vertices)
    assert np.all(vals[at_vertex] == 0.0)
    assert np.all(np.isfinite(vals)) and np.all(vals[~at_vertex] >= 0.0)
    # the vertices do not change the value anywhere else
    away = m.nodes[~at_vertex]
    assert np.array_equal(vals[~at_vertex], w(away))


def test_edge_pairs_match_sorted_set(l_prism, lshape_mesh):
    """mesh.element_faces gives the distinct faces of 2 nodes (edges) and
    of d nodes (facets) as ascending rows in sorted order and, for every
    element face in combinations order, the row of its face."""
    for elements in (meshmod.build_mesh(l_prism, 0.25).elements,
                     lshape_mesh.elements):
        k = elements.shape[1]
        for size in (2, k - 1):
            local = list(itertools.combinations(range(k), size))
            faces = {tuple(sorted(int(row[i]) for i in face))
                     for row in elements for face in local}
            got, face_of = meshmod.element_faces(elements,
                                                 elements.max() + 1, size)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.array(sorted(faces)))
            assert face_of.dtype == np.int32
            assert face_of.shape == (len(elements), len(local))
            assert np.array_equal(got[face_of],
                                  np.sort(elements[:, local], axis=-1))

