"""Distance weights, smoothing, sampling and equivalence certification."""

import numpy as np
import pytest

from klab import kernels, mesh as meshmod, weights
from klab.errors import NonpositiveWeightError


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
    eta = weights.eta_field(lshape)
    rng = np.random.default_rng(5)
    pts = rng.random((200, 2)) * 2.0 - 1.0
    pts = pts[eta(pts) > 1e-6]
    g = eta.gradient(pts)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
    # finite differences confirm the direction
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
    domain = request.getfixturevalue(name)
    eta = weights.eta_field(domain)
    pts = weights.sample_interior(domain, 300)
    assert np.array_equal(eta.grad_over_value(pts),
                          eta.gradient(pts) / eta(pts)[:, None])


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
    m = meshmod.build_mesh(box, 0.25)
    rep = weights.certify_equivalence(box, mesh=m, n=512)
    assert 0.0 < rep.lower <= rep.upper
    assert rep.upper < 10.0
    assert rep.s1 is not None


def test_romega_2d_matches_smoothed_distance(lshape):
    w = weights.romega_field(lshape)
    pts = weights.sample_interior(lshape, 200)
    d = weights.distance_to_vertices(lshape, pts)
    assert np.allclose(w(pts), weights.rho_smooth(d, w.s0))


def test_romega_3d_properties(box):
    m = meshmod.build_mesh(box, 0.25)
    w = weights.romega_field(box, mesh=m)
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
    w = weights.romega_field(l_prism, mesh=m)
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


def test_romega_requires_mesh_in_3d(box):
    with pytest.raises(ValueError):
        weights.romega_field(box)


def test_edge_pairs_match_sorted_set(l_prism, lshape_mesh):
    for elements in (meshmod.build_mesh(l_prism, 0.25).elements,
                     lshape_mesh.elements):
        pairs = set()
        for row in elements:
            for i in range(len(row)):
                for j in range(i + 1, len(row)):
                    a, b = int(row[i]), int(row[j])
                    pairs.add((a, b) if a < b else (b, a))
        assert np.array_equal(weights._edge_pairs(elements),
                              np.array(sorted(pairs), dtype=np.int64))


def _rho1_reference(w, pts, k):
    """Per-point relaxation through the k nearest nodes and their ties;
    0 at the domain's vertices."""
    segs = w.domain.singular_segments()
    _, nearest, _ = kernels.nearest_on_segments(pts, segs[:, 0], segs[:, 1])
    away = w.rho0(pts) > 0.0
    best = np.zeros(len(pts))
    best[away] = w._segment_cost(pts[away], nearest[away])
    nodes = w.mesh.nodes
    for i, p in enumerate(pts):
        if not away[i]:
            continue
        d2 = np.einsum("nd,nd->n", nodes - p, nodes - p)
        near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
        cand = w.node_rho1_raw[near] + w._segment_cost(
            np.repeat(p[None, :], len(near), axis=0), nodes[near])
        best[i] = min(best[i], float(cand.min()))
    return best


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [8, 1])
def test_rho1_batched_matches_point_loop(l_prism, monkeypatch, k):
    monkeypatch.setattr(weights, "RHO1_NEIGHBOURS", k)
    m = meshmod.build_mesh(l_prism, 0.25)
    w = weights.romega_field(l_prism, mesh=m)
    # Halton samples, and the nodes themselves, where equidistant
    # neighbours tie with the k-th nearest one.
    for pts in (weights.sample_interior(l_prism, 1500), m.nodes):
        got = w._rho1_raw(pts)
        want = _rho1_reference(w, pts, k)
        assert np.array_equal(got, want)
    assert w._rho1_raw(np.empty((0, 3))).shape == (0,)
