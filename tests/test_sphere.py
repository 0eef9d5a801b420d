"""Spherical polygons, refinement and surface P1 matrices."""

import math

import numpy as np
import pytest

from klab import geometry, poincare, sphere
from klab.errors import DegenerateLinkError

from conftest import sample_directions

RNG = np.random.default_rng(3)
# Coordinate rounding of the reference refinement's node dedup.
_ROUND = 12


def _dict_loop_refinement(triangles, levels):
    """The dict-and-loop geodesic refinement that refine_triangulation
    replaced, kept as the reference it must match bit for bit."""
    node_index: dict = {}
    nodes: list = []

    def add(v):
        k = tuple(np.round(v, _ROUND))
        if k not in node_index:
            node_index[k] = len(nodes)
            nodes.append(np.asarray(v, dtype=float))
        return node_index[k]

    elements = []
    for t in triangles:
        elements.append([add(t[0]), add(t[1]), add(t[2])])
    elements = np.array(elements, dtype=np.int64)

    for _ in range(levels):
        mid_cache: dict = {}

        def midpoint(i, j):
            k = (min(i, j), max(i, j))
            if k not in mid_cache:
                mid_cache[k] = add(sphere._unit(0.5 * (nodes[i] + nodes[j])))
            return mid_cache[k]

        new_elems = []
        for a, b, c in elements:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_elems.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        elements = np.array(new_elems, dtype=np.int64)

    nodes = np.array(nodes)
    edge_count: dict = {}
    for a, b, c in elements:
        for e in ((a, b), (b, c), (c, a)):
            k = (min(e), max(e))
            edge_count[k] = edge_count.get(k, 0) + 1
    boundary = np.zeros(len(nodes), dtype=bool)
    for (a, b), cnt in edge_count.items():
        if cnt == 1:
            boundary[a] = True
            boundary[b] = True
    return nodes, elements, boundary


def _links(source):
    if source == "octant":
        return [sphere.octant()]
    if source == "hemisphere":
        return [sphere.hemisphere()]
    poly = geometry.build_polyhedron_3d(source)
    return [geometry.vertex_link(poly, i) for i in range(len(poly.vertices))]


@pytest.mark.parametrize("source", ["octant", "hemisphere", "box",
                                    "l_prism", "fichera"])
def test_refine_triangulation_matches_dict_loop(source):
    for link in _links(source):
        for levels in range(5):
            got = sphere.refine_triangulation(link.triangles, levels)
            want = _dict_loop_refinement(link.triangles, levels)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)


def test_octant_geometry():
    oct_ = sphere.octant()
    assert oct_.area == pytest.approx(math.pi / 2, rel=1e-12)


def test_hemisphere_geometry():
    hemi = sphere.hemisphere()
    assert hemi.area == pytest.approx(2 * math.pi, rel=1e-12)


def test_contains_directions_octant():
    oct_ = sphere.octant()
    u = RNG.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    inside = oct_.contains_directions(u)
    assert np.array_equal(inside, np.all(u > 0.0, axis=1))


def test_sample_directions_inside():
    hemi = sphere.hemisphere()
    pts = sample_directions(hemi, 300, np.random.default_rng(5))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert (pts[:, 2] > -1e-12).all()


def test_full_sphere_rejected():
    # eight octants tile the sphere: the refined link has no boundary
    e = np.eye(3)
    tris = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                t = np.array([sx * e[0], sy * e[1], sz * e[2]])
                if np.linalg.det(t) < 0:
                    t = t[::-1]
                tris.append(t)
    link = sphere.polygon_from_triangles(np.array(tris))
    assert link.area == pytest.approx(4 * math.pi, rel=1e-12)
    with pytest.raises(DegenerateLinkError):
        poincare.cap_constant_from_link(link)


def test_empty_link_rejected():
    with pytest.raises(DegenerateLinkError):
        sphere.polygon_from_triangles(np.zeros((0, 3, 3)))


def test_refine_triangulation_counts():
    oct_ = sphere.octant()
    nodes, elements, boundary = sphere.refine_triangulation(oct_.triangles, 2)
    assert len(elements) == 16
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)
    assert boundary.any() and not boundary.all()
    # refined triangles still tile the octant: spherical areas sum to pi/2
    total = 0.0
    for el in elements:
        a, b, c = nodes[el]
        total += float(sphere.triangle_angles(a, b, c).sum() - math.pi)
    assert total == pytest.approx(math.pi / 2, rel=5e-3)


def test_surface_p1_matrices_partition():
    oct_ = sphere.octant()
    nodes, elements, boundary = sphere.refine_triangulation(oct_.triangles, 3)
    k, m = sphere.surface_p1_matrices(nodes, elements)
    ones = np.ones(len(nodes))
    # mass of the constant = flat-facet area, close to the spherical area
    assert ones @ (m @ ones) == pytest.approx(math.pi / 2, rel=2e-2)
    # stiffness annihilates constants
    assert np.abs(k @ ones).max() < 1e-12


def test_link_eigenvalue_dirichlet_monotone():
    """Smaller cap -> larger first eigenvalue (domain monotonicity)."""
    from klab import femcore

    lams = []
    for poly in (sphere.octant(), sphere.hemisphere()):
        nodes, elements, boundary = sphere.refine_triangulation(poly.triangles, 3)
        k, m = sphere.surface_p1_matrices(nodes, elements)
        free = np.where(~boundary)[0]
        lam, _, _ = femcore.generalized_eig_extreme(
            k[free][:, free].tocsr(), m[free][:, free].tocsr(), which="min")
        lams.append(lam)
    assert lams[0] > lams[1] > 0.0
