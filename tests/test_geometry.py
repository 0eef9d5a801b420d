"""Domain construction, membership, distances, frames and links."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klab import geometry, kernels
from klab.config import GEOM_TOL
from klab.errors import GeometryError

RNG = np.random.default_rng(11)


# -- 2D basics ---------------------------------------------------------


def test_square_counts_and_angles(square):
    assert square.dimension == 2
    assert len(square.vertices) == 4
    assert len(square.boundary_faces) == 4
    # the 2D singular set is the vertices; no 3D edge skeleton
    assert len(square.edges) == 0
    for i in range(4):
        assert geometry.interior_angle(square, i) == pytest.approx(math.pi / 2)


def test_lshape_counts_and_angles(lshape):
    assert len(lshape.vertices) == 6
    angles = [geometry.interior_angle(lshape, i) for i in range(6)]
    assert angles[0] == pytest.approx(3 * math.pi / 2)
    assert sorted(angles)[-1] == pytest.approx(3 * math.pi / 2)
    # polygon angle sum (n - 2) * pi
    assert sum(angles) == pytest.approx(4 * math.pi)


def test_square_contains_oracle(square):
    pts = RNG.random((500, 2)) * 1.4 - 0.2
    inside = square.contains(pts)
    expect = np.all((pts > 0) & (pts < 1), axis=1)
    # skip points within tol of the boundary
    clear = np.min(np.minimum(pts, 1 - pts), axis=1)
    mask = np.abs(clear) > 1e-9
    assert np.array_equal(inside[mask], expect[mask])


def test_lshape_contains_oracle(lshape):
    pts = RNG.random((800, 2)) * 2.4 - 1.2

    def ref(p):
        x, y = p
        in_top = -1 < x < 1 and 0 < y < 1
        in_left = -1 < x < 0 and -1 < y < 0
        return in_top or in_left

    expect = np.array([ref(p) for p in pts])
    d = lshape.boundary_distance(pts)
    mask = d > 1e-9
    assert np.array_equal(lshape.contains(pts)[mask], expect[mask])


def _parent_polygon_contains(self, points, tol):
    """Polyhedron._polygon_contains as it was before contains called
    geometry._points_in_polygon, kept verbatim as the reference."""
    verts = self.vertices
    n = len(verts)
    on_boundary = self.boundary_distance(points) <= tol
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside | on_boundary


@pytest.mark.parametrize("vertices", [
    [(0, 0), (1, 0), (0.3, 0.8)],
    [(0, 0), (2, 0.5), (1.1, 0.9), (1.9, 2.0), (-0.3, 1.4)],
    [(0, 1), (0.22, 0.3), (0.95, 0.31), (0.36, -0.12), (0.59, -0.81),
     (0, -0.38), (-0.59, -0.81), (-0.36, -0.12), (-0.95, 0.31),
     (-0.22, 0.3)],
], ids=["triangle", "nonconvex", "star"])
def test_polygon_contains_matches_reference(vertices):
    """Membership in non-rectilinear polygons, on random points, points
    on the sides and the vertices, is the old per-domain loop's."""
    poly = geometry.build_polygon(vertices)
    assert poly.cells is None
    verts = poly.vertices
    lo, hi = verts.min(axis=0) - 0.2, verts.max(axis=0) + 0.2
    rng = np.random.default_rng(len(vertices))
    t = rng.random((200, 1))
    on_sides = [a + t * (b - a) for a, b in zip(verts, np.roll(verts, -1, 0))]
    pts = np.vstack([lo + rng.random((4000, 2)) * (hi - lo),
                     *on_sides, verts])
    for tol in (GEOM_TOL, 0.0):
        got = poly.contains(pts, tol=tol)
        assert np.array_equal(got, _parent_polygon_contains(poly, pts, tol))
    assert poly.contains(verts, tol=0.0).all()


def test_square_boundary_distance_oracle(square):
    pts = RNG.random((200, 2))
    d = square.boundary_distance(pts)
    ref = np.min(np.minimum(pts, 1 - pts), axis=1)
    assert np.allclose(d, ref, atol=1e-12)


def test_corner_frame_lshape(lshape):
    v, n1, n2, theta = geometry.corner_frame(lshape, 0)
    assert theta == pytest.approx(3 * math.pi / 2)
    assert np.allclose(v, [0, 0])
    # points at angles inside (0, theta) from n1 are interior near the corner
    for ang, expect in [(0.3, True), (math.pi, True), (4.5, True), (4.9, False),
                        (5.8, False)]:
        direction = math.cos(ang) * np.asarray(n1) + math.sin(ang) * np.asarray(n2)
        p = np.asarray(v) + 0.05 * direction
        assert bool(lshape.contains(p[None])[0]) == (expect and ang < theta)


# -- 3D counts, Euler characteristic, links ----------------------------


def test_box_counts(box):
    assert (len(box.vertices), len(box.edges), len(box.boundary_faces)) \
        == (8, 12, 6)


def test_l_prism_counts(l_prism):
    v, e, f = (len(l_prism.vertices), len(l_prism.edges),
               len(l_prism.boundary_faces))
    assert (v, e, f) == (12, 18, 8)
    assert v - e + f == 2


def test_edge_faces_meet_at_their_edge(box, l_prism, fichera):
    for dom in (box, l_prism, fichera):
        assert len(dom.edge_faces) == len(dom.edges)
        for e, faces in zip(dom.edges, dom.edge_faces):
            assert len(set(faces)) == 2
            for f in faces:
                assert set(e) <= set(dom.boundary_faces[f])


def test_fichera_counts(fichera):
    v, e, f = (len(fichera.vertices), len(fichera.edges),
               len(fichera.boundary_faces))
    assert v - e + f == 2
    assert (v, e, f) == (14, 21, 9)


def test_box_dihedrals_and_links(box):
    for i in range(len(box.edges)):
        assert geometry.dihedral_angle(box, i) == pytest.approx(math.pi / 2)
    for i in range(len(box.vertices)):
        link = geometry.vertex_link(box, i)
        assert link.area == pytest.approx(math.pi / 2, rel=1e-10)


def test_l_prism_reentrant_structures(l_prism):
    angles = [geometry.dihedral_angle(l_prism, i)
              for i in range(len(l_prism.edges))]
    assert max(angles) == pytest.approx(3 * math.pi / 2)
    assert sum(1 for t in angles if abs(t - 3 * math.pi / 2) < 1e-9) == 1
    # reentrant bottom vertex: prism corner, link area = opening angle
    idx = int(np.argmin(np.linalg.norm(l_prism.vertices, axis=1)))
    assert np.allclose(l_prism.vertices[idx], 0.0)
    link = geometry.vertex_link(l_prism, idx)
    assert link.area == pytest.approx(3 * math.pi / 2, rel=1e-10)


def test_fichera_reentrant_link(fichera):
    idx = int(np.argmin(np.linalg.norm(fichera.vertices, axis=1)))
    assert np.allclose(fichera.vertices[idx], 0.0)
    link = geometry.vertex_link(fichera, idx)
    assert link.area == pytest.approx(7 * math.pi / 2, rel=1e-10)
    angles = [geometry.dihedral_angle(fichera, i)
              for i in range(len(fichera.edges))]
    assert sum(1 for t in angles if abs(t - 3 * math.pi / 2) < 1e-9) == 3


def test_edge_frame_membership(box, l_prism):
    for dom in (box, l_prism):
        for e_idx in range(len(dom.edges)):
            origin, axis, n1, n2, theta = geometry.edge_frame(dom, e_idx)
            a, b = dom.vertices[dom.edges[e_idx]]
            assert np.allclose(origin, a)
            assert np.allclose(axis, (b - a) / np.linalg.norm(b - a))
            mid = 0.5 * (a + b)
            # interior points just off the edge midpoint have angles in
            # (0, theta) in the (n1, n2) frame
            for ang in np.linspace(0.1, theta - 0.1, 7):
                p = mid + 1e-3 * (math.cos(ang) * n1 + math.sin(ang) * n2)
                assert dom.contains(p[None])[0], (e_idx, ang)
            out = mid + 1e-3 * (math.cos(theta + 0.2) * n1
                                + math.sin(theta + 0.2) * n2)
            if theta + 0.2 < 2 * math.pi - 0.05:
                assert not dom.contains(out[None])[0]


def test_box_distance_to_singular_set(box):
    from klab import weights
    center = np.array([[0.5, 0.5, 0.5]])
    d = weights.EtaField(box)(center)
    assert d[0] == pytest.approx(math.hypot(0.5, 0.5))


def test_min_singular_separation(lshape, box, l_prism, fichera):
    assert lshape.min_singular_separation() == pytest.approx(1.0)
    for domain in (box, l_prism, fichera):
        assert domain.min_singular_separation() == 1.0


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_segment_distance_is_closed_form(coords):
    """The common perpendicular, or else the nearest endpoint-segment
    distance, is the distance of two segments: at most the minimum over
    a 4,097-point scan of one segment, and within that scan's error,
    which is O(h^2) away from an intersection."""
    s1, s2 = np.array(coords).reshape(2, 2, 3)
    u = s1[1] - s1[0]
    length = float(np.linalg.norm(u))
    assume(length > 0.05 and np.linalg.norm(s2[1] - s2[0]) > 0.05)
    ends = [kernels.nearest_on_segments(p, q[:1], q[1:])[0].min()
            for p, q in ((s1, s2), (s2, s1))]
    closed = min(geometry._common_perpendicular(s1[None], s2[None])[0],
                 *ends)
    t = np.linspace(0.0, 1.0, 4097)
    scan = kernels.nearest_on_segments(s1[0] + t[:, None] * u,
                                       s2[:1], s2[1:])[0].min()
    h = t[1]
    error = length * h / 2.0
    if closed > 0.0:
        error = min(error, (length * h) ** 2 / (8.0 * closed))
    assert closed <= scan + 1e-12
    assert scan - closed <= error + 1e-12


# -- domain files ------------------------------------------------------


def test_domain_dict_round_trip(lshape, fichera):
    for dom in (lshape, fichera):
        spec = geometry.domain_to_dict(dom)
        again = geometry.domain_from_dict(spec)
        assert again.dimension == dom.dimension
        assert np.allclose(again.vertices, dom.vertices)


def test_domain_from_dict_rejects_bad_specs():
    with pytest.raises(GeometryError):
        geometry.domain_from_dict({"dimension": 4})
    with pytest.raises(GeometryError):
        geometry.domain_from_dict({"dimension": 2, "generator": "pentagon"})
    with pytest.raises(GeometryError):
        geometry.domain_from_dict({"dimension": 3, "generator": "torus"})
    with pytest.raises(GeometryError):
        geometry.domain_from_dict([1, 2, 3])
    for spec in ({"dimension": 2, "generator": "rectangle",
                  "parameters": {"lengths": [2, 1], "height": 1}},
                 {"dimension": 2, "generator": "l_shape",
                  "parameters": {"lengths": [1, 1]}},
                 {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                  "parameters": {"scale": 2}},
                 {"dimension": 3, "generator": "l_prism",
                  "parameters": {"heigth": 2}}):
        with pytest.raises(GeometryError, match="does not take parameters"):
            geometry.domain_from_dict(spec)


def test_domain_parameter_named_kind_is_rejected():
    """A parameter named like the generator's positional argument is an
    unknown parameter like any other: GeometryError, not a TypeError."""
    with pytest.raises(GeometryError,
                       match=r"does not take parameters \['kind'\]"):
        geometry.domain_from_dict({"dimension": 3, "generator": "box",
                                   "parameters": {"kind": 1}})


def test_load_domain_bad_json(tmp_path):
    path = tmp_path / "dom.json"
    path.write_text("{not json")
    with pytest.raises(GeometryError):
        geometry.load_domain(path)


def test_build_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        geometry.build_polygon([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        # self-intersecting bowtie
        geometry.build_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


@pytest.mark.parametrize("name", ["box", "l_prism", "fichera"])
def test_edge_frame_tangents_point_into_their_faces(request, name):
    """At every edge, n1 and the direction at angle theta from it lie in
    the edge's two faces and point into them, not out of them."""
    dom = request.getfixturevalue(name)
    for e_idx, (i, j) in enumerate(dom.edges):
        origin, axis, n1, n2, theta = geometry.edge_frame(dom, e_idx)
        length = np.linalg.norm(dom.vertices[j] - dom.vertices[i])
        mid = origin + 0.5 * length * axis
        second = math.cos(theta) * n1 + math.sin(theta) * n2
        for t, fi in zip((n1, second), dom.edge_faces[e_idx]):
            face = dom.boundary_faces[fi]
            step = 1e-3 * length
            ahead = dom._face_distance((mid + step * t)[None], face)[0]
            behind = dom._face_distance((mid - step * t)[None], face)[0]
            assert ahead < 1e-12, (e_idx, fi)
            assert behind == pytest.approx(step, rel=1e-9), (e_idx, fi)
