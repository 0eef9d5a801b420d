"""Mesh generation, grading, refinement and file round trips."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import geometry, kernels, weights
from klab import mesh as meshmod
from klab.config import MIN_ANGLE_FLOOR
from klab.errors import GeometryError, MeshFormatError, MeshSizeError
from klab.mesh import GradingSpec, default_grading


def test_square_structured_counts(square):
    m = meshmod.build_mesh(square, 0.5)
    assert m.num_elements == 8
    assert m.num_nodes == 9
    assert m.total_volume() == pytest.approx(1.0, rel=1e-12)
    assert len(m.boundary_facets) == 8


def _grid_mesh_2d_loop(domain, h):
    """The 2D grid mesher _kuhn_mesh replaced: two triangles per grid
    square, (sw, se, ne) and (sw, ne, nw), nodes pooled in loop order."""
    pool = meshmod._NodePool()
    tris = []
    for lo, hi in domain.cells:
        nx = max(1, math.ceil((hi[0] - lo[0]) / h - 1e-12))
        ny = max(1, math.ceil((hi[1] - lo[1]) / h - 1e-12))
        xs = lo[0] + (hi[0] - lo[0]) * np.arange(nx + 1) / nx
        ys = lo[1] + (hi[1] - lo[1]) * np.arange(ny + 1) / ny
        ids = np.empty((nx + 1, ny + 1), dtype=np.int64)
        for i in range(nx + 1):
            for j in range(ny + 1):
                ids[i, j] = pool.add((xs[i], ys[j]))
        for i in range(nx):
            for j in range(ny):
                sw, se = ids[i, j], ids[i + 1, j]
                nw, ne = ids[i, j + 1], ids[i + 1, j + 1]
                tris.append((sw, se, ne))
                tris.append((sw, ne, nw))
    nodes = pool.array()
    elements = meshmod._oriented(2, nodes, np.array(tris, dtype=np.int64))
    return nodes, elements, meshmod.derive_boundary_facets(elements)


@pytest.mark.parametrize("name", ["square", "lshape"])
@pytest.mark.parametrize("h", [1.0, 0.5, 0.3, 0.125, 0.07])
@pytest.mark.parametrize("kappa", [None, 0.5])
def test_kuhn_mesh_2d_matches_grid_loop(request, name, h, kappa):
    """Kuhn's subdivision in 2D is the former two-triangle grid loop,
    bit for bit, before and after grading."""
    domain = request.getfixturevalue(name)
    nodes, elements, facets = _grid_mesh_2d_loop(domain, h)
    m = meshmod._kuhn_mesh(domain, h)
    assert m.nodes.tobytes() == nodes.tobytes()
    assert np.array_equal(m.elements, elements)
    assert np.array_equal(m.boundary_facets, facets)
    grading = None if kappa is None else default_grading(domain, kappa)
    built = meshmod.build_mesh(domain, h, grading=grading)
    expected = nodes if grading is None else grading.apply(nodes)
    assert built.nodes.tobytes() == expected.tobytes()
    assert np.array_equal(built.elements, elements)
    assert np.array_equal(built.boundary_facets, facets)


def test_lshape_mesh_covers_domain(lshape):
    m = meshmod.build_mesh(lshape, 0.25)
    assert m.total_volume() == pytest.approx(3.0, rel=1e-12)
    assert m.dimension == 2
    m.validate()


def test_box_kuhn_counts(box):
    m = meshmod.build_mesh(box, 0.5)
    assert m.num_elements == 48
    assert m.total_volume() == pytest.approx(1.0, rel=1e-12)
    assert len(m.boundary_facets) == 48


def test_h_bound(square, box):
    for dom, h in ((square, 0.25), (box, 0.25)):
        m = meshmod.build_mesh(dom, h)
        assert m.h_max() <= math.sqrt(dom.dimension) * h + 1e-12


def test_refine_quadruples_2d(square):
    m = meshmod.build_mesh(square, 0.5)
    r = meshmod.refine(m, 1)
    assert r.num_elements == 4 * m.num_elements
    assert r.total_volume() == pytest.approx(1.0, rel=1e-12)
    assert len(r.boundary_facets) == 2 * len(m.boundary_facets)


def test_refine_octuples_3d(box):
    m = meshmod.build_mesh(box, 0.5)
    r = meshmod.refine(m, 1)
    assert r.num_elements == 8 * m.num_elements
    assert r.total_volume() == pytest.approx(1.0, rel=1e-12)


def test_refinement_is_nested(square):
    m = meshmod.build_mesh(square, 0.5)
    r = meshmod.refine(m, 1)
    coarse = {tuple(p) for p in np.round(m.nodes, 12)}
    fine = {tuple(p) for p in np.round(r.nodes, 12)}
    assert coarse <= fine


def _refine_once_reference(dim, nodes, elements, facets):
    """Edge-midpoint subdivision with a midpoint dict, one element at a time.

    Also returns the parent edge (low, high) of each midpoint."""
    pool = [tuple(p) for p in nodes]
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(pool)
            pool.append(tuple(0.5 * (nodes[a] + nodes[b])))
        return midpoint[key]

    children, new_facets = [], []
    for row in elements:
        if dim == 2:
            a, b, c = row
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            children += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        else:
            x0, x1, x2, x3 = row
            m01, m02, m03 = mid(x0, x1), mid(x0, x2), mid(x0, x3)
            m12, m13, m23 = mid(x1, x2), mid(x1, x3), mid(x2, x3)
            children += [
                (x0, m01, m02, m03), (m01, x1, m12, m13),
                (m02, m12, x2, m23), (m03, m13, m23, x3),
                (m01, m02, m03, m13), (m01, m02, m12, m13),
                (m02, m03, m13, m23), (m02, m12, m13, m23)]
    for f in facets:
        if dim == 2:
            a, b = f
            m = mid(a, b)
            new_facets += [(a, m), (m, b)]
        else:
            a, b, c = f
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_facets += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return (np.array(pool, dtype=float), np.array(children, dtype=np.int64),
            np.array(new_facets, dtype=np.int64),
            np.array(list(midpoint), dtype=np.int64).reshape(-1, 2))


@functools.lru_cache(maxsize=None)
def _small_mesh(name, graded):
    if name == "lshape":
        dom = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
    elif name == "square":
        dom = geometry.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    else:
        dom = geometry.build_polyhedron_3d(name)
    h = 0.25 if dom.dimension == 2 else 0.5
    grading = default_grading(dom, 0.5) if graded else None
    return meshmod.build_mesh(dom, h, grading=grading)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["square", "lshape", "box", "l_prism"]), st.booleans(),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_refine_once_matches_dict_loop(name, graded, levels, seed):
    """The array refinement equals the dict loop bit for bit, for any
    element order and vertex rotation, and keeps every parent node."""
    m = _small_mesh(name, graded)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshmod, "_refine_once", _refine_once_reference)
        want = meshmod.refine(m, levels)
    got = meshmod.refine(m, levels)
    for attr in ("nodes", "elements", "boundary_facets"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert len(got.prolongations) == len(want.prolongations) == levels
    for p, q in zip(got.prolongations, want.prolongations):
        assert (p != q).nnz == 0

    rng = np.random.default_rng(seed)
    k = m.elements.shape[1]
    elements = m.elements[rng.permutation(m.num_elements)]
    shift = rng.integers(0, k, size=(len(elements), 1))
    elements = np.take_along_axis(elements, (np.arange(k) + shift) % k, axis=1)
    facets = m.boundary_facets[rng.permutation(len(m.boundary_facets))]
    nodes = m.nodes
    for _ in range(levels):
        out = meshmod._refine_once(m.dimension, nodes, elements, facets)
        ref = _refine_once_reference(m.dimension, nodes, elements, facets)
        assert len(out) == len(ref) == 4
        for a, b in zip(out, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # nested: parent nodes keep their indices and coordinates, and
        # every parent vertex is a vertex of its children
        assert np.array_equal(out[0][:len(nodes)], nodes)
        assert np.array_equal(
            out[1].reshape(len(elements), -1, k)[:, np.arange(k), np.arange(k)],
            elements)
        nodes, elements, facets, _ = out


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["square", "lshape", "box", "l_prism"]), st.booleans(),
       st.integers(min_value=1, max_value=2),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4,
                max_size=4))
def test_prolongation_interpolates_linear_functions(name, graded, levels, coef):
    """Each level's prolongation maps a linear function's nodal values
    on the parent to its values on the child, in ungraded coordinates;
    rows sum to 1 and the shapes chain from the base mesh up."""
    m = _small_mesh(name, graded)
    fine = meshmod.refine(m, levels)
    assert m.prolongations == () and len(fine.prolongations) == levels
    nodes = fine.nodes if fine.grading is None \
        else fine.grading.unapply(fine.nodes)
    c = np.asarray(coef[:m.dimension + 1])
    values = c[0] + nodes @ c[1:]
    n_coarse = m.num_nodes
    for p in fine.prolongations:
        assert p.shape[1] == n_coarse
        assert np.array_equal(np.asarray(p.sum(axis=1)).ravel(),
                              np.ones(p.shape[0]))
        got = p @ values[:n_coarse]
        assert np.allclose(got, values[:p.shape[0]], rtol=0.0, atol=1e-12)
        n_coarse = p.shape[0]
    assert n_coarse == fine.num_nodes


def test_hierarchy_extends_and_is_not_written(tmp_path, lshape):
    grading = default_grading(lshape, 0.5)
    m1 = meshmod.refine(meshmod.build_mesh(lshape, 0.5, grading=grading), 1)
    m2 = meshmod.refine(m1, 1)
    assert m2.prolongations[:1] == m1.prolongations
    assert len(m2.prolongations) == 2
    path = tmp_path / "m.txt"
    meshmod.write_mesh(path, m2)
    back = meshmod.read_mesh(path)
    assert back.prolongations == ()
    plain = meshmod.SimplicialMesh(m2.dimension, m2.nodes, m2.elements,
                                   m2.boundary_facets, grading=m2.grading)
    meshmod.write_mesh(tmp_path / "plain.txt", plain)
    assert path.read_bytes() == (tmp_path / "plain.txt").read_bytes()


def test_free_prolongations_restrict_nested_free_nodes(square):
    m = meshmod.refine(meshmod.build_mesh(square, 0.5), 2)
    free = np.where(~m.boundary_node_mask())[0]
    hierarchy = meshmod.free_prolongations(m.prolongations, free)
    # square at h 0.5 has 1 interior node, then 9, then 49
    assert [p.shape for p in hierarchy] == [(9, 1), (49, 9)]
    for full, p in zip(m.prolongations, hierarchy):
        fine_free = free[free < full.shape[0]]
        coarse_free = free[free < full.shape[1]]
        assert (p != full[fine_free][:, coarse_free]).nnz == 0


def test_refine_rejects_facet_off_the_elements(square):
    m = meshmod.build_mesh(square, 0.5)
    edges = {tuple(sorted(e)) for row in m.elements.tolist()
             for e in ((row[0], row[1]), (row[1], row[2]), (row[2], row[0]))}
    far = next(j for j in range(1, m.num_nodes) if (0, j) not in edges)
    facets = np.vstack([m.boundary_facets, [[0, far]]])
    with pytest.raises(GeometryError):
        meshmod._refine_once(2, m.nodes, m.elements, facets)


# -- grading -----------------------------------------------------------


def test_grading_kappa_one_is_identity(square):
    g = GradingSpec(kappa=1.0, radius=0.25,
                    centers=tuple(map(tuple, square.vertices)))
    pts = np.random.default_rng(0).random((50, 2))
    assert np.allclose(g.apply(pts), pts)


def test_grading_radial_law(lshape):
    g = default_grading(lshape, kappa=0.5)
    r_collar = g.radius
    d = 0.5 * r_collar
    p = np.array([[d, 0.0]])  # on the ray from the corner at the origin
    mapped = g.apply(p)
    expect = r_collar * (d / r_collar) ** (1.0 / 0.5)
    assert mapped[0, 0] == pytest.approx(expect, rel=1e-12)
    # inverse map restores the original point
    assert np.allclose(g.unapply(mapped), p, atol=1e-14)


def test_grading_preserves_volume_and_boundary(lshape):
    g = default_grading(lshape, kappa=0.5)
    m = meshmod.build_mesh(lshape, 0.125, grading=g)
    assert m.total_volume() == pytest.approx(3.0, rel=1e-10)
    assert m.grading == g
    # graded meshes concentrate: smallest element well below the uniform one
    uni = meshmod.build_mesh(lshape, 0.125)
    assert (m.element_diameters().min()
            < 0.6 * uni.element_diameters().min())


def test_grading_shrinks_near_corner(lshape):
    uni = meshmod.build_mesh(lshape, 0.125)
    gra = meshmod.build_mesh(lshape, 0.125,
                             grading=default_grading(lshape, 0.5))
    from klab import weights
    eta = weights.eta_field(lshape)

    def corner_touching_h(m):
        touches = eta(m.nodes)[m.elements].min(axis=1) < 1e-12
        return m.element_diameters()[touches].max()

    assert corner_touching_h(gra) <= 0.75 * corner_touching_h(uni)
    # kappa = 1/2 grading: halving the background size quarters the
    # corner-touching elements (uniform refinement only halves them)
    g = gra.grading
    fine = meshmod.refine(gra, 1, grading=g)
    ratio = corner_touching_h(fine) / corner_touching_h(gra)
    assert ratio == pytest.approx(0.25, rel=0.05)


def test_grading_validation():
    with pytest.raises(GeometryError):
        GradingSpec(kappa=0.0, radius=0.1, centers=((0.0, 0.0),))
    with pytest.raises(GeometryError):
        GradingSpec(kappa=1.5, radius=0.1, centers=((0.0, 0.0),))
    with pytest.raises(GeometryError):
        GradingSpec(kappa=0.5, radius=-1.0, centers=((0.0, 0.0),))


def test_minimum_angle_floor_on_families(lshape, box):
    g = default_grading(lshape, 0.25)
    m = meshmod.refine(meshmod.build_mesh(lshape, 0.125, grading=g), 1,
                       grading=g)
    assert meshmod.minimum_angle(m) > MIN_ANGLE_FLOOR
    mb = meshmod.build_mesh(box, 0.25)
    assert meshmod.minimum_angle(mb) == pytest.approx(
        math.atan(math.sqrt(2.0)) / 1.0, rel=0.3)  # Kuhn family angle scale
    assert meshmod.minimum_angle(mb) > MIN_ANGLE_FLOOR


def _minimum_dihedral_reference(mesh):
    """The np.cross/einsum form on whole (E, 3) arrays."""
    el = mesh.nodes[mesh.elements]
    worst = np.pi
    normals = []
    for m in range(4):
        rest = [k for k in range(4) if k != m]
        n = np.cross(el[:, rest[1]] - el[:, rest[0]],
                     el[:, rest[2]] - el[:, rest[0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        toward = np.einsum("ed,ed->e", n, el[:, m] - el[:, rest[0]])
        n[toward > 0.0] *= -1.0
        normals.append(n)
    for m1 in range(4):
        for m2 in range(m1 + 1, 4):
            dot = np.einsum("ed,ed->e", normals[m1], normals[m2])
            ang = np.arccos(np.clip(-dot, -1.0, 1.0))
            worst = min(worst, float(ang.min()))
    return worst


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(["box", "l_prism", "fichera"]), st.booleans(),
       st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 5, 16, kernels.BLOCK]))
def test_minimum_dihedral_angle_matches_cross_form(name, graded, jitter, seed,
                                                   block):
    m = _small_mesh(name, graded)
    rng = np.random.default_rng(seed)
    nodes = m.nodes + jitter * 0.25 * rng.uniform(-1.0, 1.0, m.nodes.shape)
    jittered = meshmod.SimplicialMesh(3, nodes, m.elements, m.boundary_facets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        got = meshmod.minimum_angle(jittered)
    assert got == _minimum_dihedral_reference(jittered)


def _element_diameters_reference(mesh):
    """Longest edges by six einsum dots on the gathered (E, k, d) array."""
    el = mesh.nodes[mesh.elements]
    k = el.shape[1]
    d2 = np.zeros(len(el))
    for i in range(k):
        for j in range(i + 1, k):
            diff = el[:, i, :] - el[:, j, :]
            d2 = np.maximum(d2, np.einsum("ed,ed->e", diff, diff))
    return np.sqrt(d2)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["square", "lshape", "box", "l_prism", "fichera"]),
       st.booleans(), st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 5, 16, kernels.BLOCK]))
def test_element_diameters_match_einsum_form(name, graded, jitter, seed,
                                             block):
    m = _small_mesh(name, graded)
    rng = np.random.default_rng(seed)
    nodes = m.nodes + jitter * 0.25 * rng.uniform(-1.0, 1.0, m.nodes.shape)
    jittered = meshmod.SimplicialMesh(m.dimension, nodes, m.elements,
                                      m.boundary_facets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        got = jittered.element_diameters()
    assert got.tobytes() == _element_diameters_reference(jittered).tobytes()


def _boundary_facets_reference(elements):
    """Facets seen once, by a dict count over every element."""
    k = elements.shape[1]
    count = {}
    for row in elements:
        for drop in range(k):
            facet = tuple(sorted(v for t, v in enumerate(row) if t != drop))
            count[facet] = count.get(facet, 0) + 1
    boundary = sorted(f for f, c in count.items() if c == 1)
    return np.array(boundary, dtype=np.int64).reshape(-1, k - 1)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["square", "lshape", "box", "l_prism", "fichera"]),
       st.booleans(), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_derive_boundary_facets_matches_dict_count(name, graded, levels, seed):
    """Sorted int64 rows equal to the dict count's, whatever the element
    order and the vertex order within each element."""
    m = meshmod.refine(_small_mesh(name, graded), levels) if levels \
        else _small_mesh(name, graded)
    rng = np.random.default_rng(seed)
    k = m.elements.shape[1]
    elements = m.elements[rng.permutation(m.num_elements)]
    elements = np.array([rng.permutation(row) for row in elements])
    for els in (m.elements, elements):
        got = meshmod.derive_boundary_facets(els)
        want = _boundary_facets_reference(els)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (len(m.boundary_facets), k - 1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_validate_rejects_repeated_node(square, box, dim):
    m = meshmod.build_mesh(square if dim == 2 else box, 0.5)
    for i in range(dim + 1):
        for j in range(i + 1, dim + 1):
            elements = m.elements.copy()
            elements[-1, j] = elements[-1, i]
            bad = meshmod.SimplicialMesh(dim, m.nodes, elements,
                                         m.boundary_facets)
            with pytest.raises(MeshFormatError, match="repeated node"):
                bad.validate()
    m.validate()


def test_read_mesh_rejects_repeated_node(tmp_path):
    p = tmp_path / "repeated.txt"
    p.write_text("KLABMESH 1\nDIM 2\nNODES 3\n1 0.0 0.0\n2 1.0 0.0\n"
                 "3 0.0 1.0\nELEMENTS 1\n1 1 2 2\nBOUNDARY 0\nEND\n")
    with pytest.raises(MeshFormatError, match="repeated node"):
        meshmod.read_mesh(p)


def test_node_cap(square):
    with pytest.raises(MeshSizeError):
        meshmod.build_mesh(square, 1e-5)


# -- file round trips --------------------------------------------------


def test_mesh_file_round_trip_bytes(tmp_path, lshape):
    g = default_grading(lshape, 0.5)
    m = meshmod.build_mesh(lshape, 0.25, grading=g)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    meshmod.write_mesh(p1, m)
    again = meshmod.read_mesh(p1)
    meshmod.write_mesh(p2, again)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(again.elements, m.elements)
    assert np.array_equal(again.nodes, m.nodes)
    assert again.grading == m.grading


def test_mesh_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("NOTMESH 1\n")
    with pytest.raises(MeshFormatError):
        meshmod.read_mesh(p)
    p.write_text("KLABMESH 99\nDIM 2\n")
    with pytest.raises(MeshFormatError):
        meshmod.read_mesh(p)
    p.write_text("KLABMESH 1\nDIM 2\nNODES 1\n1 0.0 0.0\nELEMENTS 1\n"
                 "1 1 2 3\nBOUNDARY 0\nEND\n")
    with pytest.raises(MeshFormatError):
        meshmod.read_mesh(p)


def test_singular_node_mask(lshape, box):
    m = meshmod.build_mesh(lshape, 0.25)
    mask = weights.eta_field(lshape).on_singular_set(m.nodes)
    # exactly the six corner nodes in 2D
    assert mask.sum() == 6
    mb = meshmod.build_mesh(box, 0.5)
    maskb = weights.eta_field(box).on_singular_set(mb.nodes)
    on_edge = 0
    for p in mb.nodes:
        hits = sum(1 for c in range(3) if p[c] in (0.0, 1.0))
        if hits >= 2:
            on_edge += 1
    assert maskb.sum() == on_edge
