"""Quadrature exactness, assembly identities and linear algebra."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import femcore, geometry, kernels, mesh as meshmod, poincare
from klab.errors import (ConvergenceError, IndefiniteOperatorError,
                         MeshSizeError, UnsupportedDegreeError)


def _reference_simplex(dim):
    return np.vstack([np.zeros(dim), np.eye(dim)])


def _exact_monomial(dim, alpha):
    """Integral of prod x_i^alpha_i over the unit reference simplex."""
    num = math.prod(math.factorial(a) for a in alpha)
    return num / math.factorial(sum(alpha) + dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_quadrature_exactness(dim, degree):
    rule = femcore.simplex_rule(dim, degree)
    assert rule.degree >= degree
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(rule.bary.sum(axis=1), 1.0)
    verts = _reference_simplex(dim)
    pts = rule.bary @ verts
    vol = 1.0 / math.factorial(dim)
    rng = np.random.default_rng(dim * 10 + degree)
    for _ in range(8):
        alpha = rng.integers(0, degree + 1, size=dim)
        while alpha.sum() > degree:
            alpha = rng.integers(0, degree + 1, size=dim)
        vals = np.prod(pts ** alpha, axis=1)
        quad = vol * float(rule.weights @ vals)
        assert quad == pytest.approx(_exact_monomial(dim, tuple(alpha)),
                                     rel=1e-12, abs=1e-15)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["square", "lshape", "box", "l_prism"]),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 2, 3, 7, kernels.BLOCK]))
def test_map_points_matches_einsum(name, degree, jitter, seed, block):
    """Bit for bit, signs of zeros included, on elements and on boundary
    facets of jittered meshes whose zero coordinates carry both signs,
    whatever the block size."""
    if name in ("square", "lshape"):
        dom = geometry.build_polygon(
            [(0, 0), (1, 0), (1, 1), (0, 1)] if name == "square"
            else geometry.L_SHAPE_VERTICES)
    else:
        dom = geometry.build_polyhedron_3d(name)
    m = meshmod.build_mesh(dom, 0.25 if dom.dimension == 2 else 0.5)
    rng = np.random.default_rng(seed)
    nodes = m.nodes + jitter * 0.1 * rng.uniform(-1.0, 1.0, m.nodes.shape)
    zero = (nodes == 0.0) & (rng.random(nodes.shape) < 0.5)
    nodes[zero] = -0.0
    for cells, dim in ((m.elements, m.dimension),
                       (m.boundary_facets, m.dimension - 1)):
        rule = femcore.simplex_rule(dim, degree)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK", block)
            got = femcore.map_points(rule.bary, nodes, cells)
        want = np.einsum("qi,eid->eqd", rule.bary, nodes[cells])
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_quadrature_degree_errors():
    with pytest.raises(UnsupportedDegreeError):
        femcore.simplex_rule(2, 0)
    with pytest.raises(UnsupportedDegreeError):
        femcore.simplex_rule(2, 6)
    with pytest.raises(UnsupportedDegreeError):
        femcore.simplex_rule(4, 2)


def test_interpolate_affine_exact(square_mesh):
    f = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 0.5
    field = femcore.interpolate(square_mesh, f)
    rule = femcore.simplex_rule(2, 5)
    probes = femcore.quadrature_points(square_mesh, rule).reshape(-1, 2)
    assert np.allclose(field.at_quadrature(rule).ravel(), f(probes), atol=1e-12)
    grads = field.element_gradients()
    assert np.allclose(grads, [2.0, -3.0])


def test_recovered_hessian_of_quadratic(square_mesh):
    field = femcore.interpolate(
        square_mesh, lambda p: p[:, 0] ** 2 + 3.0 * p[:, 0] * p[:, 1])
    hess = femcore.element_hessians(field)
    interior = np.all(
        (square_mesh.nodes[square_mesh.elements].min(axis=1) > 0.2)
        & (square_mesh.nodes[square_mesh.elements].max(axis=1) < 0.8), axis=1)
    expect = np.array([[2.0, 3.0], [3.0, 0.0]])
    assert np.allclose(hess[interior], expect, atol=1e-9)


def test_stiffness_identities(square_mesh):
    k = femcore.assemble_stiffness(square_mesh)
    assert (k - k.T).nnz == 0 or np.abs((k - k.T).data).max() < 1e-14
    assert np.abs(k @ np.ones(square_mesh.num_nodes)).max() < 1e-12
    # energy of an affine function: integral of |grad u|^2 = volume * |g|^2
    u = femcore.interpolate(square_mesh,
                            lambda p: 1.0 * p[:, 0] + 2.0 * p[:, 1]).values
    assert u @ (k @ u) == pytest.approx(5.0, rel=1e-12)


def test_weighted_mass_identities(square_mesh):
    m = femcore.assemble_weighted_mass(square_mesh, lambda p: np.ones(len(p)))
    ones = np.ones(square_mesh.num_nodes)
    assert ones @ (m @ ones) == pytest.approx(1.0, rel=1e-12)
    # degree-2 rule integrates the square of an affine function exactly
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0]).values
    assert u @ (m @ u) == pytest.approx(1.0 / 3.0, rel=1e-12)
    mw = femcore.assemble_weighted_mass(square_mesh, lambda p: p[:, 0],
                                        degree=5)
    # integral of x * x^2 over the unit square
    assert u @ (mw @ u) == pytest.approx(1.0 / 4.0, rel=1e-12)


def test_gradvec_against_quadrature(square_mesh):
    # b(u, v) = integral (q . grad u) v with q = (1, 0): for u = x, v = x
    # this is integral x = 1/2
    g = femcore.assemble_gradvec(
        square_mesh, lambda p: np.column_stack([np.ones(len(p)),
                                                np.zeros(len(p))]))
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0]).values
    assert u @ (g.T @ u) == pytest.approx(0.5, rel=1e-12)


def test_element_ids_partition(square_mesh, box_mesh):
    for mesh in (square_mesh, box_mesh):
        ids = np.arange(mesh.num_elements)
        part_a = ids[ids % 3 == 0]
        part_b = ids[ids % 3 != 0]
        full = femcore.assemble_stiffness(mesh)
        ka = femcore.assemble_stiffness(mesh, element_ids=part_a)
        kb = femcore.assemble_stiffness(mesh, element_ids=part_b)
        assert np.abs((ka + kb - full).toarray()).max() < 1e-13


@functools.lru_cache(maxsize=None)
def _pattern_mesh(name, graded, levels):
    if name == "lshape":
        dom = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
    else:
        dom = geometry.build_polyhedron_3d(name)
    h = 0.25 if dom.dimension == 2 else 0.5
    grading = meshmod.default_grading(dom, 0.5) if graded else None
    m = meshmod.build_mesh(dom, h, grading=grading)
    return meshmod.refine(m, levels) if levels else m


def _mass_weight(p):
    return 1.0 + p[:, 0] ** 2 + np.sin(3.0 * p[:, -1])


def _vector_field(p):
    return np.column_stack([np.cos(2.0 * p[:, i]) + i for i in range(p.shape[1])])


_ASSEMBLE = {
    "stiffness": femcore.assemble_stiffness,
    "mass": functools.partial(femcore.assemble_weighted_mass,
                              weight_fn=_mass_weight),
    "gradvec": functools.partial(femcore.assemble_gradvec,
                                 vector_fn=_vector_field),
}


def _reference_blocks(mesh, form, elements):
    """The element blocks of one assembly on all the elements at once,
    from the kernels directly."""
    vols, grads = kernels.simplex_geometry(mesh.nodes, elements)
    if form == "stiffness":
        return kernels.local_stiffness(vols, grads)
    rule = femcore.simplex_rule(mesh.dimension, 2)
    pts = femcore.map_points(rule.bary, mesh.nodes, elements)
    flat = pts.reshape(-1, mesh.dimension)
    if form == "gradvec":
        qvals = _vector_field(flat).reshape(len(elements), len(rule.weights),
                                            mesh.dimension)
        qdotg = np.einsum("eqd,ejd->eqj", qvals, grads)
        return np.einsum("q,qi,eqj,e->eij", rule.weights, rule.bary, qdotg, vols)
    wvals = _mass_weight(flat).reshape(len(elements), len(rule.weights))
    return kernels.local_weighted_mass(
        kernels.simplex_volumes(mesh.nodes, elements), rule.bary,
        rule.weights, wvals)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["lshape", "box", "l_prism"]), st.booleans(),
       st.integers(min_value=0, max_value=1),
       st.sampled_from(sorted(_ASSEMBLE)),
       st.sampled_from([None, 0.0, 0.3, 0.8]),
       st.sampled_from([1, 2, 3, 7, kernels.BLOCK]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_assembly_scatters_into_the_coo_pattern(name, graded, levels, form,
                                               fraction, block, seed):
    """The pattern is coo_matrix(...).tocsr()'s, for the whole mesh and for
    element subsets, for every assembly routine and any element block
    size. Each entry is bit-equal to np.add.at of its
    element contributions in mesh order, on positions looked up in a dict,
    and within a few ulp of the tocsr sum."""
    mesh = _pattern_mesh(name, graded, levels)
    k = mesh.elements.shape[1]
    if fraction is None:
        ids, elements = None, mesh.elements
    else:
        rng = np.random.default_rng(seed)
        ids = np.flatnonzero(rng.random(mesh.num_elements) < fraction)
        elements = mesh.elements[ids]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        got = _ASSEMBLE[form](mesh, element_ids=ids)
    local = _reference_blocks(mesh, form, elements).ravel()
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    want = sp.coo_matrix((local, (rows, cols)), shape=got.shape).tocsr()
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)

    position = {}
    for r in range(got.shape[0]):
        for p in range(want.indptr[r], want.indptr[r + 1]):
            position[(r, int(want.indices[p]))] = p
    slot = np.array([position[(r, c)] for r, c in zip(rows.tolist(),
                                                      cols.tolist())],
                    dtype=np.int64)
    ordered = np.zeros(want.nnz)
    np.add.at(ordered, slot, local)
    assert got.data.tobytes() == ordered.tobytes()
    scale = np.zeros(want.nnz)
    np.add.at(scale, slot, np.abs(local))
    assert np.all(np.abs(got.data - want.data)
                  <= 4 * np.finfo(float).eps * scale)


def test_weighted_mass_holds_one_block_at_a_time(box, monkeypatch):
    """assemble_weighted_mass computes and scatters one block of elements
    at a time: its traced peak, less the matrix it returns, stays within
    a few blocks' quadrature points, however many elements the mesh has."""
    block = 32
    mesh = meshmod.refine(meshmod.build_mesh(box, 0.5), 2)
    assert mesh.num_elements >= 8 * block
    rule = femcore.simplex_rule(3, 5)
    one_block = block * len(rule.weights) * 3 * 8  # (BLOCK, Q, 3) doubles
    monkeypatch.setattr(kernels, "BLOCK", block)
    mesh.pattern  # built once per mesh, before the assembly
    tracemalloc.start()
    try:
        got = femcore.assemble_weighted_mass(mesh, _mass_weight, degree=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = got.data.nbytes + got.indices.nbytes + got.indptr.nbytes
    assert peak - held < 8 * one_block


def test_constructive_kappa_builds_the_pattern_once(lshape, lshape_mesh,
                                                   monkeypatch):
    """Every assembly of one certificate shares one pattern, and none
    converts a COO stream to CSR."""
    mesh = dataclasses.replace(lshape_mesh)
    builds, conversions = [], []
    inside = [False]
    build = meshmod.element_pattern
    monkeypatch.setattr(meshmod, "element_pattern",
                        lambda *a: builds.append(1) or build(*a))
    assemble = femcore._assemble_local

    def traced(*args, **kwargs):
        inside[0] = True
        try:
            return assemble(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(femcore, "_assemble_local", traced)
    for cls in (sp.coo_matrix, sp.csr_matrix):
        convert = cls.tocsr

        def counted(self, *a, convert=convert, **kw):
            if inside[0]:
                conversions.append(type(self).__name__)
            return convert(self, *a, **kw)

        monkeypatch.setattr(cls, "tocsr", counted)
    init = sp.coo_matrix.__init__

    def coo_init(self, *a, **kw):
        if inside[0]:
            conversions.append("coo_matrix")
        init(self, *a, **kw)

    monkeypatch.setattr(sp.coo_matrix, "__init__", coo_init)
    cert = poincare.constructive_kappa(lshape, mesh, samples=300)
    assert cert.passed
    assert builds == [1]
    assert conversions == []


def test_pattern_guards_int32_positions(square_mesh, monkeypatch):
    monkeypatch.setattr(meshmod, "PATTERN_NNZ_MAX", 100)
    with pytest.raises(MeshSizeError, match="int32"):
        meshmod.element_pattern(square_mesh.elements, square_mesh.num_nodes)
    monkeypatch.setattr(meshmod, "PATTERN_NNZ_MAX",
                        len(square_mesh.pattern.indices))
    pattern = meshmod.element_pattern(square_mesh.elements,
                                      square_mesh.num_nodes)
    assert np.array_equal(pattern.slot, square_mesh.pattern.slot)


def test_load_vector(square_mesh):
    b = femcore.assemble_load(square_mesh, lambda p: np.ones(len(p)))
    assert b.sum() == pytest.approx(1.0, rel=1e-12)
    # linear functional of an affine test function is exact
    u = femcore.interpolate(square_mesh, lambda p: p[:, 1]).values
    assert u @ b == pytest.approx(0.5, rel=1e-12)


def test_dirichlet_solve_reproduces_affine(square_mesh):
    k = femcore.assemble_stiffness(square_mesh)
    g = lambda p: 0.25 + p[:, 0] - 2.0 * p[:, 1]
    exact = femcore.interpolate(square_mesh, g).values
    constrained = square_mesh.boundary_node_mask()
    a_ff, a_fc, free, fixed = femcore.split_dirichlet(k, constrained)
    rhs = -a_fc @ exact[fixed]
    x, info = femcore.cg_solve(a_ff, rhs, tol=1e-13)
    u = exact.copy()
    u[free] = x
    assert np.abs(u - exact).max() < 1e-10
    assert info["iterations"] >= 1


def test_cg_errors():
    bad = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(IndefiniteOperatorError):
        femcore.cg_solve(bad, np.ones(2))
    indef = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(IndefiniteOperatorError):
        femcore.cg_solve(indef, np.array([1.0, -1.0]))
    big = sp.csr_matrix(np.diag(np.linspace(1.0, 1e6, 50))
                        + 0.5 * np.ones((50, 50)))
    with pytest.raises(ConvergenceError):
        femcore.cg_solve(big, np.ones(50), maxiter=2)


def test_cg_zero_iterations_reports_residual():
    a = sp.identity(4, format="csr")
    with pytest.raises(ConvergenceError) as err:
        femcore.cg_solve(a, np.ones(4), maxiter=0)
    assert err.value.residual == 1.0


def test_generalized_eig_diagonal():
    a = sp.csr_matrix(np.diag([1.0, 2.0, 5.0]))
    b = sp.identity(3, format="csr")
    lam, vec, info = femcore.generalized_eig_extreme(a, b, which="min")
    assert lam == pytest.approx(1.0, rel=1e-8)
    assert np.abs(vec[1:]).max() < 1e-4
    # below LOBPCG's size the pencil is solved densely, with no warning
    assert info["iterations"] == 0
    lam_max, _, info = femcore.generalized_eig_extreme(a, b, which="max")
    assert lam_max == pytest.approx(5.0, rel=1e-8)
    assert info["iterations"] == 0
    with pytest.raises(ValueError):
        femcore.generalized_eig_extreme(a, b, which="middle")


def test_generalized_eig_dirichlet_laplacian(square_mesh):
    k = femcore.assemble_stiffness(square_mesh)
    m = femcore.assemble_weighted_mass(square_mesh,
                                       lambda p: np.ones(len(p)), degree=5)
    constrained = square_mesh.boundary_node_mask()
    k_ff, _, _, _ = femcore.split_dirichlet(k, constrained)
    m_ff, _, _, _ = femcore.split_dirichlet(m, constrained)
    lam, _, _ = femcore.generalized_eig_extreme(k_ff, m_ff, which="min")
    # first Dirichlet eigenvalue of the unit square is 2 pi^2; P1 on
    # h = 1/8 overestimates by O(h^2)
    assert lam == pytest.approx(2.0 * math.pi ** 2, rel=0.05)
    assert lam > 2.0 * math.pi ** 2


def test_solve_reports_method_and_true_residual(square_mesh):
    """CG for SPD systems, one LU otherwise; a singular LU is a
    ConvergenceError."""
    k = femcore.assemble_stiffness(square_mesh)
    k_ff, _, _, _ = femcore.split_dirichlet(k, square_mesh.boundary_node_mask())
    rhs = np.linspace(1.0, 2.0, k_ff.shape[0])
    for symmetric, method in ((True, "cg"), (False, "direct_lu")):
        x, info = femcore.solve(k_ff, rhs, tol=1e-12, symmetric=symmetric)
        assert info["method"] == method
        res = rhs - k_ff @ x
        assert info["residual"] == pytest.approx(
            np.linalg.norm(res) / np.linalg.norm(rhs), rel=1e-6, abs=1e-15)
        assert info["residual"] <= 1e-11
    assert info["iterations"] == 1
    singular = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ConvergenceError, match="factorization failed"):
        femcore.solve(singular, np.ones(2), symmetric=False)


def _count_splu(monkeypatch):
    calls = []
    real = scipy.sparse.linalg.splu

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.nnz / matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return calls


def _dirichlet_pencil(mesh):
    k = femcore.assemble_stiffness(mesh)
    m = femcore.assemble_weighted_mass(mesh, lambda p: np.ones(len(p)))
    constrained = mesh.boundary_node_mask()
    return (femcore.split_dirichlet(k, constrained)[0],
            femcore.split_dirichlet(m, constrained)[0])


def test_eigensolve_factors_2d_pencil_once(monkeypatch, lshape_mesh):
    calls = _count_splu(monkeypatch)
    k_ff, m_ff = _dirichlet_pencil(lshape_mesh)
    _, _, info = femcore.generalized_eig_extreme(k_ff, m_ff, which="min")
    assert info["iterations"] > 1
    assert len(calls) == 1 and calls[0] <= femcore.LU_MAX_ROW_NNZ
    femcore.generalized_eig_extreme(m_ff, k_ff, which="max")
    assert len(calls) == 2


def test_eigensolve_iterates_on_dense_3d_pencil(monkeypatch, box):
    calls = _count_splu(monkeypatch)
    k_ff, m_ff = _dirichlet_pencil(meshmod.build_mesh(box, 0.125))
    assert k_ff.nnz / k_ff.shape[0] > femcore.LU_MAX_ROW_NNZ
    lam, _, _ = femcore.generalized_eig_extreme(k_ff, m_ff, which="min")
    assert calls == []
    # first Dirichlet eigenvalue of the unit cube is 3 pi^2; P1
    # overestimates it
    assert lam == pytest.approx(3.0 * math.pi ** 2, rel=0.1)
    assert lam > 3.0 * math.pi ** 2


def _free_system(mesh):
    """K_ff, the free nodes and the free-node hierarchy of a mesh."""
    free = np.where(~mesh.boundary_node_mask())[0]
    k_ff = femcore.assemble_stiffness(mesh)[free][:, free].tocsr()
    return k_ff, free, meshmod.free_prolongations(mesh.prolongations, free)


@pytest.mark.parametrize("case", ["graded_lshape", "box"])
def test_vcycle_cg_matches_direct_solve(case, lshape, box):
    if case == "box":
        mesh = meshmod.refine(meshmod.build_mesh(box, 0.25), 2)
    else:
        grading = meshmod.default_grading(lshape, 0.5)
        mesh = meshmod.refine(meshmod.build_mesh(lshape, 0.25, grading=grading),
                              3, grading=grading)
    k_ff, free, hierarchy = _free_system(mesh)
    assert len(hierarchy) == len(mesh.prolongations) > 1
    rhs = np.random.default_rng(3).standard_normal(len(free))
    x, info = femcore.cg_solve(k_ff, rhs, tol=1e-12, hierarchy=hierarchy)
    want = scipy.sparse.linalg.spsolve(k_ff.tocsc(), rhs)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    assert info["iterations"] <= 30 and info["residual"] <= 1e-12
    _, jacobi = femcore.cg_solve(k_ff, rhs, tol=1e-12)
    assert jacobi["iterations"] > 3 * info["iterations"]


def _weighted_pencil(domain, mesh):
    """(M_w, K, M) on the free nodes, M_w the 1/eta^2 weighted mass."""
    from klab import weights
    k_ff, free, hierarchy = _free_system(mesh)
    inv_sq = weights.power_weight(weights.eta_field(domain), -2.0)
    m_w = femcore.assemble_weighted_mass(mesh, inv_sq, degree=5)
    m = femcore.assemble_weighted_mass(mesh, lambda p: np.ones(len(p)))
    return (m_w[free][:, free].tocsr(), k_ff, m[free][:, free].tocsr(),
            hierarchy)


@pytest.mark.parametrize("with_hierarchy", [True, False])
@pytest.mark.parametrize("case", ["graded_lshape", "box"])
def test_eigensolve_matches_dense(case, with_hierarchy, lshape, box):
    """LOBPCG's extreme eigenvalues agree with a dense solve, with the
    V-cycle and with the fallback preconditioners (SuperLU in 2D,
    Jacobi in 3D)."""
    if case == "box":
        domain, mesh = box, meshmod.refine(meshmod.build_mesh(box, 0.5), 2)
    else:
        grading = meshmod.default_grading(lshape, 0.5)
        domain = lshape
        mesh = meshmod.refine(meshmod.build_mesh(lshape, 0.5, grading=grading),
                              2, grading=grading)
    m_w, k_ff, m_ff, hierarchy = _weighted_pencil(domain, mesh)
    hierarchy = hierarchy if with_hierarchy else ()
    lam_min, x, info = femcore.generalized_eig_extreme(
        k_ff, m_ff, which="min", hierarchy=hierarchy)
    want = scipy.linalg.eigh(k_ff.toarray(), m_ff.toarray(),
                             eigvals_only=True)[0]
    assert abs(lam_min - want) <= 1e-10 * want
    assert info["converged"] and info["residual"] <= 1e-8
    r = k_ff @ x - lam_min * (m_ff @ x)
    assert np.linalg.norm(r) <= 1e-8 * lam_min * np.linalg.norm(m_ff @ x)

    lam_max, _, info = femcore.generalized_eig_extreme(
        m_w, k_ff, which="max", hierarchy=hierarchy)
    want = scipy.linalg.eigh(m_w.toarray(), k_ff.toarray(),
                             eigvals_only=True)[-1]
    assert abs(lam_max - want) <= 1e-10 * want
    assert info["converged"] and info["residual"] <= 1e-8


def test_eigensolve_reports_nonconvergence(lshape):
    grading = meshmod.default_grading(lshape, 0.5)
    mesh = meshmod.refine(meshmod.build_mesh(lshape, 0.5, grading=grading),
                          2, grading=grading)
    m_w, k_ff, _, hierarchy = _weighted_pencil(lshape, mesh)
    # scipy's lobpcg warns that it stopped short of its tolerance
    with pytest.raises(ConvergenceError) as err, pytest.warns(UserWarning):
        femcore.generalized_eig_extreme(m_w, k_ff, which="max", maxiter=1,
                                        hierarchy=hierarchy)
    assert err.value.residual > 1e-8
