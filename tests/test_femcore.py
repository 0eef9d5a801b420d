"""Quadrature exactness, assembly identities and linear algebra."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from klab import femcore, mesh as meshmod
from klab.errors import (ConvergenceError, IndefiniteOperatorError,
                         UnsupportedDegreeError)


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
    rng = np.random.default_rng(3)
    probes = 0.05 + 0.9 * rng.random((40, 2))
    assert np.allclose(field(probes), f(probes), atol=1e-12)
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


def test_gradient_operators_match(square_mesh):
    field = femcore.interpolate(square_mesh,
                                lambda p: np.sin(p[:, 0]) * p[:, 1])
    egrad = field.element_gradients()
    ops = femcore.element_gradient_operator(square_mesh)
    for c, op in enumerate(ops):
        assert np.allclose(op @ field.values, egrad[:, c])
    rec = femcore.recover_gradient(field)
    rops = femcore.recovery_operator(square_mesh)
    for c, op in enumerate(rops):
        assert np.allclose(op @ field.values, rec[:, c])


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


def test_weighted_stiffness_constant_weight(square_mesh):
    k = femcore.assemble_stiffness(square_mesh)
    kw = femcore.assemble_weighted_stiffness(square_mesh,
                                             lambda p: 2.0 * np.ones(len(p)))
    assert np.abs((kw - 2.0 * k).toarray()).max() < 1e-13


def test_gradvec_against_quadrature(square_mesh):
    # b(u, v) = integral (q . grad u) v with q = (1, 0): for u = x, v = x
    # this is integral x = 1/2
    g = femcore.assemble_gradvec(
        square_mesh, lambda p: np.column_stack([np.ones(len(p)),
                                                np.zeros(len(p))]))
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0]).values
    assert u @ (g.T @ u) == pytest.approx(0.5, rel=1e-12)


def test_element_ids_partition(square_mesh):
    ids = np.arange(square_mesh.num_elements)
    part_a = ids[ids % 3 == 0]
    part_b = ids[ids % 3 != 0]
    full = femcore.assemble_stiffness(square_mesh)
    ka = femcore.assemble_stiffness(square_mesh, element_ids=part_a)
    kb = femcore.assemble_stiffness(square_mesh, element_ids=part_b)
    assert np.abs((ka + kb - full).toarray()).max() < 1e-13


def test_load_vector(square_mesh):
    b = femcore.assemble_load(square_mesh, lambda p: np.ones(len(p)))
    assert b.sum() == pytest.approx(1.0, rel=1e-12)
    # linear functional of an affine test function is exact
    u = femcore.interpolate(square_mesh, lambda p: p[:, 1]).values
    assert u @ b == pytest.approx(0.5, rel=1e-12)


def test_boundary_mass(square_mesh):
    bm = femcore.assemble_boundary_mass(square_mesh,
                                        lambda p: np.ones(len(p)))
    ones = np.ones(square_mesh.num_nodes)
    assert ones @ (bm @ ones) == pytest.approx(4.0, rel=1e-12)
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0]).values
    # integral of x^2 over the boundary: two vertical sides give 0 and 1,
    # two horizontal sides give 1/3 each
    assert u @ (bm @ u) == pytest.approx(1.0 + 2.0 / 3.0, rel=1e-12)


def test_facet_measures(box_mesh):
    meas = femcore.facet_measures(box_mesh.nodes, box_mesh.boundary_facets)
    assert meas.sum() == pytest.approx(6.0, rel=1e-12)


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


def test_cgnr_nonsymmetric():
    rng = np.random.default_rng(11)
    a = sp.csr_matrix(np.eye(30) + 0.1 * rng.standard_normal((30, 30)))
    x_true = rng.standard_normal(30)
    x, info = femcore.cgnr_solve(a, a @ x_true, tol=1e-12)
    assert np.abs(x - x_true).max() < 1e-8
    assert info["residual"] < 1e-8


def test_generalized_eig_diagonal():
    a = sp.csr_matrix(np.diag([1.0, 2.0, 5.0]))
    b = sp.identity(3, format="csr")
    lam, vec, info = femcore.generalized_eig_extreme(a, b, which="min")
    assert lam == pytest.approx(1.0, rel=1e-8)
    assert np.abs(vec[1:]).max() < 1e-4
    lam_max, _, _ = femcore.generalized_eig_extreme(a, b, which="max")
    assert lam_max == pytest.approx(5.0, rel=1e-8)
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
    with pytest.raises(ConvergenceError) as err:
        femcore.generalized_eig_extreme(m_w, k_ff, which="max", maxiter=1,
                                        hierarchy=hierarchy)
    assert err.value.residual > 1e-8


def test_operator_round_trip(tmp_path, square_mesh):
    k = femcore.assemble_stiffness(square_mesh)
    path = tmp_path / "op.txt"
    femcore.dump_operator(path, k)
    back = femcore.load_operator(path)
    assert (k != back).nnz == 0
    path2 = tmp_path / "op2.txt"
    femcore.dump_operator(path2, back)
    assert path.read_bytes() == path2.read_bytes()
