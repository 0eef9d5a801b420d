"""Piecewise-linear finite elements on simplicial meshes.

Contains the quadrature tables (all rules have strictly interior
points and positive weights, which matters because the coefficients we
integrate blow up at the boundary of some elements), matrix assembly
for weighted stiffness and mass forms, and the SPD solvers. The solvers
run on the nested hierarchy that mesh refinement records: v_cycle is a
geometric multigrid V-cycle on it (Bramble, Pasciak and Xu 1990),
cg_solve is conjugate gradients preconditioned by that V-cycle (Jacobi
without a hierarchy), and generalized_eig_extreme is LOBPCG
(Knyazev 2001) preconditioned by it (by one SuperLU factor or Jacobi
without a hierarchy). Both solvers report iterations and residuals.
Assembly walks elements in mesh order so matrices are reproducible;
optional worker threads split the element range but merge their
blocks in task order.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from . import kernels
from .config import worker_count
from .errors import (ConvergenceError, IndefiniteOperatorError,
                     UnsupportedDegreeError)
from .mesh import SimplicialMesh

MAX_DEGREE = 5
# Average nonzeros per row up to which an eigensolve without a hierarchy
# is preconditioned by a SuperLU factor: P1 has 6-7 in 2D and on
# surfaces, where the factor is cheap, and about 14 in 3D, where its
# fill-in costs far more than the iterations. Above it the V-cycle
# smooths with a smaller Jacobi damping.
LU_MAX_ROW_NNZ = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights on the reference simplex.

    Weights sum to one; integrals are vol(T) * sum(w_q * f(x_q)).
    """

    dim: int
    degree: int
    bary: np.ndarray
    weights: np.ndarray


def _dedup_orbit(groups):
    from itertools import permutations
    pts, wts = [], []
    for values, w in groups:
        seen = []
        for perm in sorted(set(permutations(values))):
            seen.append(perm)
        for p in seen:
            pts.append(p)
            wts.append(w)
    return np.array(pts, dtype=float), np.array(wts, dtype=float)


_SQRT15 = math.sqrt(15.0)

_TRIANGLE_TABLE = {
    1: ([((1 / 3, 1 / 3, 1 / 3), 1.0)]),
    2: ([((2 / 3, 1 / 6, 1 / 6), 1 / 3)]),
    4: ([((0.108103018168070, 0.445948490915965, 0.445948490915965),
          0.223381589678011),
         ((0.816847572980459, 0.091576213509771, 0.091576213509771),
          0.109951743655322)]),
    5: ([((1 / 3, 1 / 3, 1 / 3), 9 / 40),
         ((1 - 2 * (6 - _SQRT15) / 21, (6 - _SQRT15) / 21, (6 - _SQRT15) / 21),
          (155 - _SQRT15) / 1200),
         ((1 - 2 * (6 + _SQRT15) / 21, (6 + _SQRT15) / 21, (6 + _SQRT15) / 21),
          (155 + _SQRT15) / 1200)]),
}

_TET_B1 = 0.3108859192633005
_TET_B2 = 0.09273525031089123
_TET_C = 0.04550370412564964

_TET_TABLE = {
    1: ([((1 / 4, 1 / 4, 1 / 4, 1 / 4), 1.0)]),
    2: ([(((5 + 3 * math.sqrt(5)) / 20, (5 - math.sqrt(5)) / 20,
           (5 - math.sqrt(5)) / 20, (5 - math.sqrt(5)) / 20), 1 / 4)]),
    5: ([((1 - 3 * _TET_B1, _TET_B1, _TET_B1, _TET_B1), 0.11268792571801585),
         ((1 - 3 * _TET_B2, _TET_B2, _TET_B2, _TET_B2), 0.07349304311636196),
         ((0.5 - _TET_C, 0.5 - _TET_C, _TET_C, _TET_C), 0.04254602077708147)]),
}


def _resolve(table, degree):
    for d in sorted(table):
        if d >= degree:
            return table[d]
    raise UnsupportedDegreeError(
        f"quadrature degree {degree} exceeds the supported maximum {MAX_DEGREE}")


def simplex_rule(dim: int, degree: int) -> QuadratureRule:
    """Interior positive-weight rule exact for polynomials of the degree."""
    if degree < 1:
        raise UnsupportedDegreeError("quadrature degree must be >= 1")
    if dim == 1:
        npts = (degree + 2) // 2
        x, w = np.polynomial.legendre.leggauss(npts)
        t = 0.5 * (x + 1.0)
        bary = np.column_stack([1.0 - t, t])
        return QuadratureRule(1, 2 * npts - 1, bary, w / 2.0)
    if dim == 2:
        groups = _resolve(_TRIANGLE_TABLE, degree)
    elif dim == 3:
        groups = _resolve(_TET_TABLE, degree)
    else:
        raise UnsupportedDegreeError(f"no quadrature for dimension {dim}")
    bary, weights = _dedup_orbit(groups)
    return QuadratureRule(dim, degree, bary, weights)


def quadrature_points(mesh: SimplicialMesh, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points, shape (E, Q, d)."""
    el = mesh.nodes[mesh.elements]
    return np.einsum("qi,eid->eqd", rule.bary, el)


# ---------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------


@dataclass
class FemField:
    """Continuous piecewise-linear function given by nodal values."""

    mesh: SimplicialMesh
    values: np.ndarray

    def at_quadrature(self, rule: QuadratureRule) -> np.ndarray:
        nodal = self.values[self.mesh.elements]
        return nodal @ rule.bary.T

    def element_gradients(self) -> np.ndarray:
        _, grads = kernels.simplex_geometry(self.mesh.nodes, self.mesh.elements)
        nodal = self.values[self.mesh.elements]
        return np.einsum("ei,eid->ed", nodal, grads)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return evaluate_field(self, points)


def interpolate(mesh: SimplicialMesh, fun) -> FemField:
    """Nodal interpolant of a function of an (N, d) coordinate array."""
    vals = np.asarray(fun(mesh.nodes), dtype=float)
    if vals.shape != (mesh.num_nodes,):
        raise ValueError("interpolated function must return one value per node")
    return FemField(mesh, vals)


def evaluate_field(field: FemField, points: np.ndarray) -> np.ndarray:
    """Pointwise evaluation by brute-force element location."""
    mesh = field.mesh
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vols, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    out = np.full(len(points), np.nan)
    anchors = mesh.nodes[mesh.elements[:, 0]]
    for p_idx, p in enumerate(points):
        lam_rest = np.einsum("eid,d->ei", grads[:, 1:, :], p) - \
            np.einsum("eid,ed->ei", grads[:, 1:, :], anchors)
        lam0 = 1.0 - lam_rest.sum(axis=1)
        lam = np.column_stack([lam0, lam_rest])
        ok = np.all(lam >= -1e-10, axis=1)
        if not ok.any():
            continue
        e = int(np.argmax(ok))
        out[p_idx] = lam[e] @ field.values[mesh.elements[e]]
    return out


def recover_gradient(field: FemField) -> np.ndarray:
    """Volume-weighted nodal average of the element gradients, (N, d)."""
    mesh = field.mesh
    vols = mesh.element_volumes()
    egrad = field.element_gradients()
    acc = np.zeros((mesh.num_nodes, mesh.dimension))
    wsum = np.zeros(mesh.num_nodes)
    for i in range(mesh.elements.shape[1]):
        np.add.at(acc, mesh.elements[:, i], vols[:, None] * egrad)
        np.add.at(wsum, mesh.elements[:, i], vols)
    return acc / wsum[:, None]


def element_gradient_operator(mesh: SimplicialMesh) -> list:
    """Sparse maps from nodal values to constant element gradients.

    One (E, N) matrix per coordinate direction.
    """
    _, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    n, e, k = mesh.num_nodes, mesh.num_elements, mesh.elements.shape[1]
    rows = np.repeat(np.arange(e), k)
    cols = mesh.elements.ravel()
    return [sp.coo_matrix((grads[:, :, c].ravel(), (rows, cols)),
                          shape=(e, n)).tocsr()
            for c in range(mesh.dimension)]


def recovery_operator(mesh: SimplicialMesh) -> list:
    """Sparse maps from nodal values to recovered nodal gradients.

    One (N, N) matrix per coordinate direction; rows are the
    volume-weighted averages used by recover_gradient.
    """
    vols = mesh.element_volumes()
    _, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    n, k = mesh.num_nodes, mesh.elements.shape[1]
    wsum = np.zeros(n)
    for i in range(k):
        np.add.at(wsum, mesh.elements[:, i], vols)
    out = []
    for c in range(mesh.dimension):
        rows, cols, vals = [], [], []
        for i in range(k):
            rows.append(np.repeat(mesh.elements[:, i], k))
            cols.append(mesh.elements.ravel())
            vals.append((vols[:, None] * grads[:, :, c]).ravel())
        mat = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n)).tocsr()
        out.append(sp.diags(1.0 / wsum) @ mat)
    return out


def element_hessians(field: FemField) -> np.ndarray:
    """Constant per-element Hessian surrogate from the recovered gradient.

    Differentiates the P1 interpolant of each recovered gradient
    component and symmetrizes; shape (E, d, d).
    """
    mesh = field.mesh
    gnodes = recover_gradient(field)
    _, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    h = np.einsum("eic,eid->ecd", gnodes[mesh.elements], grads)
    return 0.5 * (h + np.transpose(h, (0, 2, 1)))


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------


def _element_ranges(n_elements: int, workers: int):
    chunk = (n_elements + workers - 1) // workers
    return [(s, min(s + chunk, n_elements))
            for s in range(0, n_elements, chunk)] if n_elements else []


def _assemble_local(mesh: SimplicialMesh, local_fn, element_ids=None) -> sp.csr_matrix:
    """Scatter per-element dense blocks into a CSR matrix.

    local_fn(elems) maps a (m, k) element-node chunk to the (m, k, k)
    block stack. element_ids restricts assembly to a subset. Worker
    results are concatenated in task order, so the COO stream does not
    depend on scheduling.
    """
    n = mesh.num_nodes
    if element_ids is None:
        elements = mesh.elements
    else:
        elements = mesh.elements[np.asarray(element_ids, dtype=np.int64)]
    k = mesh.elements.shape[1]
    workers = min(worker_count(), max(1, len(elements)))
    ranges = _element_ranges(len(elements), workers)
    if workers == 1 or len(ranges) <= 1:
        blocks = [local_fn(elements[s:e]) for s, e in ranges]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(lambda r: local_fn(elements[r[0]:r[1]]), ranges))
    if not blocks:
        return sp.csr_matrix((n, n))
    local = np.concatenate(blocks, axis=0)
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_stiffness(mesh: SimplicialMesh, element_ids=None) -> sp.csr_matrix:
    """Matrix of integral of grad(u) . grad(v)."""
    nodes = mesh.nodes

    def local(elems):
        vols, grads = kernels.simplex_geometry(nodes, elems)
        return kernels.local_stiffness(vols, grads)

    return _assemble_local(mesh, local, element_ids)


def assemble_weighted_mass(mesh: SimplicialMesh, weight_fn, degree: int = 2,
                           element_ids=None) -> sp.csr_matrix:
    """Matrix of integral of w(x) u v with the given quadrature degree."""
    rule = simplex_rule(mesh.dimension, degree)
    nodes = mesh.nodes

    def local(elems):
        vols, _ = kernels.simplex_geometry(nodes, elems)
        pts = np.einsum("qi,eid->eqd", rule.bary, nodes[elems])
        wvals = np.asarray(weight_fn(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(vols), -1)
        return kernels.local_weighted_mass(vols, rule.bary, rule.weights, wvals)

    return _assemble_local(mesh, local, element_ids)


def assemble_weighted_stiffness(mesh: SimplicialMesh, weight_fn, degree: int = 2,
                                element_ids=None) -> sp.csr_matrix:
    """Matrix of integral of w(x) grad(u) . grad(v)."""
    rule = simplex_rule(mesh.dimension, degree)
    nodes = mesh.nodes

    def local(elems):
        vols, grads = kernels.simplex_geometry(nodes, elems)
        pts = np.einsum("qi,eid->eqd", rule.bary, nodes[elems])
        wvals = np.asarray(weight_fn(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(vols), -1)
        wavg = wvals @ rule.weights
        return kernels.local_stiffness(vols * wavg, grads)

    return _assemble_local(mesh, local, element_ids)


def assemble_gradvec(mesh: SimplicialMesh, vector_fn, degree: int = 2,
                     element_ids=None) -> sp.csr_matrix:
    """Matrix of integral of (q(x) . grad(u)) v for a vector field q."""
    rule = simplex_rule(mesh.dimension, degree)
    nodes = mesh.nodes

    def local(elems):
        vols, grads = kernels.simplex_geometry(nodes, elems)
        pts = np.einsum("qi,eid->eqd", rule.bary, nodes[elems])
        qvals = np.asarray(vector_fn(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(vols), len(rule.weights), -1)
        qdotg = np.einsum("eqd,ejd->eqj", qvals, grads)
        return np.einsum("q,qi,eqj,e->eij", rule.weights, rule.bary, qdotg, vols)

    return _assemble_local(mesh, local, element_ids)


def assemble_load(mesh: SimplicialMesh, fun, degree: int = 2) -> np.ndarray:
    """Vector of integral of f v."""
    rule = simplex_rule(mesh.dimension, degree)
    vols, _ = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    pts = quadrature_points(mesh, rule)
    fvals = np.asarray(fun(pts.reshape(-1, mesh.dimension)),
                       dtype=float).reshape(mesh.num_elements, -1)
    contrib = np.einsum("e,q,eq,qi->ei", vols, rule.weights, fvals, rule.bary)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.elements.ravel(), contrib.ravel())
    return out


def facet_measures(nodes: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Length (2D) or area (3D) of boundary facets."""
    pts = nodes[facets]
    if facets.shape[1] == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def boundary_rule(mesh: SimplicialMesh, degree: int) -> QuadratureRule:
    return simplex_rule(mesh.dimension - 1, degree)


def assemble_boundary_mass(mesh: SimplicialMesh, weight_fn,
                           degree: int = 2) -> sp.csr_matrix:
    """Matrix of the boundary integral of w(x) u v over all facets."""
    facets = mesh.boundary_facets
    n, k = mesh.num_nodes, facets.shape[1]
    if not len(facets):
        return sp.csr_matrix((n, n))
    rule = boundary_rule(mesh, degree)
    meas = facet_measures(mesh.nodes, facets)
    pts = np.einsum("qi,bid->bqd", rule.bary, mesh.nodes[facets])
    wvals = np.asarray(weight_fn(pts.reshape(-1, mesh.dimension)),
                       dtype=float).reshape(len(facets), -1)
    local = np.einsum("q,eq,qi,qj,e->eij", rule.weights, wvals,
                      rule.bary, rule.bary, meas)
    rows = np.repeat(facets, k, axis=1).ravel()
    cols = np.tile(facets, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------


def split_dirichlet(matrix: sp.csr_matrix, constrained: np.ndarray):
    """Row/column split into free-free and free-constrained blocks."""
    free = np.where(~constrained)[0]
    fixed = np.where(constrained)[0]
    a_ff = matrix[free][:, free].tocsr()
    a_fc = matrix[free][:, fixed].tocsr()
    return a_ff, a_fc, free, fixed


def v_cycle(matrix, hierarchy=()):
    """Symmetric multigrid V-cycle for an SPD matrix: apply(r) ~ A^-1 r.

    hierarchy holds the prolongations between the free nodes of nested
    levels, coarse first (mesh.free_prolongations), the last one ending
    at the matrix's rows. Coarse operators are the Galerkin products
    P^T A P. Each level smooths with 2 damped Jacobi sweeps before the
    coarse correction and 2 after it; the coarsest level is solved by
    one SuperLU factor. With no hierarchy the cycle is that factor.
    """
    omega = 0.6 if matrix.nnz > LU_MAX_ROW_NNZ * matrix.shape[0] else 0.8
    levels = []
    a_mat = matrix.tocsr()
    for p in reversed(hierarchy):
        levels.append((a_mat, omega / a_mat.diagonal(), p))
        a_mat = (p.T @ a_mat @ p).tocsr()
    coarse = scipy.sparse.linalg.splu(a_mat.tocsc()).solve
    del a_mat

    # A loop over the levels, not a recursive closure: a closure that
    # refers to itself is a reference cycle and would keep every level
    # alive until the garbage collector runs.
    def apply(r):
        rhs, smoothed = [], []
        for a_l, d_l, p in levels:
            x = d_l * r
            x += d_l * (r - a_l @ x)
            rhs.append(r)
            smoothed.append(x)
            r = p.T @ (r - a_l @ x)
        x = coarse(r)
        for (a_l, d_l, p), r, x_l in zip(reversed(levels), reversed(rhs),
                                         reversed(smoothed)):
            x = x_l + p @ x
            for _ in range(2):
                x += d_l * (r - a_l @ x)
        return x

    return apply


def cg_solve(matrix, rhs, tol: float = 1e-10, maxiter: int | None = None,
             hierarchy: tuple = ()) -> tuple[np.ndarray, dict]:
    """Preconditioned conjugate gradients for SPD systems.

    The preconditioner is the multigrid v_cycle on hierarchy when one is
    given (mesh.free_prolongations of the system's free nodes) and
    Jacobi otherwise. Stops when the residual is at most tol times the
    right-hand side's norm. Raises IndefiniteOperatorError on negative
    curvature and ConvergenceError if the residual target is not met.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0), {"iterations": 0, "residual": 0.0}
    diag = np.asarray(matrix.diagonal(), dtype=float)
    if np.any(diag <= 0.0):
        raise IndefiniteOperatorError("operator has a nonpositive diagonal entry")
    if hierarchy:
        precondition = v_cycle(matrix, hierarchy)
    else:
        inv_diag = 1.0 / diag

        def precondition(r):
            return inv_diag * r
    x = np.zeros(n)
    r = np.array(rhs, dtype=float)
    rhs_norm = math.sqrt(max(kernels.neumaier_dot(rhs, rhs), 0.0))
    if rhs_norm == 0.0:
        return np.zeros(n), {"iterations": 0, "residual": 0.0}
    z = precondition(r)
    p = z.copy()
    rz = kernels.neumaier_dot(r, z)
    res = math.sqrt(max(kernels.neumaier_dot(r, r), 0.0))
    if maxiter is None:
        maxiter = max(1000, 20 * n)
    for it in range(1, maxiter + 1):
        ap = matrix @ p
        pap = kernels.neumaier_dot(p, ap)
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                f"negative curvature encountered at iteration {it}")
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        res = math.sqrt(max(kernels.neumaier_dot(r, r), 0.0))
        if res <= tol * rhs_norm:
            return x, {"iterations": it, "residual": res / rhs_norm}
        z = precondition(r)
        rz_new = kernels.neumaier_dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradients stalled after {maxiter} iterations",
        residual=res / rhs_norm)


def cgnr_solve(matrix, rhs, tol: float = 1e-10,
               maxiter: int | None = None) -> tuple[np.ndarray, dict]:
    """Least-squares CG on the normal equations for nonsymmetric systems."""
    at = matrix.T.tocsr()
    normal = (at @ matrix).tocsr()
    x, info = cg_solve(normal, at @ rhs, tol=tol, maxiter=maxiter)
    res = rhs - matrix @ x
    info = dict(info)
    rhs_norm = math.sqrt(max(kernels.neumaier_dot(rhs, rhs), 1e-300))
    info["residual"] = math.sqrt(max(kernels.neumaier_dot(res, res), 0.0)) / rhs_norm
    return x, info


def _start_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(20240917)
    v = 1.0 + 0.01 * rng.standard_normal(n)
    return v / math.sqrt(kernels.neumaier_dot(v, v))


def _rayleigh(a_mat, b_mat, x):
    """(lambda, B-normalized x, relative residual, |lambda| norm(B x))."""
    bx = b_mat @ x
    norm = math.sqrt(kernels.neumaier_dot(x, bx))
    x, bx = x / norm, bx / norm
    lam = kernels.neumaier_dot(x, a_mat @ x)
    r = a_mat @ x - lam * bx
    scale = abs(lam) * math.sqrt(kernels.neumaier_dot(bx, bx))
    return lam, x, math.sqrt(kernels.neumaier_dot(r, r)) / scale, scale


def generalized_eig_extreme(a_mat, b_mat, which: str = "min",
                            tol: float = 1e-8, maxiter: int = 500,
                            hierarchy: tuple = ()) -> tuple[float, np.ndarray, dict]:
    """Extreme eigenvalue of the pencil A x = lambda B x, by LOBPCG.

    which="min" gives the smallest eigenvalue and needs A SPD;
    which="max" the largest. Both matrices must be symmetric and B
    positive definite. The SPD matrix named by which (A for "min", B
    for "max") preconditions the iteration (Knyazev 2001): the v_cycle
    on hierarchy when one is given (mesh.free_prolongations), else one
    SuperLU factor for at most LU_MAX_ROW_NNZ nonzeros per row (2D and
    surface pencils), else Jacobi. The start vector is fixed, so
    results are deterministic.

    Converged means the relative residual
    norm(A x - lambda B x) / (|lambda| norm(B x)) is at most tol; the
    info dict carries it with the iteration count (preconditioner
    applications). scipy's lobpcg stops on the absolute residual, so
    its tolerance is tol times |lambda| norm(B x) of the current
    B-normalized iterate, and it is called again from its result while
    that scale was too loose. ConvergenceError, carrying the residual,
    is raised when maxiter iterations do not reach tol. x is returned
    B-normalized.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    n = a_mat.shape[0]
    if n == 0:
        raise ValueError("empty operator")
    solved = a_mat if which == "min" else b_mat
    if hierarchy or solved.nnz <= LU_MAX_ROW_NNZ * n:
        precondition = v_cycle(solved, hierarchy)
    else:
        inv_diag = 1.0 / solved.diagonal()

        def precondition(r):
            return inv_diag * r
    iterations = 0

    def apply(r):
        nonlocal iterations
        iterations += 1
        return precondition(np.ravel(r))

    prec = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply,
                                              dtype=float)
    lam, x, residual, scale = _rayleigh(a_mat, b_mat, _start_vector(n))
    while residual > tol and iterations < maxiter:
        before = iterations
        _, xs = scipy.sparse.linalg.lobpcg(
            a_mat, x[:, None], B=b_mat, M=prec, tol=tol * scale,
            maxiter=maxiter - iterations, largest=(which == "max"))
        lam, x, residual, scale = _rayleigh(a_mat, b_mat, xs[:, 0])
        if iterations == before:
            break
    if residual > tol:
        raise ConvergenceError(
            f"eigen iteration reached relative residual {residual:.3e} "
            f"after {iterations} iterations, above tol {tol:.1e}",
            residual=residual)
    return lam, x, {"iterations": iterations, "residual": residual,
                    "converged": True}


# ---------------------------------------------------------------------
# operator files
# ---------------------------------------------------------------------


def dump_operator(path, matrix) -> None:
    """Text dump: header, then one `row col value` line per entry."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"KLABOP 1\nSHAPE {coo.shape[0]} {coo.shape[1]}\nNNZ {coo.nnz}\n")
        for k in order:
            fh.write(f"{coo.row[k]} {coo.col[k]} {repr(float(coo.data[k]))}\n")


def load_operator(path) -> sp.csr_matrix:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().split()
        if magic[:1] != ["KLABOP"]:
            raise ValueError("not an operator file")
        shape = fh.readline().split()
        nnz = int(fh.readline().split()[1])
        m, n = int(shape[1]), int(shape[2])
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            r, c, v = fh.readline().split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
    return sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
