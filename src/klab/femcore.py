"""Piecewise-linear finite elements on simplicial meshes.

Contains the quadrature tables (all rules have strictly interior
points and positive weights, which matters because the coefficients we
integrate blow up at the boundary of some elements), matrix assembly
for weighted stiffness and mass forms, and the solvers. solve is the one
entry for linear systems: cg_solve for SPD ones, else one SuperLU factor
(_factor, which every factorization goes through). The solvers run on
the nested hierarchy that mesh refinement records, restricted to the
free nodes (SimplicialMesh.free_hierarchy): v_cycle is a geometric
multigrid V-cycle on it (Bramble, Pasciak and Xu 1990), smoothed by
Jacobi sweeps with one damping, 2/3, on every level and in every
dimension, which contracts on graded meshes too. cg_solve is
conjugate gradients and generalized_eig_extreme is LOBPCG
(Knyazev 2001), both preconditioned by one rule, _preconditioner: that
V-cycle when there is a hierarchy, else one SuperLU factor or Jacobi.
Both solvers report iterations and residuals.
Assembly and every whole-mesh quadrature run one block of
kernels.BLOCK elements at a time (element_blocks), so their quadrature
points, weight values and element matrices never span the whole mesh.
Assembly scatters each block into the mesh's CSR pattern, built once
per mesh (SimplicialMesh.pattern), before computing the next: each
entry adds its element contributions in mesh order, so matrices are
reproducible, do not depend on scipy's sorting, and are the same bits
for any block size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from . import kernels
from .errors import (ConvergenceError, IndefiniteOperatorError,
                     UnsupportedDegreeError)
from .mesh import SimplicialMesh

MAX_DEGREE = 5
# Average nonzeros per row up to which a solve or an eigensolve without
# a hierarchy is preconditioned by a SuperLU factor: P1 has 6-7 in 2D
# and on surfaces, where the factor is cheap, and about 14 in 3D, where
# its fill-in costs far more than the iterations.
LU_MAX_ROW_NNZ = 10
# Smallest pencil scipy's lobpcg iterates on for one eigenvector.
LOBPCG_MIN_SIZE = 5


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
    """Points and weights of the rule: every distinct permutation of each
    group's barycentric values, in sorted order, with the group weight."""
    pts, wts = [], []
    for values, w in groups:
        orbit = sorted(set(itertools.permutations(values)))
        pts.extend(orbit)
        wts.extend([w] * len(orbit))
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


def map_points(bary: np.ndarray, nodes: np.ndarray,
               elems: np.ndarray) -> np.ndarray:
    """Physical points (E, Q, d) of the barycentric points ``bary``
    (Q, k) on the simplices ``elems`` (E, k) of ``nodes`` (N, d).

    Works one block of ``kernels.BLOCK`` simplices and one coordinate at
    a time and sums over the vertices in order, x_0 b_0 + x_1 b_1 + ...,
    as ``np.einsum("qi,eid->eqd")`` does, so the points are bit-equal to
    that form. A node coordinate of -0.0 is read as +0.0, matching
    einsum's sum, which starts from zero.
    """
    out = np.empty((len(elems), len(bary), nodes.shape[1]))
    columns = [nodes[:, c] + 0.0 for c in range(nodes.shape[1])]
    for start in range(0, len(elems), kernels.BLOCK):
        block = slice(start, start + kernels.BLOCK)
        corners = elems[block].T.copy()
        for c, col in enumerate(columns):
            acc = col[corners[0], None] * bary[:, 0]
            for i in range(1, len(corners)):
                acc += col[corners[i], None] * bary[:, i]
            out[block, :, c] = acc
    return out


def row_product(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """rows @ other, each row rounded as a product of many rows rounds it.

    numpy hands a lone row to a vector kernel that can round differently
    from its matrix kernel, so a lone row is doubled: a row's result does
    not depend on how many rows are computed with it.
    """
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ other)[:1]
    return rows @ other


def quadrature_points(mesh: SimplicialMesh, rule: QuadratureRule) -> np.ndarray:
    """Physical quadrature points, shape (E, Q, d)."""
    return map_points(rule.bary, mesh.nodes, mesh.elements)


# ---------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------


@dataclass
class FemField:
    """Continuous piecewise-linear function given by nodal values."""

    mesh: SimplicialMesh
    values: np.ndarray

    def at_quadrature(self, rule: QuadratureRule) -> np.ndarray:
        return row_product(self.values[self.mesh.elements], rule.bary.T)

    def element_gradients(self, grads=None) -> np.ndarray:
        """Constant gradient of each element, (E, d); grads are the mesh's
        shape-function gradients, computed here when not given."""
        if grads is None:
            _, grads = kernels.simplex_geometry(self.mesh.nodes,
                                                self.mesh.elements)
        nodal = self.values[self.mesh.elements]
        return np.einsum("ei,eid->ed", nodal, grads)


def interpolate(mesh: SimplicialMesh, fun) -> FemField:
    """Nodal interpolant of a function of an (N, d) coordinate array."""
    vals = np.asarray(fun(mesh.nodes), dtype=float)
    if vals.shape != (mesh.num_nodes,):
        raise ValueError("interpolated function must return one value per node")
    return FemField(mesh, vals)


def recover_gradient(field: FemField, geometry=None) -> np.ndarray:
    """Volume-weighted nodal average of the element gradients, (N, d).

    geometry is the mesh's (volumes, gradients) from
    kernels.simplex_geometry, computed here when not given.
    """
    mesh = field.mesh
    if geometry is None:
        geometry = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    vols, grads = geometry
    egrad = field.element_gradients(grads)
    acc = np.zeros((mesh.num_nodes, mesh.dimension))
    wsum = np.zeros(mesh.num_nodes)
    for i in range(mesh.elements.shape[1]):
        np.add.at(acc, mesh.elements[:, i], vols[:, None] * egrad)
        np.add.at(wsum, mesh.elements[:, i], vols)
    return acc / wsum[:, None]


def element_hessians(field: FemField) -> np.ndarray:
    """Constant per-element Hessian surrogate from the recovered gradient.

    Differentiates the P1 interpolant of each recovered gradient
    component and symmetrizes in place; shape (E, d, d). Each entry
    sums its per-vertex products in vertex order from 0, the order of
    einsum("eic,eid->ecd"), one (E,) array at a time, so the recovered
    gradients are gathered one component at a time and no (E, k, d)
    copy of them is formed.
    """
    mesh = field.mesh
    vols, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    gnodes = recover_gradient(field, (vols, grads))
    dim = mesh.dimension
    h = np.empty((mesh.num_elements, dim, dim))
    for c in range(dim):
        gc = gnodes[mesh.elements, c]
        for d in range(dim):
            acc = gc[:, 0] * grads[:, 0, d]
            for i in range(1, dim + 1):
                acc += gc[:, i] * grads[:, i, d]
            acc += 0.0
            h[:, c, d] = acc
    for c in range(dim):
        for d in range(c, dim):
            h[:, c, d] = h[:, d, c] = 0.5 * (h[:, c, d] + h[:, d, c])
    return h


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------


def element_blocks(n_elements: int) -> list:
    """Slices of the consecutive runs of kernels.BLOCK elements that
    cover range(n_elements), in order."""
    return [slice(s, min(s + kernels.BLOCK, n_elements))
            for s in range(0, n_elements, kernels.BLOCK)]


def _assemble_local(mesh: SimplicialMesh, local_fn, element_ids=None) -> sp.csr_matrix:
    """Sum per-element dense blocks into the mesh's CSR pattern.

    local_fn(elems) maps a (m, k) element-node block to the (m, k, k)
    block stack; it is called on one block of kernels.BLOCK elements at
    a time, and each block is scattered before the next is computed.
    element_ids restricts assembly to a subset, whose matrix keeps only
    the entries its elements reach. Each entry sums its contributions in
    element order, so the matrix does not depend on the block size.
    """
    if element_ids is None:
        elements = mesh.elements
    else:
        element_ids = np.asarray(element_ids, dtype=np.int64)
        elements = mesh.elements[element_ids]
    blocks = (local_fn(elements[b]) for b in element_blocks(len(elements)))
    return mesh.pattern.matrix(blocks, element_ids)


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
        vols = kernels.simplex_volumes(nodes, elems)
        pts = map_points(rule.bary, nodes, elems)
        wvals = np.asarray(weight_fn(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(vols), -1)
        return kernels.local_weighted_mass(vols, rule.bary, rule.weights, wvals)

    return _assemble_local(mesh, local, element_ids)


def assemble_gradvec(mesh: SimplicialMesh, vector_fn, degree: int = 2,
                     element_ids=None) -> sp.csr_matrix:
    """Matrix of integral of (q(x) . grad(u)) v for a vector field q."""
    rule = simplex_rule(mesh.dimension, degree)
    nodes = mesh.nodes

    def local(elems):
        vols, grads = kernels.simplex_geometry(nodes, elems)
        pts = map_points(rule.bary, nodes, elems)
        qvals = np.asarray(vector_fn(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(vols), len(rule.weights), -1)
        qdotg = np.einsum("eqd,ejd->eqj", qvals, grads)
        return np.einsum("q,qi,eqj,e->eij", rule.weights, rule.bary, qdotg, vols)

    return _assemble_local(mesh, local, element_ids)


def assemble_load(mesh: SimplicialMesh, fun, degree: int = 2) -> np.ndarray:
    """Vector of integral of f v, one block of kernels.BLOCK elements at
    a time; each entry adds its element contributions in mesh order."""
    rule = simplex_rule(mesh.dimension, degree)
    out = np.zeros(mesh.num_nodes)
    for block in element_blocks(mesh.num_elements):
        elems = mesh.elements[block]
        vols = kernels.simplex_volumes(mesh.nodes, elems)
        pts = map_points(rule.bary, mesh.nodes, elems)
        fvals = np.asarray(fun(pts.reshape(-1, mesh.dimension)),
                           dtype=float).reshape(len(elems), -1)
        contrib = np.einsum("e,q,eq,qi->ei", vols, rule.weights, fvals,
                            rule.bary)
        np.add.at(out, elems.ravel(), contrib.ravel())
    return out


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------


def _factor(matrix):
    """One SuperLU factor of a sparse matrix; ConvergenceError when the
    factorization fails (an exactly singular matrix)."""
    try:
        return scipy.sparse.linalg.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise ConvergenceError(f"sparse LU factorization failed: {exc}") from None


def v_cycle(matrix, hierarchy=()):
    """Symmetric multigrid V-cycle for an SPD matrix: apply(r) ~ A^-1 r.

    hierarchy holds the prolongations between the free nodes of nested
    levels, coarse first (mesh.free_hierarchy), the last one ending
    at the matrix's rows. Coarse operators are the Galerkin products
    R A P with R = P^T formed in CSR for the product only; the cycle
    restricts through the P^T view, which gives the same bits and holds
    no copy of R. Each level smooths with 2 Jacobi sweeps damped by
    omega = 2/3 before the coarse correction and 2 after it; the
    coarsest level is solved by one SuperLU factor. With no hierarchy
    the cycle is that factor.

    A sweep contracts every mode when omega * rho(D^-1 A) < 2, and
    rho(D^-1 A) is at most the Gershgorin bound max_i sum_j |a_ij| / a_ii.
    That bound is 2.4 on 3D P1 levels and up to 2.61 on an L-shape
    graded with kappa 0.25, so the classical 2/3 (Briggs, Henson and
    McCormick 2000) keeps omega * rho below 1.75 there, where a damping
    of 0.8 passes 2 and barely damps the highest modes.
    """
    omega = 2 / 3
    levels = []
    a_mat = matrix.tocsr()
    for p in reversed(hierarchy):
        levels.append((a_mat, omega / a_mat.diagonal(), p))
        a_mat = p.T.tocsr() @ a_mat @ p
    coarse = _factor(a_mat).solve
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


def _preconditioner(matrix, hierarchy=()):
    """apply(r) ~ matrix^-1 r for an SPD matrix, the one rule of cg_solve
    and generalized_eig_extreme: the v_cycle on hierarchy when one is
    given, else one SuperLU factor for at most LU_MAX_ROW_NNZ nonzeros
    per row (2D and surface systems), else Jacobi."""
    if hierarchy or matrix.nnz <= LU_MAX_ROW_NNZ * matrix.shape[0]:
        return v_cycle(matrix, hierarchy)
    inv_diag = 1.0 / matrix.diagonal()
    return lambda r: inv_diag * r


def cg_solve(matrix, rhs, tol: float = 1e-10, maxiter: int | None = None,
             hierarchy: tuple = ()) -> tuple[np.ndarray, dict]:
    """Preconditioned conjugate gradients for SPD systems.

    The preconditioner is _preconditioner's: the multigrid v_cycle on
    hierarchy when one is given (mesh.free_hierarchy), else one SuperLU
    factor or Jacobi. Stops when the residual is at most tol times the
    right-hand side's norm. Raises IndefiniteOperatorError on negative
    curvature and ConvergenceError if the residual target is not met.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0), {"iterations": 0, "residual": 0.0}
    diag = np.asarray(matrix.diagonal(), dtype=float)
    if np.any(diag <= 0.0):
        raise IndefiniteOperatorError("operator has a nonpositive diagonal entry")
    precondition = _preconditioner(matrix, hierarchy)
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


def solve(matrix, rhs, tol: float = 1e-10, hierarchy: tuple = (),
          symmetric: bool = True) -> tuple[np.ndarray, dict]:
    """Solve matrix x = rhs: cg_solve (tol, hierarchy) when symmetric
    (SPD), else one SuperLU factorization. info gives the method ("cg"
    or "direct_lu"), the iterations (1 for the factorization) and the
    true relative residual norm(rhs - matrix x) / norm(rhs). Raises
    ConvergenceError when CG stalls or the factorization fails."""
    if symmetric:
        x, info = cg_solve(matrix, rhs, tol=tol, hierarchy=hierarchy)
        method, iterations = "cg", info["iterations"]
    else:
        x = _factor(matrix).solve(rhs)
        method, iterations = "direct_lu", 1
    res = rhs - matrix @ x
    rhs_norm = math.sqrt(max(kernels.neumaier_dot(rhs, rhs), 1e-300))
    residual = math.sqrt(max(kernels.neumaier_dot(res, res), 0.0)) / rhs_norm
    return x, {"method": method, "iterations": iterations,
               "residual": residual}


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
    for "max") preconditions the iteration (Knyazev 2001) by
    _preconditioner's rule: the v_cycle on hierarchy when one is given
    (mesh.free_hierarchy), else one SuperLU factor or Jacobi. The start
    vector is fixed, so results are deterministic. A pencil of fewer
    than LOBPCG_MIN_SIZE unknowns is solved densely by scipy.linalg.eigh,
    in 0 iterations.

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
    iterations = 0
    if n < LOBPCG_MIN_SIZE:
        # scipy's lobpcg makes the same dense call here, with a warning
        pick = 0 if which == "min" else n - 1
        _, vecs = scipy.linalg.eigh(a_mat.toarray(), b_mat.toarray(),
                                    subset_by_index=(pick, pick),
                                    check_finite=False)
        lam, x, residual, _ = _rayleigh(a_mat, b_mat, vecs[:, 0])
    else:
        precondition = _preconditioner(a_mat if which == "min" else b_mat,
                                       hierarchy)

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
