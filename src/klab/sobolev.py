"""Weighted Sobolev norms of scale K with distance weights.

The norm of order mu and index a is

    norm(u)^2 = sum over |alpha| <= mu of
                integral of w(x)^(2 (|alpha| - a)) |d^alpha u|^2,

where w is the singular-set distance (or a certified equivalent). For
piecewise-linear fields the order-0 and order-1 terms are exact up to
quadrature; order-2 derivatives use the constant per-element Hessian
surrogate obtained from gradient recovery.

Negative orders are dual norms on the zero-trace subspace, computed as
sqrt(F' G^-1 F) for the load functional F and the Gram matrix G of the
positive-order inner product.

Boundary data is measured by integer-order facet norms (tangential
derivatives, weighted by the same distance), and the half-integer case
(1/2, 1/2 index pair) by the energy of the minimal extension into the
domain, which is equivalent to the trace norm it approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import femcore, kernels, weights
from .config import OVERFLOW_GUARD
from .errors import InadmissibleIndexError, NonpositiveWeightError
from .femcore import FemField
from .geometry import Polyhedron
from .mesh import SimplicialMesh, free_prolongations, singular_node_mask

_AXES = "xyz"


@dataclass(frozen=True)
class NormSpec:
    """Order, weight index and the quadrature degrees of a norm."""

    mu: int
    a: float
    degree_base: int = 2
    degree_singular: int = 5

    def __post_init__(self):
        if not isinstance(self.mu, int) or self.mu < 0 or self.mu > 2:
            raise InadmissibleIndexError("norm order mu must be 0, 1 or 2")
        if not math.isfinite(self.a):
            raise InadmissibleIndexError("weight index a must be finite")


@dataclass
class NormReport:
    """Norm value with its per-derivative breakdown."""

    value: float
    mu: int
    a: float
    terms: dict = field(default_factory=dict)
    overflow: bool = False

    def as_dict(self) -> dict:
        return {"value": self.value, "mu": self.mu, "a": self.a,
                "terms": dict(self.terms), "overflow": self.overflow}


def _derivative_labels(dim: int, order: int) -> list:
    if order == 0:
        return ["u"]
    if order == 1:
        return [_AXES[i] for i in range(dim)]
    out = []
    for i in range(dim):
        for j in range(i, dim):
            out.append(_AXES[i] + _AXES[j])
    return out


def _element_classes(mesh: SimplicialMesh, domain: Polyhedron):
    """Split elements into singular-adjacent and regular index arrays."""
    near = singular_node_mask(mesh, domain)
    touches = near[mesh.elements].any(axis=1)
    return np.where(touches)[0], np.where(~touches)[0]


def _finalize(total_terms: dict, mu: int, a: float) -> NormReport:
    overflow = False
    total = 0.0
    for key, term in total_terms.items():
        if not math.isfinite(term) or term > OVERFLOW_GUARD:
            overflow = True
        total += term
    value = math.inf if overflow else math.sqrt(max(total, 0.0))
    return NormReport(value=value, mu=mu, a=a, terms=total_terms, overflow=overflow)


def k_norm(u: FemField, weight, spec: NormSpec, shift_power: float = 0.0) -> NormReport:
    """Weighted norm of a piecewise-linear field.

    weight is a callable distance field (the singular-set distance or a
    regularized equivalent). shift_power s measures w^s * u instead of
    u, with the product rule applied exactly at quadrature points;
    this needs the weight gradient and order mu <= 1.

    Each element class is integrated one block of kernels.BLOCK elements
    at a time into per-element values, and every term reduces those
    once over the class: the weighted gradient and Hessian terms by
    neumaier_dot, the order-0 and shifted terms by neumaier_sum.
    """
    mesh = u.mesh
    domain = weight.domain
    if shift_power != 0.0:
        if spec.mu > 1:
            raise InadmissibleIndexError("shifted fields support mu <= 1 only")
        if not isinstance(weight, weights.EtaField):
            raise InadmissibleIndexError("shifted fields need the exact distance weight")
    dim = mesh.dimension
    hess = femcore.element_hessians(u) if spec.mu >= 2 else None

    terms = {lab: 0.0 for order in range(spec.mu + 1)
             for lab in _derivative_labels(dim, order)}
    sing_idx, reg_idx = _element_classes(mesh, domain)
    for subset, degree in ((reg_idx, spec.degree_base),
                           (sing_idx, spec.degree_singular)):
        if not len(subset):
            continue
        rule = femcore.simplex_rule(dim, degree)
        order0 = np.empty(len(subset))
        egrads = np.empty((len(subset), dim))
        # per element: vol * sum_q w_q wpow1 (unshifted), or the shifted
        # gradient integrals, one column per axis
        order1 = np.empty(len(subset) if shift_power == 0.0
                          else (len(subset), dim))
        order2 = np.empty(len(subset))
        for block in femcore.element_blocks(len(subset)):
            els = mesh.elements[subset[block]]
            vols, grads = kernels.simplex_geometry(mesh.nodes, els)
            pts = femcore.map_points(rule.bary, mesh.nodes, els)
            flat = pts.reshape(-1, dim)
            wvals = np.asarray(weight(flat), dtype=float).reshape(len(els), -1)
            if np.any(wvals <= 0.0):
                raise NonpositiveWeightError("weight vanishes at a quadrature point")
            nodal = u.values[els]
            u_q = femcore.nodal_at(nodal, rule.bary)
            egrads[block] = np.einsum("ei,eid->ed", nodal, grads)
            # order 0; the w^shift factor on the field folds into the exponent
            wpow = wvals ** (2.0 * (shift_power - spec.a))
            order0[block] = np.einsum("e,q,eq,eq->e", vols, rule.weights,
                                      wpow, u_q * u_q)
            if spec.mu >= 1:
                wpow1 = wvals ** (2.0 * (shift_power + 1.0 - spec.a))
                if shift_power == 0.0:
                    order1[block] = np.einsum("q,eq->e", rule.weights,
                                              wpow1) * vols
                else:
                    q_over = weight.grad_over_value(flat).reshape(
                        len(els), len(rule.weights), dim)
                    for i in range(dim):
                        integrand = (egrads[block, i][:, None]
                                     + shift_power * u_q * q_over[:, :, i])
                        # the w^shift factor is folded into the exponent above
                        order1[block, i] = np.einsum(
                            "e,q,eq,eq->e", vols, rule.weights, wpow1,
                            integrand * integrand)
            if spec.mu >= 2:
                wpow2 = wvals ** (2.0 * (2.0 - spec.a))
                order2[block] = np.einsum("q,eq->e", rule.weights,
                                          wpow2) * vols
        terms["u"] += kernels.neumaier_sum(order0)
        if spec.mu >= 1:
            for i in range(dim):
                gi = egrads[:, i]
                if shift_power == 0.0:
                    terms[_AXES[i]] += float(kernels.neumaier_dot(gi * gi, order1))
                else:
                    terms[_AXES[i]] += kernels.neumaier_sum(order1[:, i])
        if spec.mu >= 2:
            for i in range(dim):
                for j in range(i, dim):
                    hij = hess[subset, i, j]
                    terms[_AXES[i] + _AXES[j]] += float(
                        kernels.neumaier_dot(hij * hij, order2))
    return _finalize(terms, spec.mu, spec.a)


def k_data_norm(domain: Polyhedron, mesh: SimplicialMesh, fn, a: float,
                degree_base: int = 2, degree_singular: int = 5) -> NormReport:
    """Order-0 weighted norm of a coefficient function or element data.

    Computes the K(0, a) norm (integral of w^(-2 a) |f|^2) for a
    callable f, a nodal array, or a per-element constant array, with
    the same split quadrature degrees k_norm uses, one block of
    kernels.BLOCK elements at a time; the per-element integrals of each
    element class reduce once by neumaier_sum.
    """
    spec = NormSpec(mu=0, a=a, degree_base=degree_base,
                    degree_singular=degree_singular)
    eta = weights.eta_field(domain)
    per_element = None
    nodal = None
    if not callable(fn):
        arr = np.asarray(fn, dtype=float)
        if arr.shape == (mesh.num_elements,):
            per_element = arr
        elif arr.shape == (mesh.num_nodes,):
            nodal = arr
        else:
            raise ValueError("data must be callable, nodal or per-element")
    terms = {"u": 0.0}
    sing_idx, reg_idx = _element_classes(mesh, domain)
    for subset, degree in ((reg_idx, spec.degree_base),
                           (sing_idx, spec.degree_singular)):
        if not len(subset):
            continue
        rule = femcore.simplex_rule(mesh.dimension, degree)
        order0 = np.empty(len(subset))
        for block in femcore.element_blocks(len(subset)):
            ids = subset[block]
            els = mesh.elements[ids]
            pts = femcore.map_points(rule.bary, mesh.nodes, els)
            flat = pts.reshape(-1, mesh.dimension)
            wvals = eta(flat).reshape(len(els), -1)
            if np.any(wvals <= 0.0):
                raise NonpositiveWeightError("weight vanishes at a quadrature point")
            if per_element is not None:
                fq = np.repeat(per_element[ids, None], len(rule.weights), axis=1)
            elif nodal is not None:
                fq = femcore.nodal_at(nodal[els], rule.bary)
            else:
                fq = np.asarray(fn(flat), dtype=float).reshape(len(els), -1)
            wpow = wvals ** (-2.0 * spec.a)
            order0[block] = np.einsum(
                "e,q,eq,eq->e", kernels.simplex_volumes(mesh.nodes, els),
                rule.weights, wpow, fq * fq)
        terms["u"] += kernels.neumaier_sum(order0)
    return _finalize(terms, 0, spec.a)


# ---------------------------------------------------------------------
# Gram matrices and dual norms
# ---------------------------------------------------------------------


def k_gram(mesh: SimplicialMesh, weight, spec: NormSpec):
    """Sparse Gram matrix of the order-mu inner product on nodal values."""
    if spec.mu < 1:
        w0 = weights.power_weight(weight, -2.0 * spec.a)
        return femcore.assemble_weighted_mass(mesh, w0, degree=spec.degree_singular)
    w0 = weights.power_weight(weight, -2.0 * spec.a)
    w1 = weights.power_weight(weight, 2.0 * (1.0 - spec.a))
    gram = (femcore.assemble_weighted_mass(mesh, w0, degree=spec.degree_singular)
            + femcore.assemble_weighted_stiffness(mesh, w1,
                                                  degree=spec.degree_singular))
    if spec.mu >= 2:
        import scipy.sparse as sp
        w2 = weights.power_weight(weight, 2.0 * (2.0 - spec.a))
        rule = femcore.simplex_rule(mesh.dimension, spec.degree_singular)
        wint = np.empty(mesh.num_elements)
        for block in femcore.element_blocks(mesh.num_elements):
            els = mesh.elements[block]
            pts = femcore.map_points(rule.bary, mesh.nodes, els)
            wvals = np.asarray(w2(pts.reshape(-1, mesh.dimension))
                               ).reshape(len(els), -1)
            wint[block] = (kernels.simplex_volumes(mesh.nodes, els)
                           * np.einsum("q,eq->e", rule.weights, wvals))
        diag = sp.diags(wint)
        d_ops = femcore.element_gradient_operator(mesh)
        r_ops = femcore.recovery_operator(mesh)
        for i in range(mesh.dimension):
            for j in range(i, mesh.dimension):
                h_op = 0.5 * (d_ops[j] @ r_ops[i] + d_ops[i] @ r_ops[j])
                gram = gram + (h_op.T @ diag @ h_op)
    return gram.tocsr()


def k_dual_norm(load, mesh: SimplicialMesh, weight, mu: int, a: float,
                degree: int = 4) -> NormReport:
    """Dual norm of order -mu and index -a over the zero-trace subspace.

    load is either a callable source density or a ready nodal
    functional vector F with F_i = integral of f phi_i.
    """
    if mu not in (1, 2):
        raise InadmissibleIndexError("dual norms support mu in {1, 2}")
    if callable(load):
        f_vec = femcore.assemble_load(mesh, load, degree=degree)
    else:
        f_vec = np.asarray(load, dtype=float)
    spec = NormSpec(mu=mu, a=a)
    gram = k_gram(mesh, weight, spec)
    constrained = mesh.boundary_node_mask()
    g_ff, _, free, _ = femcore.split_dirichlet(gram, constrained)
    f_f = f_vec[free]
    x, _ = femcore.cg_solve(g_ff, f_f, tol=1e-12)
    val2 = kernels.neumaier_dot(f_f, x)
    value = math.sqrt(max(val2, 0.0))
    return NormReport(value=value, mu=-mu, a=-a,
                      terms={"dual_pairing": float(val2)})


# ---------------------------------------------------------------------
# traces and boundary norms
# ---------------------------------------------------------------------


def trace(u: FemField) -> tuple[np.ndarray, np.ndarray]:
    """(boundary node ids, boundary nodal values)."""
    mask = u.mesh.boundary_node_mask()
    ids = np.where(mask)[0]
    return ids, u.values[ids]


def _facet_tangential_gradients(mesh: SimplicialMesh, values: np.ndarray):
    """Constant tangential gradient magnitude per boundary facet."""
    facets = mesh.boundary_facets
    pts = mesh.nodes[facets]
    if mesh.dimension == 2:
        d = pts[:, 1] - pts[:, 0]
        lengths = np.linalg.norm(d, axis=1)
        dv = values[facets[:, 1]] - values[facets[:, 0]]
        return np.abs(dv) / lengths
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    g11 = np.einsum("bd,bd->b", e1, e1)
    g12 = np.einsum("bd,bd->b", e1, e2)
    g22 = np.einsum("bd,bd->b", e2, e2)
    det = g11 * g22 - g12 * g12
    dv1 = values[facets[:, 1]] - values[facets[:, 0]]
    dv2 = values[facets[:, 2]] - values[facets[:, 0]]
    grad2 = (g22 * dv1 * dv1 - 2.0 * g12 * dv1 * dv2 + g11 * dv2 * dv2) / det
    return np.sqrt(np.maximum(grad2, 0.0))


def integer_boundary_norm(domain: Polyhedron, mesh: SimplicialMesh, g,
                          m: int, s: float, degree: int = 4) -> NormReport:
    """Facet norm: sum_{j<=m} integral over the boundary of
    eta^(2 (j - s)) |tangential d^j g|^2.

    g is a callable on coordinates or a nodal value array. Facets
    touching a corner are integrated with interior-point rules; if the
    exponent makes the integral divergent there, the reported value
    grows without bound under refinement instead of converging.
    """
    if m not in (0, 1):
        raise InadmissibleIndexError("boundary norms support m in {0, 1}")
    facets = mesh.boundary_facets
    if callable(g):
        g_nodes = np.asarray(g(mesh.nodes), dtype=float)
    else:
        g_nodes = np.asarray(g, dtype=float)
    eta = weights.eta_field(domain)
    rule = femcore.simplex_rule(mesh.dimension - 1, degree)
    meas = femcore.facet_measures(mesh.nodes, facets)
    pts = femcore.map_points(rule.bary, mesh.nodes, facets)
    evals = eta(pts.reshape(-1, mesh.dimension)).reshape(len(facets), -1)
    if np.any(evals <= 0.0):
        raise NonpositiveWeightError("facet quadrature point on the singular set")
    g_q = g_nodes[facets] @ rule.bary.T
    terms = {}
    w0 = evals ** (2.0 * (0.0 - s))
    terms["u"] = float(np.einsum("b,q,bq,bq->", meas, rule.weights, w0, g_q * g_q))
    if m >= 1:
        tg = _facet_tangential_gradients(mesh, g_nodes)
        w1 = evals ** (2.0 * (1.0 - s))
        wsum = np.einsum("q,bq->b", rule.weights, w1) * meas
        terms["t"] = float(kernels.neumaier_dot(tg * tg, wsum))
    return _finalize(terms, m, s)


def k11_mass(domain: Polyhedron, mesh: SimplicialMesh):
    """The 1/eta^2 weighted mass matrix with split-degree quadrature.

    Integrated at the singular-class quadrature degree on elements
    touching the singular set and at the base degree elsewhere, exactly
    as k_norm integrates the zeroth-derivative term of NormSpec(1, 1).
    """
    spec = NormSpec(mu=1, a=1.0)
    eta = weights.eta_field(domain)
    inv_sq = weights.power_weight(eta, -2.0)
    sing, regular = _element_classes(mesh, domain)
    parts = []
    if len(regular):
        parts.append(femcore.assemble_weighted_mass(
            mesh, inv_sq, degree=spec.degree_base, element_ids=regular))
    if len(sing):
        parts.append(femcore.assemble_weighted_mass(
            mesh, inv_sq, degree=spec.degree_singular, element_ids=sing))
    mat = parts[0]
    for extra in parts[1:]:
        mat = mat + extra
    return mat.tocsr()


def k11_form(domain: Polyhedron, mesh: SimplicialMesh, stiffness=None):
    """Gram matrix of the order-1 index-1 norm, split-degree quadrature.

    This is the quadratic form k_norm evaluates for NormSpec(1, 1):
    stiffness plus the k11_mass weighted mass. ``stiffness`` is
    ``assemble_stiffness(mesh)`` when the caller has it already.
    """
    if stiffness is None:
        stiffness = femcore.assemble_stiffness(mesh)
    return (stiffness + k11_mass(domain, mesh)).tocsr()


def minimal_extension(domain: Polyhedron, mesh: SimplicialMesh, g,
                      form=None) -> FemField:
    """Field with the given boundary values and least K(1, 1) energy.

    ``form`` is ``k11_form(domain, mesh)`` when the caller has it already.
    The solve is preconditioned by multigrid on the mesh's refinement
    hierarchy when it has one.
    """
    if callable(g):
        g_nodes = np.asarray(g(mesh.nodes), dtype=float)
    else:
        g_nodes = np.asarray(g, dtype=float)
    a_mat = form if form is not None else k11_form(domain, mesh)
    constrained = mesh.boundary_node_mask()
    a_ff, a_fc, free, fixed = femcore.split_dirichlet(a_mat, constrained)
    rhs = -a_fc @ g_nodes[fixed]
    x_f, _ = femcore.cg_solve(
        a_ff, rhs, tol=1e-12,
        hierarchy=free_prolongations(mesh.prolongations, free))
    values = np.array(g_nodes, dtype=float)
    values[free] = x_f
    values[fixed] = g_nodes[fixed]
    return FemField(mesh, values)


def trace_norm_surrogate(domain: Polyhedron, mesh: SimplicialMesh, g,
                         order: float = 0.5, index: float = 0.5) -> NormReport:
    """Trace norm surrogate: the K(1, 1) energy of the minimal extension.

    Only the (1/2, 1/2) pair is available; it is the trace space of the
    order-1 index-1 interior norm. The reported value is the energy of
    the extension in the same assembled form it minimizes, so it never
    exceeds the K(1, 1) energy of any field with the same trace.
    """
    if (order, index) != (0.5, 0.5):
        raise InadmissibleIndexError(
            "trace surrogate is defined for order 1/2, index 1/2 only")
    a_mat = k11_form(domain, mesh)
    ext = minimal_extension(domain, mesh, g, form=a_mat)
    energy = float(kernels.neumaier_dot(ext.values, a_mat @ ext.values))
    return NormReport(value=math.sqrt(max(energy, 0.0)), mu=1, a=1.0,
                      terms={"extension_energy": energy}, overflow=False)
