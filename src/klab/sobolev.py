"""Weighted Sobolev norms of scale K with distance weights.

The norm of order mu and index a is

    norm(u)^2 = sum over |alpha| <= mu of
                integral of w(x)^(2 (|alpha| - a)) |d^alpha u|^2,

where w is the singular-set distance (or a certified equivalent). For
piecewise-linear fields the order-0 and order-1 terms are exact up to
quadrature; order-2 derivatives use the constant per-element Hessian
surrogate obtained from gradient recovery. A squared term above
OVERFLOW_GUARD, or not finite, means the integrand diverged and raises
InadmissibleIndexError.

Boundary data of the half-integer (1/2, 1/2) index pair is measured by
the energy of the minimal extension into the domain, which is
equivalent to the trace norm it approximates.
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
from .mesh import SimplicialMesh

_AXES = "xyz"

# Quadrature degrees of the two element classes: elements away from the
# singular set, and elements touching it.
BASE_DEGREE = 2
SINGULAR_DEGREE = 5


@dataclass(frozen=True)
class NormSpec:
    """Order and weight index of a norm."""

    mu: int
    a: float

    def __post_init__(self):
        if not isinstance(self.mu, int) or self.mu < 0 or self.mu > 2:
            raise InadmissibleIndexError("norm order mu must be 0, 1 or 2")
        # the powers of the weight the terms of order 0, 1 and 2 integrate
        exponents = (-2.0 * self.a, 2.0 * (1.0 - self.a), 2.0 * (2.0 - self.a))
        if not all(map(math.isfinite, exponents)):
            raise InadmissibleIndexError(
                f"norm terms of order {self.mu}, index {self.a!r} diverge: "
                f"weight exponents {exponents!r} are not all finite")


@dataclass
class NormReport:
    """Norm value with its per-derivative breakdown."""

    value: float
    mu: int
    a: float
    terms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"value": self.value, "mu": self.mu, "a": self.a,
                "terms": dict(self.terms)}


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
    """Split elements into singular-adjacent and regular index arrays.

    The mask of the nodes on the singular set is measured once per mesh
    and domain and kept on the mesh, so k11_mass and k_norm on one level
    share it; it is N bytes, where the index arrays built from it on
    each call would be 8 E.
    """
    held = getattr(mesh, "_singular_nodes", None)
    if held is None or held[0] is not domain:
        held = (domain, weights.eta_field(domain).on_singular_set(mesh.nodes))
        mesh._singular_nodes = held
    touches = held[1][mesh.elements].any(axis=1)
    return np.where(touches)[0], np.where(~touches)[0]


def _finalize(total_terms: dict, mu: int, a: float) -> NormReport:
    for key, term in total_terms.items():
        if not math.isfinite(term) or term > OVERFLOW_GUARD:
            raise InadmissibleIndexError(
                f"norm term {key} of order {mu}, index {a!r} diverged: {term!r}")
    total = sum(total_terms.values())
    return NormReport(value=math.sqrt(max(total, 0.0)), mu=mu, a=a,
                      terms=total_terms)


def k_norm(u: FemField, weight, spec: NormSpec) -> NormReport:
    """Weighted norm of a piecewise-linear field.

    weight is a callable distance field (the singular-set distance or a
    regularized equivalent).
    """
    return _block_norm(u.mesh, weight, spec, u.values)


def k_data_norm(domain: Polyhedron, mesh: SimplicialMesh, fn,
                a: float) -> NormReport:
    """Order-0 weighted norm of a coefficient function or element data.

    Computes the K(0, a) norm (integral of eta^(-2 a) |f|^2) for a
    callable f, a per-element constant array or a nodal array, by the
    block loop k_norm uses.
    """
    per_element = False
    if not callable(fn):
        fn = np.asarray(fn, dtype=float)
        per_element = fn.shape == (mesh.num_elements,)
        if not per_element and fn.shape != (mesh.num_nodes,):
            raise ValueError("data must be callable, nodal or per-element")
    return _block_norm(mesh, weights.eta_field(domain), NormSpec(mu=0, a=a),
                       fn, per_element)


def _block_norm(mesh: SimplicialMesh, weight, spec: NormSpec, data,
                per_element: bool = False) -> NormReport:
    """The norm of spec of data: a callable of points, nodal values (all
    mu >= 1 takes) or, with per_element, one constant per element.

    Elements touching the singular set are integrated at
    SINGULAR_DEGREE, the others at BASE_DEGREE, one block of
    kernels.BLOCK elements at a time into per-element values that each
    term reduces once per class: the gradient and Hessian terms (formed
    only when mu asks) by neumaier_dot, the order-0 term by neumaier_sum.
    """
    dim = mesh.dimension
    hess = (femcore.element_hessians(FemField(mesh, data))
            if spec.mu >= 2 else None)

    terms = {lab: 0.0 for order in range(spec.mu + 1)
             for lab in _derivative_labels(dim, order)}
    sing_idx, reg_idx = _element_classes(mesh, weight.domain)
    for subset, degree in ((reg_idx, BASE_DEGREE),
                           (sing_idx, SINGULAR_DEGREE)):
        if not len(subset):
            continue
        rule = femcore.simplex_rule(dim, degree)
        order0 = np.empty(len(subset))
        egrads = np.empty((len(subset), dim))
        # per element: vol * sum_q w_q wpow1, and the same for wpow2
        order1 = np.empty(len(subset))
        order2 = np.empty(len(subset))
        for block in femcore.element_blocks(len(subset)):
            ids = subset[block]
            els = mesh.elements[ids]
            if spec.mu >= 1:
                vols, grads = kernels.simplex_geometry(mesh.nodes, els)
                egrads[block] = np.einsum("ei,eid->ed", data[els], grads)
            else:
                vols = kernels.simplex_volumes(mesh.nodes, els)
            pts = femcore.map_points(rule.bary, mesh.nodes, els)
            flat = pts.reshape(-1, dim)
            wvals = np.asarray(weight(flat), dtype=float).reshape(len(els), -1)
            if np.any(wvals <= 0.0):
                raise NonpositiveWeightError("weight vanishes at a quadrature point")
            if callable(data):
                u_q = np.asarray(data(flat), dtype=float).reshape(len(els), -1)
            elif per_element:
                u_q = np.repeat(data[ids, None], len(rule.weights), axis=1)
            else:
                u_q = femcore.row_product(data[els], rule.bary.T)
            wpow = wvals ** (-2.0 * spec.a)
            order0[block] = np.einsum("e,q,eq,eq->e", vols, rule.weights,
                                      wpow, u_q * u_q)
            if spec.mu >= 1:
                wpow1 = wvals ** (2.0 * (1.0 - spec.a))
                order1[block] = np.einsum("q,eq->e", rule.weights,
                                          wpow1) * vols
            if spec.mu >= 2:
                wpow2 = wvals ** (2.0 * (2.0 - spec.a))
                order2[block] = np.einsum("q,eq->e", rule.weights,
                                          wpow2) * vols
        terms["u"] += kernels.neumaier_sum(order0)
        if spec.mu >= 1:
            for i in range(dim):
                gi = egrads[:, i]
                terms[_AXES[i]] += float(kernels.neumaier_dot(gi * gi, order1))
        if spec.mu >= 2:
            for i in range(dim):
                for j in range(i, dim):
                    hij = hess[subset, i, j]
                    terms[_AXES[i] + _AXES[j]] += float(
                        kernels.neumaier_dot(hij * hij, order2))
    return _finalize(terms, spec.mu, spec.a)


def k11_mass(domain: Polyhedron, mesh: SimplicialMesh):
    """The 1/eta^2 weighted mass matrix with split-degree quadrature.

    Integrated at the singular-class quadrature degree on elements
    touching the singular set and at the base degree elsewhere, exactly
    as k_norm integrates the zeroth-derivative term of NormSpec(1, 1).
    """
    inv_sq = weights.power_weight(weights.eta_field(domain), -2.0)
    sing, regular = _element_classes(mesh, domain)
    parts = [femcore.assemble_weighted_mass(mesh, inv_sq, degree=degree,
                                            element_ids=ids)
             for ids, degree in ((regular, BASE_DEGREE),
                                 (sing, SINGULAR_DEGREE)) if len(ids)]
    return sum(parts[1:], parts[0]).tocsr()


def k11_form(domain: Polyhedron, mesh: SimplicialMesh, stiffness=None,
             mass=None):
    """Gram matrix of the order-1 index-1 norm, split-degree quadrature.

    This is the quadratic form k_norm evaluates for NormSpec(1, 1):
    stiffness plus the k11_mass weighted mass. ``stiffness`` and
    ``mass`` are given when the caller has them already.
    """
    if stiffness is None:
        stiffness = femcore.assemble_stiffness(mesh)
    if mass is None:
        mass = k11_mass(domain, mesh)
    return (stiffness + mass).tocsr()


def minimal_extension(domain: Polyhedron, mesh: SimplicialMesh, g,
                      form=None) -> FemField:
    """Field with the given boundary values and least K(1, 1) energy.

    ``form`` is ``k11_form(domain, mesh)`` when the caller has it already.
    The free values x solve A[free, free] x = -A[free, :] g0, with g0
    the boundary values of g and 0 at the free nodes, preconditioned by
    multigrid on the mesh's free-node hierarchy when it has one.
    """
    if callable(g):
        g_nodes = np.asarray(g(mesh.nodes), dtype=float)
    else:
        g_nodes = np.asarray(g, dtype=float)
    a_mat = form if form is not None else k11_form(domain, mesh)
    free = mesh.free_nodes
    values = np.array(g_nodes, dtype=float)
    values[free] = 0.0
    # The free rows are sliced twice, so that they are freed before the
    # solve rather than held through it.
    rhs = -(a_mat[free] @ values)
    a_ff = a_mat[free][:, free].tocsr()
    values[free], _ = femcore.solve(a_ff, rhs, tol=1e-12,
                                    hierarchy=mesh.free_hierarchy)
    return FemField(mesh, values)


def trace_norm_surrogate(domain: Polyhedron, mesh: SimplicialMesh,
                         g) -> NormReport:
    """Trace norm surrogate: the K(1, 1) energy of the minimal extension.

    It measures the (1/2, 1/2) pair, the trace space of the order-1
    index-1 interior norm. The reported value is the energy of the
    extension in the same assembled form it minimizes, so it never
    exceeds the K(1, 1) energy of any field with the same trace.
    """
    a_mat = k11_form(domain, mesh)
    ext = minimal_extension(domain, mesh, g, form=a_mat)
    energy = float(kernels.neumaier_dot(ext.values, a_mat @ ext.values))
    return NormReport(value=math.sqrt(max(energy, 0.0)), mu=1, a=1.0,
                      terms={"extension_energy": energy})
