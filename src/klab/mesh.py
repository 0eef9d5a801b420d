"""Simplicial meshes: construction, nested refinement, grading, file IO.

Meshes are plain node/element arrays with explicit boundary facets.
Construction is deterministic: the same domain and parameters always
produce the same arrays, so reports built on top of them are
reproducible byte for byte. Each mesh builds the CSR sparsity pattern of
its P1 matrices once, on first use (SimplicialMesh.pattern), and every
assembly on it sums its element blocks into that pattern.

Refinement is nested (edge-midpoint subdivision: quadrisection of
triangles, octasection of tetrahedra), and a refined mesh carries the
P1 prolongation of each level it came from, the hierarchy multigrid
solvers run on. Grading toward corner singularities is a radial map
applied inside disjoint vertex collars; the grading parameters travel
with the mesh so that further refinement can undo the map, refine the
underlying ungraded mesh, and reapply it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import kernels
from .config import DEFAULT_NODE_CAP, GEOM_TOL, MIN_ANGLE_FLOOR
from .errors import GeometryError, MeshFormatError, MeshSizeError

if TYPE_CHECKING:  # geometry imports sphere, which imports this module
    from .geometry import Polyhedron

MESH_MAGIC = "KLABMESH"
MESH_VERSION = 1
# Largest pattern an int32 slot map and int32 CSR indices can address.
PATTERN_NNZ_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class GradingSpec:
    """Radial grading toward corner points.

    Inside a collar of the given radius R around each center, the
    distance d to the center is remapped to R * (d / R) ** (1 / kappa)
    with 0 < kappa <= 1. kappa 1 is the identity; smaller values
    concentrate nodes at the centers, so elements at distance d from a
    center shrink like h * (d / R) ** (1 - kappa) and the layer nearest
    a center has size of order h ** (1 / kappa). Collars must be
    pairwise disjoint and clear of non-incident boundary faces.
    """

    kappa: float
    radius: float
    centers: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise GeometryError("grading kappa must lie in (0, 1]")
        if self.radius <= 0.0:
            raise GeometryError("grading radius must be positive")

    def apply(self, nodes: np.ndarray) -> np.ndarray:
        return self._map(nodes, 1.0 / self.kappa)

    def unapply(self, nodes: np.ndarray) -> np.ndarray:
        return self._map(nodes, self.kappa)

    def _map(self, nodes, exponent):
        out = np.array(nodes, dtype=float)
        for c in self.centers:
            rel = out - np.asarray(c)
            d = np.linalg.norm(rel, axis=1)
            sel = (d < self.radius) & (d > 0.0)
            scale = (d[sel] / self.radius) ** (exponent - 1.0)
            out[sel] = np.asarray(c) + rel[sel] * scale[:, None]
        return out


@dataclass
class SimplicialMesh:
    """Conforming simplicial mesh with explicit boundary facets.

    prolongations holds the sparse P1 prolongation of every refinement
    that produced this mesh, coarse first: the last one maps nodal
    values on the parent mesh to this one. It is empty for a mesh that
    was not refined, or that was read from a file.
    """

    dimension: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    grading: GradingSpec | None = None
    provenance: dict = field(default_factory=dict)
    prolongations: tuple = ()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def boundary_node_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_nodes, dtype=bool)
        if len(self.boundary_facets):
            mask[self.boundary_facets.ravel()] = True
        return mask

    def free_nodes(self) -> np.ndarray:
        """Interior (zero-trace) node indices in increasing order;
        MeshSizeError when the mesh is too coarse to have any."""
        free = np.where(~self.boundary_node_mask())[0]
        if not len(free):
            raise MeshSizeError("mesh has no interior nodes")
        return free

    def element_volumes(self) -> np.ndarray:
        return kernels.simplex_volumes(self.nodes, self.elements)

    def element_diameters(self) -> np.ndarray:
        return kernels.simplex_diameters(self.nodes, self.elements)

    @functools.cached_property
    def pattern(self) -> ElementPattern:
        """CSR pattern of the P1 matrices on this mesh, built on first use.

        It holds an int32 slot per element-matrix entry (16 per
        tetrahedron), so a caller that has assembled everything it needs
        before a memory peak frees it with ``del mesh.pattern``; a later
        assembly builds it again.
        """
        return element_pattern(self.elements, self.num_nodes)

    def h_max(self) -> float:
        return float(self.element_diameters().max())

    def total_volume(self) -> float:
        return float(kernels.neumaier_sum(self.element_volumes()))

    def validate(self) -> None:
        n = self.num_nodes
        if n > DEFAULT_NODE_CAP:
            raise MeshSizeError(f"{n} nodes exceeds the cap {DEFAULT_NODE_CAP}")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dimension + 1:
            raise MeshFormatError("element arity does not match dimension")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= n:
            raise MeshFormatError("element references a node out of range")
        ordered = np.sort(self.elements, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise MeshFormatError("element with a repeated node")
        if len(self.boundary_facets):
            if self.boundary_facets.min() < 0 or self.boundary_facets.max() >= n:
                raise MeshFormatError("boundary facet references a node out of range")
        vols = self.element_volumes()
        if vols.min(initial=np.inf) <= 0.0:
            raise GeometryError("mesh contains a degenerate or inverted element")


@dataclass(frozen=True)
class ElementPattern:
    """CSR sparsity pattern of the (k, k) element blocks on k-node simplices.

    Entry (i, j) of element e lies in row elements[e, i] and column
    elements[e, j]; slot[e, i, j] is its position in indices. indptr and
    indices are those of ``coo_matrix(...).tocsr()`` for the same
    entries: sorted columns, no duplicates.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    def matrix(self, blocks, element_ids=None) -> sp.csr_matrix:
        """Sum element blocks into a CSR matrix.

        ``blocks`` yields (m, k, k) arrays for consecutive runs of the
        elements: all of them, or the elements element_ids in that
        order, whose matrix then keeps only the entries they reach. Each
        block is scattered as it arrives, so only one is held at a time.
        np.add.at adds each entry's contributions in element order,
        starting from zero, whatever the block sizes, and reads the int32
        slots without the int64 copy np.bincount would make.
        """
        data = np.zeros(len(self.indices))
        reached = None if element_ids is None else np.zeros(len(data), dtype=bool)
        start = 0
        for local in blocks:
            stop = start + len(local)
            if element_ids is None:
                slot = self.slot[start:stop].ravel()
            else:
                slot = self.slot[element_ids[start:stop]].ravel()
                reached[slot] = True
            np.add.at(data, slot, local.ravel())
            start = stop
        if element_ids is None:
            # Copies: an in-place scipy operation on the matrix must not
            # reach the cached pattern.
            return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)
        kept = np.zeros(len(reached) + 1, dtype=self.indptr.dtype)
        np.cumsum(reached, out=kept[1:])
        return sp.csr_matrix((data[reached], self.indices[reached],
                              kept[self.indptr]), shape=self.shape)


def element_pattern(elements: np.ndarray, num_nodes: int) -> ElementPattern:
    """The ElementPattern of the simplices ``elements`` on num_nodes nodes.

    Built from the distinct element edges, found by one np.unique: row r
    holds, in increasing column order, the lower ends of the edges whose
    upper end is r, then r itself, then the upper ends of the edges whose
    lower end is r. Raises MeshSizeError when the pattern has more
    entries than int32 positions can address.
    """
    elements = np.asarray(elements, dtype=np.int64)
    n, k = num_nodes, elements.shape[1]
    first, second = np.triu_indices(k, 1)
    a, b = elements[:, first], elements[:, second]
    forward = a < b
    keys = np.minimum(a, b)
    keys *= n
    keys += np.maximum(a, b)
    del a, b  # not held through np.unique, the peak of this function
    edges, edge_of = np.unique(keys.ravel(), return_inverse=True)
    edge_of = edge_of.reshape(keys.shape)
    low_end, high_end = np.divmod(edges, n)
    below = np.bincount(high_end, minlength=n)
    above = np.bincount(low_end, minlength=n)
    used = np.zeros(n, dtype=bool)
    used[elements.ravel()] = True
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + used + above, out=indptr[1:])
    nnz = int(indptr[-1])
    if nnz > PATTERN_NNZ_MAX:
        raise MeshSizeError(f"a pattern of {nnz} entries does not fit int32 "
                            "positions")
    diagonal = indptr[:-1] + below
    # edges is sorted by (lower, upper) end, so the edges of one lower
    # end are contiguous and in column order; a stable sort by the upper
    # end does the same for the other side.
    edge_ids = np.arange(len(edges))
    upper = diagonal[low_end] + 1 + edge_ids - (np.cumsum(above) - above)[low_end]
    by_high = np.argsort(high_end, kind="stable")
    lower = np.empty(len(edges), dtype=np.int64)
    lower[by_high] = (indptr[high_end[by_high]] + edge_ids
                      - (np.cumsum(below) - below)[high_end[by_high]])
    indices = np.empty(nnz, dtype=np.int32)
    indices[diagonal[used]] = np.flatnonzero(used)
    indices[upper] = high_end
    indices[lower] = low_end
    slot = np.empty((len(elements), k, k), dtype=np.int32)
    for i in range(k):
        slot[:, i, i] = diagonal[elements[:, i]]
    for m, (i, j) in enumerate(zip(first, second)):
        up, down = upper[edge_of[:, m]], lower[edge_of[:, m]]
        slot[:, i, j] = np.where(forward[:, m], up, down)
        slot[:, j, i] = np.where(forward[:, m], down, up)
    return ElementPattern((n, n), indptr.astype(np.int32), indices, slot)


def _oriented(dimension: int, nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Swap the last two nodes of any negatively oriented simplex."""
    elements = np.ascontiguousarray(elements, dtype=np.int64)
    vols = kernels.simplex_volumes(nodes, elements)
    bad = vols < 0
    if np.any(bad):
        elements = elements.copy()
        elements[bad] = elements[bad][:, list(range(dimension - 1)) + [dimension, dimension - 1]]
    return elements


def derive_boundary_facets(elements: np.ndarray) -> np.ndarray:
    """Facets that belong to exactly one simplex: rows of ascending node
    ids, in lexicographic order.

    Each facet is encoded as one int64 key, (a n + b) n + c for its
    sorted ids a <= b <= c below n; keys order like the rows, so one sort
    and count finds the facets seen once.
    """
    elements = np.asarray(elements, dtype=np.int64)
    k = elements.shape[1]
    n = int(elements.max(initial=-1)) + 1
    if n ** (k - 1) > np.iinfo(np.int64).max:
        raise MeshSizeError(f"{n} nodes are too many to key the facets")
    facets = np.sort(np.concatenate([np.delete(elements, drop, axis=1)
                                     for drop in range(k)]), axis=1)
    key = facets[:, 0].copy()
    for column in facets[:, 1:].T:
        key *= n
        key += column
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    return facets[first[count == 1]]


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def build_mesh(domain: Polyhedron, h: float,
               grading: GradingSpec | None = None) -> SimplicialMesh:
    """Mesh the domain with target grid spacing h.

    Element diameters are at most sqrt(d) * h. Axis-aligned domains, 2D
    or 3D, are meshed by Kuhn's subdivision of their grid cells; other
    polygons by ear clipping followed by uniform quadrisection.
    """
    if h <= 0.0:
        raise MeshSizeError("mesh spacing h must be positive")
    box = np.ptp(np.asarray(domain.vertices, dtype=float), axis=0)
    estimate = float(np.prod(box / h))
    if estimate > DEFAULT_NODE_CAP:
        raise MeshSizeError(
            f"h = {h} implies about {estimate:.3g} nodes, beyond the cap "
            f"{DEFAULT_NODE_CAP}")
    if domain.cells is not None:
        mesh = _kuhn_mesh(domain, h)
    else:
        mesh = _ear_clip_mesh(domain, h)
    mesh.provenance = {"generator": domain.generator, "h": h}
    mesh.validate()
    if grading is not None:
        mesh = _apply_grading(mesh, grading)
    _assert_shape_regular(mesh)
    return mesh


class _NodePool:
    """Deduplicating node registry keyed by rounded coordinates."""

    def __init__(self):
        self.index: dict = {}
        self.coords: list = []

    def add(self, p) -> int:
        key = tuple(round(float(c), 12) for c in p)
        if key not in self.index:
            self.index[key] = len(self.coords)
            self.coords.append([float(c) for c in p])
        return self.index[key]

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)


def _ear_clip_mesh(domain: Polyhedron, h: float) -> SimplicialMesh:
    verts = domain.vertices
    tris = _ear_clip(verts)
    nodes = np.array(verts, dtype=float)
    elements = _oriented(2, nodes, np.array(tris, dtype=np.int64))
    mesh = SimplicialMesh(2, nodes, elements, derive_boundary_facets(elements))
    target = math.sqrt(2.0) * h
    while mesh.h_max() > target * (1 + 1e-12):
        mesh = refine(mesh)
    return mesh


def _ear_clip(verts: np.ndarray) -> list:
    """Triangulate a simple counterclockwise polygon by ear clipping."""
    remaining = list(range(len(verts)))
    tris = []
    guard = 0
    while len(remaining) > 3:
        guard += 1
        if guard > 10 * len(verts) ** 2:
            raise GeometryError("ear clipping failed; polygon may be invalid")
        clipped = False
        for pos in range(len(remaining)):
            i_prev = remaining[pos - 1]
            i_cur = remaining[pos]
            i_next = remaining[(pos + 1) % len(remaining)]
            a, b, c = verts[i_prev], verts[i_cur], verts[i_next]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= GEOM_TOL:
                continue
            ok = True
            for k in remaining:
                if k in (i_prev, i_cur, i_next):
                    continue
                if _in_triangle(verts[k], a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((i_prev, i_cur, i_next))
                remaining.pop(pos)
                clipped = True
                break
        if not clipped:
            raise GeometryError("no ear found; polygon may be self-intersecting")
    tris.append(tuple(remaining))
    return tris


def _in_triangle(p, a, b, c, tol=1e-12) -> bool:
    def side(p1, p2):
        return (p2[0] - p1[0]) * (p[1] - p1[1]) - (p2[1] - p1[1]) * (p[0] - p1[0])

    s1, s2, s3 = side(a, b), side(b, c), side(c, a)
    return s1 >= -tol and s2 >= -tol and s3 >= -tol


def _kuhn_mesh(domain: Polyhedron, h: float) -> SimplicialMesh:
    """Kuhn's subdivision of the grid cells, in any dimension: d!
    simplices per cell, one per axis order of a monotone path from its
    low to its high corner, consistent across cell faces."""
    dim = domain.dimension
    orders = list(itertools.permutations(range(dim)))
    pool = _NodePool()
    simplices: list = []
    for lo, hi in domain.cells:
        counts = [max(1, math.ceil((hi[d] - lo[d]) / h - 1e-12)) for d in range(dim)]
        axes = [lo[d] + (hi[d] - lo[d]) * np.arange(counts[d] + 1) / counts[d]
                for d in range(dim)]
        ids = np.empty([c + 1 for c in counts], dtype=np.int64)
        for index in itertools.product(*(range(c + 1) for c in counts)):
            ids[index] = pool.add([axes[d][i] for d, i in enumerate(index)])
        for corner in itertools.product(*(range(c) for c in counts)):
            for order in orders:
                path = list(corner)
                simplex = [ids[corner]]
                for ax in order:
                    path[ax] += 1
                    simplex.append(ids[tuple(path)])
                simplices.append(simplex)
    nodes = pool.array()
    elements = _oriented(dim, nodes, np.array(simplices, dtype=np.int64))
    return SimplicialMesh(dim, nodes, elements, derive_boundary_facets(elements))


# ---------------------------------------------------------------------
# refinement and grading
# ---------------------------------------------------------------------


def refine(mesh: SimplicialMesh, levels: int = 1,
           grading: GradingSpec | None = None) -> SimplicialMesh:
    """Nested edge-midpoint refinement, reapplying any grading map.

    A graded mesh is refined by pulling its nodes back through the
    inverse radial map, refining the ungraded mesh (midpoints of
    straight edges), and mapping forward again, so the graded family
    stays nested in the ungraded coordinates. Each level appends its
    prolongation to the parent's: an old node keeps its value and a
    midpoint gets the mean of its edge's ends, which interpolates
    exactly in the ungraded coordinates.
    """
    if levels < 1:
        raise MeshSizeError("refinement levels must be >= 1")
    if grading is not None and mesh.grading is not None and grading != mesh.grading:
        raise GeometryError("mesh already carries a different grading")
    spec = grading if grading is not None else mesh.grading

    nodes = mesh.nodes
    if mesh.grading is not None:
        nodes = mesh.grading.unapply(nodes)
    elements = mesh.elements
    facets = mesh.boundary_facets
    prolongations = mesh.prolongations
    for _ in range(levels):
        n = len(nodes)
        nodes, elements, facets, parents = _refine_once(
            mesh.dimension, nodes, elements, facets)
        if len(nodes) > DEFAULT_NODE_CAP:
            raise MeshSizeError(f"refinement exceeds the node cap {DEFAULT_NODE_CAP}")
        prolongations += (_prolongation(n, parents),)
    elements = _oriented(mesh.dimension, nodes, elements)
    out = SimplicialMesh(mesh.dimension, nodes, elements, facets,
                         provenance=dict(mesh.provenance),
                         prolongations=prolongations)
    out.provenance["refined"] = out.provenance.get("refined", 0) + levels
    if spec is not None:
        out = _apply_grading(out, spec)
    _assert_shape_regular(out)
    return out


# Local edges in the order children and facets name their midpoints.
_REFINE_EDGES = {2: ((0, 1), (1, 2), (2, 0)),
                 3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
# Children as local indices into (vertices, edge midpoints): 0..dim are
# the parent's vertices, dim + 1 + e the midpoint of local edge e.
_CHILDREN = {
    2: ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5)),
    3: ((0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
        (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)),
}


def _refine_once(dim, nodes, elements, facets):
    """One edge-midpoint subdivision of elements and boundary facets.

    Midpoints are numbered after the parent's nodes in the order their
    edges are first met walking the elements, so parents keep their
    indices and the numbering is deterministic. Facets reuse the
    midpoints of their element edges. Returns the new nodes, elements
    and facets, and the (M, 2) parent edge (a, b), a < b, of each
    midpoint in numbering order.
    """
    nodes = np.asarray(nodes, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    facets = np.asarray(facets, dtype=np.int64)
    n = len(nodes)
    local = list(_REFINE_EDGES[dim])
    pairs = np.sort(elements[:, local].reshape(-1, 2), axis=1)
    keys = pairs[:, 0] * n + pairs[:, 1]
    # np.unique's first indices come from a stable sort, so ranking the
    # distinct edges by them reproduces the order of first appearance.
    uniq, first, inverse = np.unique(keys, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    a, b = pairs[first[order]].T
    new_nodes = np.concatenate([nodes, 0.5 * (nodes[a] + nodes[b])])

    vertex_mid = np.concatenate(
        [elements, n + rank[inverse].reshape(len(elements), len(local))],
        axis=1)
    children = vertex_mid[:, np.array(_CHILDREN[dim])].reshape(-1, dim + 1)

    f_local = [(0, 1)] if dim == 2 else list(_REFINE_EDGES[2])
    f_pairs = np.sort(facets[:, f_local].reshape(-1, 2), axis=1)
    f_keys = f_pairs[:, 0] * n + f_pairs[:, 1]
    if not np.isin(f_keys, uniq).all():
        raise GeometryError("a boundary facet edge is not an element edge")
    pos = np.searchsorted(uniq, f_keys)
    f_mid = np.concatenate(
        [facets, n + rank[pos].reshape(len(facets), len(f_local))], axis=1)
    if dim == 2:
        new_facets = f_mid[:, np.array(((0, 2), (2, 1)))].reshape(-1, 2)
    else:
        new_facets = f_mid[:, np.array(_CHILDREN[2])].reshape(-1, 3)
    return new_nodes, children, new_facets, np.column_stack([a, b])


def _prolongation(n_coarse: int, parents: np.ndarray) -> sp.csr_matrix:
    """P1 prolongation: unit rows for old nodes, 1/2 at each end of a
    midpoint's parent edge."""
    m = len(parents)
    mid = np.arange(n_coarse, n_coarse + m)
    rows = np.concatenate([np.arange(n_coarse), mid, mid])
    cols = np.concatenate([np.arange(n_coarse), parents[:, 0], parents[:, 1]])
    vals = np.concatenate([np.ones(n_coarse), np.full(2 * m, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_coarse + m, n_coarse))


def free_prolongations(prolongations: tuple, free: np.ndarray) -> tuple:
    """The prolongations between the free nodes of each level, coarse first.

    free lists the finest level's free (interior) nodes in increasing
    order. Refinement keeps the parent's node numbers and boundary, so
    the free nodes of the coarser level are free[free < n_coarse];
    a midpoint's weight on a constrained end is dropped.
    """
    out = []
    for p in reversed(prolongations):
        coarse = free[free < p.shape[1]]
        out.append(p[free][:, coarse].tocsr())
        free = coarse
    return tuple(reversed(out))


def _apply_grading(mesh: SimplicialMesh, spec: GradingSpec) -> SimplicialMesh:
    centers = np.array(spec.centers, dtype=float)
    if len(centers) > 1:
        diff = centers[:, None, :] - centers[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(d, np.inf)
        if d.min() < 2 * spec.radius:
            raise GeometryError("grading collars overlap")
    out = SimplicialMesh(mesh.dimension, spec.apply(mesh.nodes), mesh.elements,
                         mesh.boundary_facets, grading=spec,
                         provenance=dict(mesh.provenance),
                         prolongations=mesh.prolongations)
    vols = out.element_volumes()
    if vols.min(initial=np.inf) <= 0.0:
        raise GeometryError("grading map inverted an element; increase kappa or "
                            "reduce the collar radius")
    return out


def default_grading(domain: Polyhedron, kappa: float) -> GradingSpec:
    """Collars at every singular vertex, radius a quarter of the clearance."""
    sep = domain.min_singular_separation()
    clear = domain.vertex_clearance()
    radius = 0.25 * min(sep, clear)
    centers = tuple(tuple(float(c) for c in v) for v in domain.vertices)
    return GradingSpec(kappa=kappa, radius=radius, centers=centers)


def _assert_shape_regular(mesh: SimplicialMesh) -> None:
    angle = minimum_angle(mesh)
    mesh.provenance["min_angle"] = angle
    if angle <= MIN_ANGLE_FLOOR:
        raise GeometryError(
            f"generated mesh has minimum angle {angle:.2e} rad, below the "
            f"shape-regularity floor {MIN_ANGLE_FLOOR}")


def minimum_angle(mesh: SimplicialMesh) -> float:
    """Shape-regularity measure, radians.

    Smallest interior angle over all triangles in 2D; smallest dihedral
    angle over all tetrahedra in 3D. The built-in generators keep this
    above config.MIN_ANGLE_FLOOR for the whole refined family because
    refinement is nested and the grading map has bounded anisotropy
    (the radial stretch is at most 1 / kappa inside a collar).
    """
    if mesh.dimension == 3:
        return kernels.min_dihedral_angle(mesh.nodes, mesh.elements)
    el = mesh.nodes[mesh.elements]
    worst = np.pi
    for i in range(3):
        u = el[:, (i + 1) % 3] - el[:, i]
        v = el[:, (i + 2) % 3] - el[:, i]
        dot = np.einsum("ed,ed->e", u, v)
        nrm = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        ang = np.arccos(np.clip(dot / nrm, -1.0, 1.0))
        worst = min(worst, float(ang.min()))
    return worst


# ---------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------


def write_mesh(path, mesh: SimplicialMesh) -> None:
    """Plain-text mesh file; floats use repr so round trips are exact."""
    lines = [f"{MESH_MAGIC} {MESH_VERSION}", f"DIM {mesh.dimension}"]
    lines.append(f"NODES {mesh.num_nodes}")
    for i, p in enumerate(mesh.nodes):
        lines.append(f"{i + 1} " + " ".join(repr(float(c)) for c in p))
    lines.append(f"ELEMENTS {mesh.num_elements}")
    for i, el in enumerate(mesh.elements):
        lines.append(f"{i + 1} " + " ".join(str(int(v) + 1) for v in el))
    lines.append(f"BOUNDARY {len(mesh.boundary_facets)}")
    for f in mesh.boundary_facets:
        lines.append(" ".join(str(int(v) + 1) for v in f))
    if mesh.grading is not None:
        g = mesh.grading
        lines.append(f"GRADING {g.kappa!r} {g.radius!r} {len(g.centers)}")
        for c in g.centers:
            lines.append(" ".join(repr(float(x)) for x in c))
    lines.append("END")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _number(text: str, kind):
    """text read as a finite int or float; MeshFormatError otherwise."""
    try:
        value = kind(text)
    except ValueError:
        raise MeshFormatError(f"{text!r} is not a valid {kind.__name__}") from None
    if not math.isfinite(value):
        raise MeshFormatError(f"non-finite value {text!r}")
    return value


def read_mesh(path) -> SimplicialMesh:
    """Mesh from a write_mesh file. Raises MeshFormatError on malformed
    or non-finite numbers and when the BOUNDARY facets are not the
    facets owned by one element (derive_boundary_facets)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    cursor = 0

    def take():
        nonlocal cursor
        if cursor >= len(raw):
            raise MeshFormatError("unexpected end of mesh file")
        line = raw[cursor]
        cursor += 1
        return line

    head = take().split()
    if len(head) != 2 or head[0] != MESH_MAGIC:
        raise MeshFormatError("not a mesh file (bad magic line)")
    if _number(head[1], int) != MESH_VERSION:
        raise MeshFormatError(f"unsupported mesh format version {head[1]}")
    dim_line = take().split()
    if dim_line[0] != "DIM" or len(dim_line) != 2:
        raise MeshFormatError("expected DIM line")
    dim = _number(dim_line[1], int)
    if dim not in (2, 3):
        raise MeshFormatError("DIM must be 2 or 3")

    def section(name, width, dtype, with_id):
        header = take().split()
        if header[0] != name or len(header) != 2:
            raise MeshFormatError(f"expected {name} section")
        count = _number(header[1], int)
        if count < 0:
            raise MeshFormatError(f"negative {name} count")
        rows = []
        for k in range(count):
            parts = take().split()
            if with_id:
                if _number(parts[0], int) != k + 1:
                    raise MeshFormatError(f"{name} ids must be sequential from 1")
                parts = parts[1:]
            if len(parts) != width:
                raise MeshFormatError(f"{name} row with {len(parts)} fields, expected {width}")
            rows.append([_number(x, dtype) for x in parts])
        return rows

    nodes = np.array(section("NODES", dim, float, True), dtype=float).reshape(-1, dim)
    elements = np.array(section("ELEMENTS", dim + 1, int, True),
                        dtype=np.int64).reshape(-1, dim + 1) - 1
    facets = np.array(section("BOUNDARY", dim, int, False),
                      dtype=np.int64).reshape(-1, dim) - 1

    grading = None
    tail = take().split()
    if tail[0] == "GRADING":
        if len(tail) != 4:
            raise MeshFormatError("GRADING line needs kappa, radius and a count")
        kappa, radius = _number(tail[1], float), _number(tail[2], float)
        ncenters = _number(tail[3], int)
        centers = tuple(tuple(_number(x, float) for x in take().split())
                        for _ in range(ncenters))
        for c in centers:
            if len(c) != dim:
                raise MeshFormatError("grading center with wrong dimension")
        grading = GradingSpec(kappa=kappa, radius=radius, centers=centers)
        tail = take().split()
    if tail[0] != "END":
        raise MeshFormatError("expected END line")

    mesh = SimplicialMesh(dim, nodes, elements, facets, grading=grading)
    mesh.validate()
    if not np.array_equal(np.unique(np.sort(facets, axis=1), axis=0),
                          derive_boundary_facets(elements)):
        raise MeshFormatError("BOUNDARY facets are not the facets that "
                              "belong to exactly one element")
    return mesh
