"""Spherical polygons: vertex figures of polyhedral corners.

A corner of a polyhedron cuts the unit sphere around it in a spherical
polygon (the vertex link). For the lattice-generated domains built in
:mod:`klab.geometry` every corner is a corner of one or more grid cells,
so its link is a union of coordinate octant triangles, and a link is
kept as just those triangles. They give an exact Girard area and an
exact membership test, and they seed the geodesic refinement used by
the spherical-cap eigenvalue solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import GEOM_TOL
from .errors import DegenerateLinkError
from .mesh import (_NodePool, _refine_once, derive_boundary_facets,
                   element_pattern)


def _unit(v):
    return v / np.linalg.norm(v)


def _tangent(at, towards):
    """Unit tangent at `at` of the great-circle arc running to `towards`."""
    t = towards - np.dot(at, towards) * at
    n = np.linalg.norm(t)
    if n < GEOM_TOL:
        raise DegenerateLinkError("degenerate arc between (anti)parallel directions")
    return t / n


def triangle_angles(a, b, c) -> np.ndarray:
    """Interior angles of the spherical triangle (a, b, c)."""
    out = np.empty(3)
    for i, (p, q, r) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
        t1 = _tangent(p, q)
        t2 = _tangent(p, r)
        out[i] = np.arctan2(np.linalg.norm(np.cross(t1, t2)), np.dot(t1, t2))
    return out


@dataclass
class SphericalPolygon:
    """Spherical polygon given by the spherical triangles that tile it.

    area       surface area (Girard sum over the coarse triangles)
    triangles  (T, 3, 3) right-handed coarse spherical triangles
    octant_signs  sign triples of the coordinate octants making up the
               region, when the region is an exact union of octants
    """

    area: float
    triangles: np.ndarray
    octant_signs: tuple[tuple[int, int, int], ...] | None = None

    def contains_directions(self, u: np.ndarray) -> np.ndarray:
        """Exact membership for octant-union regions (boundary excluded)."""
        if self.octant_signs is None:
            raise DegenerateLinkError("membership requires an octant decomposition")
        u = np.atleast_2d(u)
        inside = np.zeros(len(u), dtype=bool)
        for signs in self.octant_signs:
            ok = np.ones(len(u), dtype=bool)
            for d, s in enumerate(signs):
                ok &= s * u[:, d] > 0.0
            inside |= ok
        return inside


def polygon_from_triangles(triangles: np.ndarray,
                           octant_signs=None) -> SphericalPolygon:
    """Assemble a SphericalPolygon from spherical triangles that tile it.

    Every triangle is made right-handed, which also fixes the node order
    of its refinements; raises DegenerateLinkError on no triangles or a
    zero total area.
    """
    triangles = np.asarray(triangles, dtype=float)
    if len(triangles) == 0:
        raise DegenerateLinkError("empty link")
    tris = np.array([t[[0, 2, 1]] if np.linalg.det(t) < 0 else t
                     for t in triangles])
    area = 0.0
    for t in tris:
        area += triangle_angles(*t).sum() - np.pi
    if area < GEOM_TOL:
        raise DegenerateLinkError("link has zero area")
    return SphericalPolygon(float(area), tris, octant_signs)


def octant() -> SphericalPolygon:
    """First-octant triangle: three right angles, area pi/2."""
    e = np.eye(3)
    return polygon_from_triangles(np.array([[e[0], e[1], e[2]]]),
                                  octant_signs=((1, 1, 1),))


def hemisphere() -> SphericalPolygon:
    """Upper hemisphere as four octant triangles around the pole."""
    x, y, z = np.eye(3)
    tris = np.array([[x, y, z], [y, -x, z], [-x, -y, z], [-y, x, z]])
    signs = ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
    return polygon_from_triangles(tris, octant_signs=signs)


def refine_triangulation(triangles: np.ndarray, levels: int):
    """Geodesic midpoint refinement of a spherical triangulation.

    Returns (nodes (N, 3), elements (T, 3), boundary (N,) bool). Nodes
    are deduplicated across triangles; each level is mesh._refine_once
    with its midpoints pushed onto the sphere, and boundary nodes are
    those of the finest level's boundary arcs.
    """
    pool = _NodePool()
    elements = np.array([[pool.add(v) for v in t] for t in triangles],
                        dtype=np.int64)
    nodes = pool.array()
    facets = derive_boundary_facets(elements)
    for _ in range(levels):
        n = len(nodes)
        nodes, elements, facets, _ = _refine_once(2, nodes, elements, facets)
        # One row at a time: a vectorized norm can round differently.
        nodes[n:] = [_unit(v) for v in nodes[n:]]
    boundary = np.zeros(len(nodes), dtype=bool)
    boundary[facets.ravel()] = True
    return nodes, elements, boundary


def surface_p1_matrices(nodes: np.ndarray, elements: np.ndarray):
    """P1 stiffness and consistent mass on an embedded triangle surface."""
    ne = len(elements)
    coords = nodes[elements]  # (T, 3, 3)
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    e1 = b - a
    l1 = np.linalg.norm(e1, axis=1, keepdims=True)
    e1 = e1 / l1
    ca = c - a
    proj = np.einsum("td,td->t", ca, e1)
    e2 = ca - proj[:, None] * e1
    l2 = np.linalg.norm(e2, axis=1, keepdims=True)
    e2 = e2 / l2

    flat = np.zeros((3 * ne, 2))
    flat[1::3, 0] = l1[:, 0]
    flat[2::3, 0] = proj
    flat[2::3, 1] = l2[:, 0]
    local_elems = np.arange(3 * ne, dtype=np.int64).reshape(ne, 3)
    vols, grads = kernels.simplex_geometry(flat, local_elems)
    k_loc = kernels.local_stiffness(vols, grads)

    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = vols[:, None, None] * mass_ref[None, :, :]

    pattern = element_pattern(elements, len(nodes))
    return pattern.matrix([k_loc]), pattern.matrix([m_loc])
