"""Straight polygonal and polyhedral domains.

Domains are flat-faced and bounded. In 2D any simple polygon is
accepted; in 3D the supported shapes are generated from axis-aligned
grid cells (boxes, L-prisms, corner-notched cubes), which keeps every
face, edge and vertex figure exactly representable. A boundary face is
the tuple of its vertex ids. The singular set of a domain is the corners
of a polygon, the edges and corners of a polyhedron; all weighted-norm
machinery downstream measures distance to that set.

Exact geometric quantities (interior angles, dihedral angles, vertex
links) are computed from the boundary faces and grid cells, never from
meshes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels, sphere
from .config import GEOM_TOL, SCHEMA_VERSION
from .errors import GeometryError

# The canonical nonconvex test polygon: five right corners and one
# reentrant corner of opening 3*pi/2 at the origin.
L_SHAPE_VERTICES = (
    (0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
    (-1.0, 1.0), (-1.0, -1.0), (0.0, -1.0),
)


@dataclass
class Polyhedron:
    """Bounded straight domain with its boundary faces.

    boundary_faces  vertex ids of each boundary face: the two ends of a
                    polygon side, the vertex cycle of a polyhedron face
    edge_faces      the indices of the two boundary faces at each 3D
                    edge ([] in 2D)

    Immutable after construction; all operations treat it as read-only,
    so instances can be shared freely across threads.
    """

    dimension: int
    vertices: np.ndarray
    edges: np.ndarray
    boundary_faces: list[tuple[int, ...]]
    edge_faces: list[tuple[int, int]]
    generator: str
    parameters: dict
    cells: np.ndarray | None = None
    vertex_cells: dict[int, list[int]] = field(default_factory=dict)

    # -- membership ---------------------------------------------------

    def contains(self, points: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
        """Closed membership test (True on the boundary up to tol)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.cells is not None:
            inside = np.zeros(len(points), dtype=bool)
            for lo, hi in self.cells:
                ok = np.ones(len(points), dtype=bool)
                for d in range(self.dimension):
                    ok &= (points[:, d] >= lo[d] - tol) & (points[:, d] <= hi[d] + tol)
                inside |= ok
            return inside
        return _points_in_polygon(points, self.vertices, tol)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(points), np.inf)
        for f in self.boundary_faces:
            out = np.minimum(out, self._face_distance(points, f))
        return out

    def face_plane_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest boundary face's plane (line in 2D): a
        lower bound of boundary_distance, since a face lies in its plane."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(points), np.inf)
        for f in self.boundary_faces:
            cyc = self.vertices[list(f)]
            if self.dimension == 2:
                tangent = cyc[1] - cyc[0]
                normal = np.array([-tangent[1], tangent[0]])
                normal = normal / np.linalg.norm(normal)
            else:
                normal = _face_frame(cyc)[0]
            out = np.minimum(out, np.abs((points - cyc[0]) @ normal))
        return out

    def _face_distance(self, points, face: tuple[int, ...]) -> np.ndarray:
        cyc = self.vertices[list(face)]
        if self.dimension == 2:
            d, _, _ = kernels.nearest_on_segments(points, cyc[:1], cyc[1:2])
            return d
        normal, frame, origin = _face_frame(cyc)
        rel = points - origin
        off = rel @ normal
        uv = rel @ frame.T
        poly2d = (cyc - origin) @ frame.T
        inside = _points_in_polygon(uv, poly2d)
        d_plane = np.abs(off)
        segs_a = cyc
        segs_b = np.roll(cyc, -1, axis=0)
        d_seg, _, _ = kernels.nearest_on_segments(points, segs_a, segs_b)
        return np.where(inside, d_plane, d_seg)

    # -- singular set -------------------------------------------------

    def singular_segments(self) -> np.ndarray:
        """Closed singular 1-faces as (S, 2, n) endpoint pairs (3D)."""
        if self.dimension == 2:
            return np.empty((0, 2, 2))
        return self.vertices[self.edges]

    def min_vertex_separation(self) -> float:
        v = self.vertices
        diff = v[:, None, :] - v[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        d[d < GEOM_TOL] = np.inf
        return float(d.min())

    def min_singular_separation(self) -> float:
        """Smallest positive distance between non-incident singular faces.

        In 3D the distance of two segments that share no vertex is
        attained at an endpoint of one of them, which the vertex loop
        measures exactly, or at the feet of their common perpendicular.
        """
        if self.dimension == 2:
            return self.min_vertex_separation()
        best = self.min_vertex_separation()
        segs = self.singular_segments()
        for vi, v in enumerate(self.vertices):
            others = segs[~(self.edges == vi).any(axis=1)]
            if len(others):
                d, _, _ = kernels.nearest_on_segments(v[None, :], others[:, 0], others[:, 1])
                best = min(best, float(d.min()))
        i, j = np.triu_indices(len(segs), 1)
        apart = ~(self.edges[i][:, :, None] == self.edges[j][:, None, :]).any(axis=(1, 2))
        if apart.any():
            d = _common_perpendicular(segs[i[apart]], segs[j[apart]])
            best = min(best, float(d.min()))
        return best

    def vertex_clearance(self) -> float:
        """Min distance from a singular vertex to a non-incident boundary face.

        Radial grading collars must stay below this radius so that the
        domain is star shaped with respect to the vertex inside the
        collar.
        """
        best = np.inf
        for vi, v in enumerate(self.vertices):
            for f in self.boundary_faces:
                if vi in f:
                    continue
                d = self._face_distance(v[None, :], f)[0]
                best = min(best, float(d))
        return best

    def min_edge_length(self) -> float:
        if self.dimension == 2:
            cyc = self.vertices
            nxt = np.roll(cyc, -1, axis=0)
            return float(np.linalg.norm(nxt - cyc, axis=1).min())
        segs = self.singular_segments()
        return float(np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1).min())


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------


def build_polygon(vertices) -> Polyhedron:
    """Simple polygon from a vertex cycle; normalized counterclockwise.

    Every corner is a singular 0-face. Rejects repeated vertices,
    zero-area cycles, straight (angle pi) corners and self-intersecting
    cycles.
    """
    verts = _finite_array(vertices)
    if verts is None or verts.ndim != 2 or verts.shape[1] != 2:
        raise GeometryError("polygon vertices must be an (n, 2) array of "
                            "finite numbers")
    n = len(verts)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")

    diff = verts[:, None, :] - verts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    if dist.min() <= GEOM_TOL:
        raise GeometryError("repeated polygon vertex")

    x, y = verts[:, 0], verts[:, 1]
    area2 = np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
    if abs(area2) <= GEOM_TOL:
        raise GeometryError("degenerate polygon: zero signed area")
    if area2 < 0:
        verts = np.vstack([verts[:1], verts[1:][::-1]])

    for i in range(n):
        prev_v = verts[(i - 1) % n] - verts[i]
        next_v = verts[(i + 1) % n] - verts[i]
        cross = next_v[0] * prev_v[1] - next_v[1] * prev_v[0]
        dot = next_v @ prev_v
        ang = np.arctan2(cross, dot) % (2 * np.pi)
        if min(ang, abs(ang - np.pi), 2 * np.pi - ang) <= 1e-12:
            raise GeometryError(f"degenerate corner at vertex {i}")

    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = verts[j], verts[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                raise GeometryError(f"polygon edges {i} and {j} intersect")

    return Polyhedron(
        dimension=2,
        vertices=verts,
        edges=np.empty((0, 2), dtype=np.int64),
        boundary_faces=[(i, (i + 1) % n) for i in range(n)],
        edge_faces=[],
        generator="polygon",
        parameters={"vertices": verts.tolist()},
        cells=_rectilinear_cells(verts),
    )


def _rectilinear_cells(verts) -> np.ndarray | None:
    """Grid cells covering an axis-aligned polygon, None if not rectilinear."""
    n = len(verts)
    for i in range(n):
        d = verts[(i + 1) % n] - verts[i]
        if abs(d[0]) > GEOM_TOL and abs(d[1]) > GEOM_TOL:
            return None
    xs = np.unique(np.round(verts[:, 0], 12))
    ys = np.unique(np.round(verts[:, 1], 12))
    cells = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            center = np.array([(xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2])
            if _points_in_polygon(center[None, :], verts)[0]:
                cells.append(((xs[i], ys[j]), (xs[i + 1], ys[j + 1])))
    return np.array(cells)


def build_polyhedron_3d(kind: str, /, **params) -> Polyhedron:
    """Canonical 3D domains from axis-aligned grid cells.

    kind = "box"      rectangular box, parameters lengths=(a, b, c)
    kind = "l_prism"  L-shaped cross-section extruded to height h
    kind = "fichera"  cube [-1,1]^3 with the closed octant [0,1]^3 removed
    """
    if kind == "box":
        _only_parameters(kind, params, ("lengths",))
        lengths = _positive(params.get("lengths", (1.0, 1.0, 1.0)), (3,),
                            "box lengths must be 3 positive finite numbers")
        grids = [np.array([0.0, l]) for l in lengths]
        inside = np.ones((1, 1, 1), dtype=bool)
        return _from_grid(grids, inside, "box", {"lengths": lengths.tolist()})
    if kind == "l_prism":
        _only_parameters(kind, params, ("height",))
        height = float(_positive(params.get("height", 1.0), (),
                                 "prism height must be a positive finite number"))
        xs = np.array([-1.0, 0.0, 1.0])
        ys = np.array([-1.0, 0.0, 1.0])
        zs = np.array([0.0, height])
        inside = np.ones((2, 2, 1), dtype=bool)
        inside[1, 0, 0] = False  # remove the (+x, -y) column
        return _from_grid([xs, ys, zs], inside, "l_prism", {"height": height})
    if kind == "fichera":
        _only_parameters(kind, params)
        g = np.array([-1.0, 0.0, 1.0])
        inside = np.ones((2, 2, 2), dtype=bool)
        inside[1, 1, 1] = False  # remove the (+, +, +) octant
        return _from_grid([g, g, g], inside, "fichera", {})
    raise GeometryError(f"unknown 3D generator '{kind}'")


def _finite_array(value) -> np.ndarray | None:
    """value as a float array, None unless every entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if np.isfinite(arr).all() else None


def _positive(value, shape: tuple, message: str) -> np.ndarray:
    """value as a float array of the given shape with positive finite
    entries; GeometryError(message) otherwise."""
    arr = _finite_array(value)
    if arr is None or arr.shape != shape or not np.all(arr > 0):
        raise GeometryError(message)
    return arr


def _only_parameters(kind: str, params: dict, known: tuple = ()) -> None:
    """GeometryError unless every key of params is one the generator
    reads, so a misspelt parameter is not silently left at its default."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise GeometryError(f"generator '{kind}' does not take "
                            f"parameters {unknown}")


def _from_grid(grids, inside, generator, parameters) -> Polyhedron:
    """Assemble a Polyhedron from occupied cells of a rectilinear grid."""
    nx, ny, nz = inside.shape

    def filled(i, j, k):
        if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz:
            return inside[i, j, k]
        return False

    # Boundary squares per (axis, plane, side): cell index pairs where
    # occupancy flips. side=+1 means the solid sits on the lower side.
    squares: dict = {}
    for axis in range(3):
        sizes = inside.shape
        for plane in range(sizes[axis] + 1):
            for u in range(sizes[(axis + 1) % 3]):
                for v in range(sizes[(axis + 2) % 3]):
                    idx_lo = [0, 0, 0]
                    idx_lo[axis] = plane - 1
                    idx_lo[(axis + 1) % 3] = u
                    idx_lo[(axis + 2) % 3] = v
                    idx_hi = list(idx_lo)
                    idx_hi[axis] = plane
                    lo_in = filled(*idx_lo)
                    hi_in = filled(*idx_hi)
                    if lo_in == hi_in:
                        continue
                    side = 1 if lo_in else -1
                    squares.setdefault((axis, plane, side), []).append((u, v))

    face_cycles = []
    for (axis, plane, side), sqs in sorted(squares.items()):
        for comp in _connected_components(sqs):
            cyc2d = _region_boundary_cycle(comp)
            ua, va = (axis + 1) % 3, (axis + 2) % 3
            grid_u, grid_v = grids[ua], grids[va]
            pts = []
            for (iu, iv) in cyc2d:
                p = np.zeros(3)
                p[axis] = grids[axis][plane]
                p[ua] = grid_u[iu]
                p[va] = grid_v[iv]
                pts.append(p)
            pts = _merge_collinear_cycle(np.array(pts))
            # orient the cycle so the outward normal follows `side`
            normal = _cycle_normal(pts)
            want = np.zeros(3)
            want[axis] = side
            if np.dot(normal, want) < 0:
                pts = pts[::-1]
            face_cycles.append(pts)

    vert_index: dict = {}
    verts: list = []

    def vid(p):
        k = tuple(np.round(p, 12))
        if k not in vert_index:
            vert_index[k] = len(verts)
            verts.append(np.asarray(p, dtype=float))
        return vert_index[k]

    face_vertex_ids = [tuple(vid(p) for p in cyc) for cyc in face_cycles]
    vertices = np.array(verts)

    # Edges in order of first appearance, each with the indices of the
    # faces that meet at it, in increasing order.
    edge_faces: dict = {}
    for fi, ids in enumerate(face_vertex_ids):
        m = len(ids)
        for t in range(m):
            e = tuple(sorted((ids[t], ids[(t + 1) % m])))
            edge_faces.setdefault(e, []).append(fi)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise GeometryError(f"edge {e} bounds {len(fs)} faces; boundary not watertight")

    # occupied cells as boxes, plus per-vertex incidence for vertex links
    cell_boxes = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if inside[i, j, k]:
                    lo = (grids[0][i], grids[1][j], grids[2][k])
                    hi = (grids[0][i + 1], grids[1][j + 1], grids[2][k + 1])
                    cell_boxes.append((lo, hi))
    cell_boxes = np.array(cell_boxes)
    vertex_cells: dict = {}
    for vi, v in enumerate(vertices):
        touching = []
        for ci, (lo, hi) in enumerate(cell_boxes):
            if all(abs(v[d] - lo[d]) < GEOM_TOL or abs(v[d] - hi[d]) < GEOM_TOL
                   for d in range(3)):
                touching.append(ci)
        vertex_cells[vi] = touching

    return Polyhedron(
        dimension=3,
        vertices=vertices,
        edges=np.array(list(edge_faces), dtype=np.int64),
        boundary_faces=face_vertex_ids,
        edge_faces=[tuple(fs) for fs in edge_faces.values()],
        generator=generator,
        parameters=parameters,
        cells=cell_boxes,
        vertex_cells=vertex_cells,
    )


def _connected_components(squares):
    """Edge-connected components of a set of (u, v) grid squares."""
    todo = set(squares)
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        todo.remove(seed)
        stack = [seed]
        while stack:
            u, v = stack.pop()
            for nb in ((u + 1, v), (u - 1, v), (u, v + 1), (u, v - 1)):
                if nb in todo:
                    todo.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _region_boundary_cycle(squares):
    """Boundary cycle (counterclockwise) of a union of grid squares.

    Returns grid-corner index pairs. Raises if the region has a hole
    (several boundary loops).
    """
    sqset = set(squares)
    directed = {}
    for (u, v) in squares:
        for a, b, nb in (
            ((u, v), (u + 1, v), (u, v - 1)),
            ((u + 1, v), (u + 1, v + 1), (u + 1, v)),
            ((u + 1, v + 1), (u, v + 1), (u, v + 1)),
            ((u, v + 1), (u, v), (u - 1, v)),
        ):
            if nb not in sqset:
                if a in directed:
                    raise GeometryError("pinched boundary face is not supported")
                directed[a] = b
    start = min(directed)
    cycle = [start]
    cur = directed.pop(start)
    while cur != start:
        cycle.append(cur)
        cur = directed.pop(cur)
    if directed:
        raise GeometryError("boundary face with a hole is not supported")
    return cycle


def _merge_collinear_cycle(pts: np.ndarray) -> np.ndarray:
    keep = []
    n = len(pts)
    for i in range(n):
        a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
        if np.linalg.norm(np.cross(b - a, c - b)) > GEOM_TOL:
            keep.append(pts[i])
    return np.array(keep)


def _cycle_normal(pts: np.ndarray) -> np.ndarray:
    n = np.zeros(3)
    for i in range(len(pts)):
        n += np.cross(pts[i], pts[(i + 1) % len(pts)])
    return n / 2.0


def _face_frame(cyc: np.ndarray):
    """(unit normal, 2x3 in-plane frame, origin) of a planar face cycle."""
    normal = _cycle_normal(cyc - cyc[0])
    normal = normal / np.linalg.norm(normal)
    e1 = cyc[1] - cyc[0]
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return normal, np.vstack([e1, e2]), cyc[0]


def _points_in_polygon(pts, poly, tol: float = GEOM_TOL):
    """Even-odd membership in a simple 2D polygon, closed up to tol."""
    segs_a = poly
    segs_b = np.roll(poly, -1, axis=0)
    d, _, _ = kernels.nearest_on_segments(np.atleast_2d(pts), segs_a, segs_b)
    on_bd = d <= tol
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside | on_bd


def _segments_intersect(a1, a2, b1, b2) -> bool:
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if v > GEOM_TOL:
            return 1
        if v < -GEOM_TOL:
            return -1
        return 0

    def on_seg(p, q, r):
        return (min(p[0], q[0]) - GEOM_TOL <= r[0] <= max(p[0], q[0]) + GEOM_TOL
                and min(p[1], q[1]) - GEOM_TOL <= r[1] <= max(p[1], q[1]) + GEOM_TOL)

    o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
    o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    for (p, q, r, o) in ((a1, a2, b1, o1), (a1, a2, b2, o2), (b1, b2, a1, o3), (b1, b2, a2, o4)):
        if o == 0 and on_seg(p, q, r):
            return True
    return False


def _common_perpendicular(s1, s2) -> np.ndarray:
    """Length of the common perpendicular of each pair of (S, 2, n)
    segments, inf where the lines are parallel or a foot falls outside
    either open segment (Lumelsky, Inform. Process. Lett. 1985). Where
    it is finite it is the distance of the two segments; elsewhere that
    distance is attained at an endpoint."""
    u, v = s1[:, 1] - s1[:, 0], s2[:, 1] - s2[:, 0]
    w = s1[:, 0] - s2[:, 0]
    uu, uv, vv = (u * u).sum(1), (u * v).sum(1), (v * v).sum(1)
    uw, vw = (u * w).sum(1), (v * w).sum(1)
    denom = uu * vv - uv * uv
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (uv * vw - vv * uw) / denom
        t = (uu * vw - uv * uw) / denom
        gap = w + s[:, None] * u - t[:, None] * v
    inside = (denom > 0.0) & (0.0 < s) & (s < 1.0) & (0.0 < t) & (t < 1.0)
    return np.where(inside, np.sqrt((gap * gap).sum(1)), np.inf)


# ---------------------------------------------------------------------
# exact angles and vertex figures
# ---------------------------------------------------------------------


def interior_angle(poly: Polyhedron, vertex_idx: int) -> float:
    """Interior angle of a 2D polygon corner, in (0, 2*pi)."""
    if poly.dimension != 2:
        raise GeometryError("interior_angle applies to polygons")
    n = len(poly.vertices)
    v = poly.vertices[vertex_idx]
    d_prev = poly.vertices[(vertex_idx - 1) % n] - v
    d_next = poly.vertices[(vertex_idx + 1) % n] - v
    cross = d_next[0] * d_prev[1] - d_next[1] * d_prev[0]
    dot = d_next @ d_prev
    return float(np.arctan2(cross, dot) % (2 * np.pi))


def dihedral_angle(poly: Polyhedron, edge_idx: int) -> float:
    """Interior dihedral angle along a 3D edge, from exact face planes."""
    return edge_frame(poly, edge_idx)[4]


def edge_frame(poly: Polyhedron, edge_idx: int):
    """Wedge frame of a 3D edge: (origin, axis, n1, n2, theta).

    axis is the unit edge direction from the first endpoint; n1 points
    into one incident face, n2 completes the frame so that interior
    points near the edge have cylindrical angle atan2(x . n2, x . n1)
    in (0, theta), theta being the interior dihedral angle.
    """
    if poly.dimension != 3:
        raise GeometryError("edge frames apply to polyhedra")
    e = poly.edges[edge_idx]
    a, b = poly.vertices[e[0]], poly.vertices[e[1]]
    axis = (b - a) / np.linalg.norm(b - a)
    mid = 0.5 * (a + b)
    probe = 1e-6 * np.linalg.norm(b - a)

    tangents = []
    for fi in poly.edge_faces[edge_idx]:
        face = poly.boundary_faces[fi]
        normal, _, _ = _face_frame(poly.vertices[list(face)])
        t = np.cross(normal, axis)
        t = t / np.linalg.norm(t)
        # of the two in-plane directions, the one into the face
        ahead, behind = poly._face_distance(
            np.array([mid + probe * t, mid - probe * t]), face)
        if behind < ahead:
            t = -t
        tangents.append(t)
    t1, t2 = tangents
    ref = np.cross(axis, t1)
    ang = float(np.arctan2(np.dot(t2, ref), np.dot(t2, t1)) % (2 * np.pi))
    n2 = ref
    bis = np.cos(ang / 2) * t1 + np.sin(ang / 2) * ref
    if not poly.contains(mid + probe * bis, tol=0.0)[0]:
        ang = 2 * np.pi - ang
        n2 = -ref
    return a, axis, t1, n2, ang


def corner_frame(poly: Polyhedron, vertex_idx: int):
    """Sector frame of a polygon corner: (vertex, n1, n2, theta).

    n1 is the unit direction along the outgoing boundary edge; n2 its
    counterclockwise perpendicular. Interior points near the corner
    have polar angle atan2(x . n2, x . n1) in (0, theta).
    """
    if poly.dimension != 2:
        raise GeometryError("corner frames apply to polygons")
    n = len(poly.vertices)
    v = poly.vertices[vertex_idx]
    n1 = poly.vertices[(vertex_idx + 1) % n] - v
    n1 = n1 / np.linalg.norm(n1)
    n2 = np.array([-n1[1], n1[0]])
    return v, n1, n2, interior_angle(poly, vertex_idx)


def vertex_link(poly: Polyhedron, vertex_idx: int) -> sphere.SphericalPolygon:
    """Spherical polygon cut by the domain on a small sphere at a corner."""
    if poly.dimension != 3:
        raise GeometryError("vertex_link applies to polyhedra")
    if vertex_idx < 0 or vertex_idx >= len(poly.vertices):
        raise GeometryError(f"no vertex with index {vertex_idx}")
    v = poly.vertices[vertex_idx]
    cells = poly.vertex_cells.get(vertex_idx, [])
    if not cells:
        raise GeometryError(f"vertex {vertex_idx} touches no cell")
    tris = []
    signs = []
    eye = np.eye(3)
    for ci in cells:
        lo, hi = poly.cells[ci]
        center = 0.5 * (np.asarray(lo) + np.asarray(hi))
        s = np.sign(center - v).astype(int)
        tris.append([s[0] * eye[0], s[1] * eye[1], s[2] * eye[2]])
        signs.append(tuple(s))
    return sphere.polygon_from_triangles(np.array(tris), octant_signs=tuple(signs))


# ---------------------------------------------------------------------
# domain spec files
# ---------------------------------------------------------------------


def domain_from_dict(spec: dict) -> Polyhedron:
    """Build a domain from a JSON-style description.

    Schema: {"schema_version": 1, "dimension": 2 | 3,
             "generator": "polygon" | "l_shape" | "rectangle" |
                          "box" | "l_prism" | "fichera",
             "vertices": [[x, y], ...]          (polygon only),
             "parameters": {...}}               (generator-specific)
    """
    if not isinstance(spec, dict):
        raise GeometryError("domain spec must be a JSON object")
    dim = spec.get("dimension")
    gen = spec.get("generator", "polygon" if "vertices" in spec else None)
    params = spec.get("parameters", {})
    if not isinstance(params, dict):
        raise GeometryError("domain parameters must be a JSON object")
    if dim == 2:
        if gen == "polygon":
            _only_parameters(gen, params)
            if "vertices" not in spec:
                raise GeometryError("polygon spec needs 'vertices'")
            return build_polygon(spec["vertices"])
        if gen == "l_shape":
            _only_parameters(gen, params)
            return build_polygon(L_SHAPE_VERTICES)
        if gen == "rectangle":
            _only_parameters(gen, params, ("lengths",))
            a, b = _positive(params.get("lengths", (1.0, 1.0)), (2,),
                             "rectangle lengths must be 2 positive finite numbers")
            return build_polygon([(0, 0), (a, 0), (a, b), (0, b)])
        raise GeometryError(f"unknown 2D generator '{gen}'")
    if dim == 3:
        if gen not in ("box", "l_prism", "fichera"):
            raise GeometryError(f"unknown 3D generator '{gen}'")
        return build_polyhedron_3d(gen, **params)
    raise GeometryError("domain spec needs dimension 2 or 3")


def domain_to_dict(poly: Polyhedron) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "dimension": poly.dimension,
           "generator": poly.generator}
    if poly.generator == "polygon":
        out["vertices"] = poly.vertices.tolist()
    else:
        out["parameters"] = poly.parameters
    return out


def load_domain(path) -> Polyhedron:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"invalid domain file: {exc}") from exc
    return domain_from_dict(spec)
