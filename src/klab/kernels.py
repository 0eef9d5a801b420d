"""Numeric kernels: P1 simplex geometry, local element matrices, batched
point-to-singular-set distances and the scalar reductions of the
iterative solvers, all in numpy. ``BACKEND`` names this one backend.

The element kernels (``simplex_geometry``, ``simplex_volumes``,
``simplex_diameters``, ``local_stiffness``, ``min_dihedral_angle``) keep
one (m,) array per coordinate over blocks of BLOCK elements, so their
temporaries stay within a few MB however large the mesh. Sums of two or
three per-coordinate products (the determinant u . (v x w), each
stiffness entry, each squared edge length, each dot of face normals) are
taken in the order ``numpy.einsum`` takes them (``_einsum_sum``), and
cross products in ``np.cross``'s arithmetic, so the results are
bit-equal to the ``np.cross``/``einsum`` formulation on whole
(E, d+1, d) arrays.

The reductions: ``neumaier_sum`` is ``math.fsum`` (correctly rounded,
Shewchuk 1997). ``neumaier_dot`` is plain ``np.dot``, not compensated:
it is the inner product of every conjugate-gradient iteration, where an
exact sum of the products would cost more than the solve itself. Both
are deterministic on a fixed platform.

The distance kernels keep one (S, P) array per coordinate and sum the
coordinates in einsum's order (``_einsum_sum``), so no (P, S, d)
temporary is formed.
They run over blocks of BLOCK query points, which bounds each (S, P)
temporary at S * BLOCK doubles, and measure each block only against the
targets that can be nearest to one of its points (exact pruning by
bounding boxes, see ``_candidates``); the result does not depend on the
blocking.
"""

import math

import numpy as np

BACKEND = "numpy"

# Elements per block in the element kernels and in femcore's assembly
# and quadrature loops, query points per block in the distance kernels,
# sorted face keys per chunk in mesh.element_faces.
# A per-coordinate temporary then holds at most BLOCK doubles (64 kB) in
# the element kernels and S * BLOCK in the distance kernels: about
# 0.8 MB with the 12 singular edges of a polyhedron. For the distance
# kernels a smaller block prunes more targets but pays the per-block
# cost more often; 8192 was the fastest of 1024-16384 on the distance
# calls of the hardy_3d benchmark workload.
BLOCK = 8192
# Relative slack of the pruning test in _candidates, far above the few
# units of rounding (about 1e-16) in the distances it compares.
PRUNE_MARGIN = 1e-12


def _einsum_sum(terms):
    """Sum of two or three (m,) arrays in the order ``numpy.einsum`` sums
    a contraction of that length: ((0 + x) + z) + y, or (0 + x) + y. The
    leading 0 only turns an all-negative-zero sum into +0, so it is added
    last. Accumulates into ``terms[0]``."""
    acc = terms[0]
    for term in terms[:0:-1]:
        acc += term
    acc += 0.0
    return acc


def _cross(v, w):
    """v x w of per-coordinate arrays, in ``np.cross``'s arithmetic."""
    return [v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0]]


def _geometry(nodes, elements, grads):
    """Signed volumes (E,) of the elements; their P1 shape-function
    gradients go into ``grads`` (E, d+1, d) unless it is None, in which
    case the cofactors only the gradients need are never formed.

    Works one block of BLOCK elements at a time on one (m,) array per
    coordinate: the corners, the edges from corner 0, the determinant of
    the edge frame and each gradient component, written out with one
    transposing copy per block.
    """
    dim = nodes.shape[1]
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    columns = [np.ascontiguousarray(nodes[:, c]) for c in range(dim)]
    vol = np.empty(len(elements))
    for start in range(0, len(elements), BLOCK):
        block = slice(start, start + BLOCK)
        corners = [[col[idx] for col in columns]
                   for idx in elements[block].T.copy()]
        a = corners[0]
        edges = [[p[c] - a[c] for c in range(dim)] for p in corners[1:]]
        if dim == 2:
            (ux, uy), (vx, vy) = edges
            det = ux * vy - uy * vx
            np.multiply(0.5, det, out=vol[block])
        else:
            u, v, w = edges
            c0 = _cross(v, w)
            det = _einsum_sum([u[c] * c0[c] for c in range(3)])
            np.divide(det, 6.0, out=vol[block])
        if grads is None:
            continue
        g = np.empty((dim + 1, dim, len(det)))
        if dim == 2:
            # grad(lambda_i) = perp(opposite edge) / (2 area), perp (x,y) -> (-y,x)
            for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
                np.divide(-(corners[k][1] - corners[j][1]), det, out=g[i, 0])
                np.divide(corners[k][0] - corners[j][0], det, out=g[i, 1])
        else:
            # Cofactor-based inverse of J = [u v w] (columns); rows of J^-1
            # are the gradients of lambda_1..3, lambda_0 closes the sum.
            for i, cofactors in enumerate((c0, _cross(w, u), _cross(u, v)), 1):
                for c in range(3):
                    np.divide(cofactors[c], det, out=g[i, c])
            closing = g[1] + g[2]
            closing += g[3]
            np.negative(closing, out=g[0])
        grads[block] = g.transpose(2, 0, 1)
    return vol


def simplex_geometry(nodes: np.ndarray, elements: np.ndarray):
    """Signed volumes and P1 shape-function gradients, per element.

    Returns (volumes (E,), grads (E, d+1, d)) where grads[e, i] is the
    constant gradient of the barycentric basis function of local node i.
    """
    dim = nodes.shape[1]
    grads = np.empty((len(elements), dim + 1, dim))
    return _geometry(nodes, elements, grads), grads


def simplex_volumes(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Signed element volumes (E,), bit-equal to
    ``simplex_geometry(nodes, elements)[0]`` without the gradients."""
    return _geometry(nodes, elements, None)


def simplex_diameters(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Longest edge length of each element, (E,).

    Works one block of BLOCK elements at a time on one (m,) array per
    coordinate; each squared edge length is summed by ``_einsum_sum``,
    so the result is bit-equal to the square root of the largest
    ``einsum("ed,ed->e", diff, diff)`` over the element's edges.
    """
    dim = nodes.shape[1]
    columns = [np.ascontiguousarray(nodes[:, c]) for c in range(dim)]
    out = np.empty(len(elements))
    for start in range(0, len(elements), BLOCK):
        block = slice(start, start + BLOCK)
        corners = [[col[idx] for col in columns]
                   for idx in elements[block].T.copy()]
        longest = np.zeros(len(corners[0][0]))
        for i, p in enumerate(corners):
            for q in corners[i + 1:]:
                diff = [p[c] - q[c] for c in range(dim)]
                np.maximum(longest, _einsum_sum([d * d for d in diff]),
                           out=longest)
        np.sqrt(longest, out=out[block])
    return out


def local_stiffness(vols: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Element stiffness matrices vol * G G^T, shape (E, d+1, d+1).

    Entry (i, j) is vols * (grads[:, i] . grads[:, j]), the dot product
    summed by ``_einsum_sum``; (j, i) is a copy of it. Works one block of
    BLOCK elements at a time on one (m,) array per gradient component and
    per entry, written out with one transposing copy per block.
    """
    n, k, dim = grads.shape
    out = np.empty((n, k, k))
    for start in range(0, n, BLOCK):
        block = slice(start, start + BLOCK)
        g = grads[block].transpose(1, 2, 0).copy()  # (k, d, m)
        entries = np.empty((k, k, g.shape[2]))
        for i in range(k):
            for j in range(i, k):
                dot = _einsum_sum([g[i][c] * g[j][c] for c in range(dim)])
                np.multiply(dot, vols[block], out=entries[i, j])
                entries[j, i] = entries[i, j]
        out[block] = entries.transpose(2, 0, 1)
    return out


def min_dihedral_angle(nodes: np.ndarray, elements: np.ndarray) -> float:
    """Smallest interior dihedral angle of the tetrahedra, radians (pi
    when there are none).

    The outward unit normal of the face opposite each vertex is formed
    one block of BLOCK elements at a time on one (m,) array per
    coordinate: the cross product in ``np.cross``'s arithmetic, the norm
    summed (x^2 + y^2) + z^2 as ``np.linalg.norm`` sums it, dots by
    ``_einsum_sum``. Every pair of faces shares one edge, where the
    interior angle is arccos(-n1 . n2). The result is bit-equal to the
    ``np.cross``/``einsum`` form on whole (E, 3) arrays.
    """
    columns = [np.ascontiguousarray(nodes[:, c]) for c in range(3)]
    worst = np.pi
    for start in range(0, len(elements), BLOCK):
        corners = [[col[idx] for col in columns]
                   for idx in elements[start:start + BLOCK].T.copy()]
        normals = []
        for m in range(4):
            a, b, c = (corners[k] for k in range(4) if k != m)
            n = _cross([b[i] - a[i] for i in range(3)],
                       [c[i] - a[i] for i in range(3)])
            norm = np.sqrt((n[0] * n[0] + n[1] * n[1]) + n[2] * n[2])
            n = [component / norm for component in n]
            toward = _einsum_sum([n[i] * (corners[m][i] - a[i])
                                  for i in range(3)])
            flip = toward > 0.0
            for component in n:
                component[flip] *= -1.0
            normals.append(n)
        for m1 in range(4):
            for m2 in range(m1 + 1, 4):
                dot = _einsum_sum([normals[m1][i] * normals[m2][i]
                                   for i in range(3)])
                angle = np.arccos(np.clip(-dot, -1.0, 1.0))
                worst = min(worst, float(angle.min()))
    return worst


def local_weighted_mass(vols, basis, qweights, wvals) -> np.ndarray:
    """Element mass matrices for  integral( w(x) u v )  on each simplex.

    basis: (Q, d+1) barycentric basis values at the quadrature points,
    qweights: (Q,) reference weights summing to 1,
    wvals: (E, Q) weight function at the mapped quadrature points.
    """
    scaled = qweights[None, :] * wvals  # (E, Q)
    outer = np.einsum("qi,qj->qij", basis, basis)  # (Q, k, k)
    return vols[:, None, None] * np.einsum("eq,qij->eij", scaled, outer)


def neumaier_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of an array (``math.fsum``), exact under
    cancellation and independent of the order of the entries."""
    return math.fsum(np.asarray(x, dtype=np.float64).ravel())


def neumaier_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Deterministic inner product of two 1-D arrays.

    Plain ``np.dot``, not compensated: this is the CG inner product, and
    an exact ``math.fsum`` of the products would dominate the solve.
    """
    return float(np.dot(x, y))


def _squared_distances(pt, seg_a, seg_d, dd):
    """Squared distances (S, P) from every target to every point, and the
    clamped segment parameters t (S, P), or None for point targets.

    ``pt`` holds the points one coordinate per row (d, P); ``seg_a`` and
    ``seg_d`` (segment starts and directions; ``seg_d`` None for point
    targets) are (d, S, 1) and ``dd`` = |seg_d|^2 is (S, 1). Each
    coordinate gives one (S, P) array, and the coordinates are summed in
    einsum's order (``_einsum_sum``): t = sum_k (p_k - a_k) d_k / |d|^2
    clamped to [0, 1], then sum_k (p_k - (a_k + t d_k))^2. Rows run over
    the points, so every operation streams over P contiguous values.
    """
    t = None
    if seg_d is not None:
        terms = []
        for k in range(len(pt)):
            term = np.subtract(pt[k], seg_a[k])
            term *= seg_d[k]
            terms.append(term)
        t = _einsum_sum(terms)
        t /= dd
        np.clip(t, 0.0, 1.0, out=t)
    terms = []
    for k in range(len(pt)):
        if t is None:
            diff = np.subtract(pt[k], seg_a[k])
        else:
            diff = np.multiply(t, seg_d[k])
            diff += seg_a[k]
            np.subtract(pt[k], diff, out=diff)
        diff *= diff
        terms.append(diff)
    return _einsum_sum(terms), t


def _candidates(pt, seg_a, seg_d, dd, seg_lo, seg_hi):
    """Indices, ascending, of the targets that can be nearest to a point
    of the block ``pt`` (d, P); every other target is farther from each
    of its points than some kept one.

    The distance to a segment is convex, so over the block's bounding box
    it is largest at a corner; the smallest of these corner maxima, T,
    bounds every point's nearest distance. A target whose bounding box
    (``seg_lo``, ``seg_hi``, (S, d)) lies farther than T from the block's
    box is farther than T from every point. T carries a relative margin
    of PRUNE_MARGIN, so rounding on either side never drops a nearest or
    tied target; a NaN anywhere keeps them all.
    """
    dim = len(pt)
    lo = pt.min(axis=1)
    hi = pt.max(axis=1)
    upper = (np.arange(2 ** dim) >> np.arange(dim)[:, None]) & 1  # (d, 2^d)
    corners = np.where(upper == 1, hi[:, None], lo[:, None])
    corner_d2, _ = _squared_distances(corners, seg_a, seg_d, dd)
    reach = corner_d2.max(axis=1).min()
    gap = np.maximum(np.maximum(seg_lo - hi, lo - seg_hi), 0.0)
    gap2 = (gap * gap).sum(axis=1)
    scale = max(np.abs(lo).max(), np.abs(hi).max(),
                np.abs(seg_lo).max(), np.abs(seg_hi).max())
    bound = reach + PRUNE_MARGIN * (reach + scale * scale)
    return np.flatnonzero(~(gap2 > bound))


def _argmin_rows(d2, out):
    """Row index of the smallest entry of each column of ``d2`` (S, P),
    the lowest one on ties; the column minima go to ``out`` (P,)."""
    best = np.zeros(d2.shape[1], dtype=np.intp)
    out[:] = d2[0]
    for s in range(1, len(d2)):
        closer = d2[s] < out
        best[closer] = s
        np.minimum(out, d2[s], out=out)
    return best


def _nearest(points, seg_a, seg_b):
    """Nearest target of every query point, one block of BLOCK points at
    a time, each against its candidate targets only.

    Targets are the segments [seg_a, seg_b], or the points seg_a when
    ``seg_b`` is None. Returns (dist, nearest point or None, index). Ties
    resolve to the lowest index: the candidates stay in index order and
    every pruned target is strictly farther than a kept one.
    """
    n, dim = points.shape
    starts = seg_a.T[:, :, None].copy()  # (d, S, 1)
    if seg_b is None:
        dirs = dd = None
        seg_lo = seg_hi = seg_a
    else:
        dirs = (seg_b - seg_a).T[:, :, None].copy()
        dd = _einsum_sum([dirs[k] * dirs[k] for k in range(dim)])
        dd = np.where(dd > 0.0, dd, 1.0)  # degenerate segments act as points
        seg_lo = np.minimum(seg_a, seg_b)
        seg_hi = np.maximum(seg_a, seg_b)
    dist2 = np.empty(n)
    index = np.empty(n, dtype=np.int64)
    nearest = None if seg_b is None else np.empty((n, dim))
    for start in range(0, n, BLOCK):
        pt = np.ascontiguousarray(points[start:start + BLOCK].T)
        keep = _candidates(pt, starts, dirs, dd, seg_lo, seg_hi)
        a = starts[:, keep]
        d = None if dirs is None else dirs[:, keep]
        d2, t = _squared_distances(pt, a, d, None if dd is None else dd[keep])
        stop = start + pt.shape[1]
        best = _argmin_rows(d2, dist2[start:stop])
        index[start:stop] = keep[best]
        if nearest is not None:
            tb = t[best, np.arange(len(best))]
            for k in range(dim):
                nearest[start:stop, k] = a[k, best, 0] + tb * d[k, best, 0]
    return np.sqrt(dist2), nearest, index


def nearest_on_segments(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    """Closest point on a set of segments, for every query point.

    Returns (dist (P,), nearest (P, d), seg_index (P,)). Ties resolve to
    the lowest segment index. Temporaries are (S, BLOCK) at most.
    """
    return _nearest(points, seg_a, seg_b)


def nearest_points(points: np.ndarray, targets: np.ndarray):
    """Nearest target point for every query point: (dist, index).

    Ties resolve to the lowest target index. Temporaries are (T, BLOCK)
    at most.
    """
    dist, _, index = _nearest(points, targets, None)
    return dist, index
