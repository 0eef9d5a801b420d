"""Numpy implementations of the numeric kernels.

These are the reference implementations of the operations the compiled
extension accelerates: P1 simplex geometry, local element matrices,
batched point-to-singular-set distances and the scalar reductions used
by the iterative solvers. Both backends perform the same per-element
arithmetic; the reductions differ in accumulation scheme.
``neumaier_sum`` is ``math.fsum`` here (correctly rounded, Shewchuk
1997) and Neumaier-compensated in the extension. ``neumaier_dot`` is
plain ``np.dot`` here and Neumaier-compensated in the extension: it is
the inner product of every Jacobi-CG iteration, where an exact sum of
the products would cost more than the solve itself. All reductions are
deterministic on a fixed platform.

The distance kernels keep one (S, P) array per coordinate and add the
coordinates one after another, the compiled kernel's arithmetic and
order, so indices and nearest points match it bit for bit (up to the
sign of a zero) and distances within one unit in the last place (square
root against power). They run over
blocks of BLOCK query points, which bounds each (S, P) temporary at
S * BLOCK doubles, and measure each block only against the targets that
can be nearest to one of its points (exact pruning by bounding boxes,
see ``_candidates``); the result does not depend on the blocking.
"""

import math

import numpy as np

BACKEND_NAME = "fallback"

# Query points per block in the distance kernels. Each (S, P) temporary
# then holds at most S * BLOCK doubles: about 0.8 MB with the 12 singular
# edges of a polyhedron. A smaller block prunes more targets but pays the
# per-block cost more often; 8192 was the fastest of 1024-16384 on the
# distance calls of the hardy_3d benchmark workload.
BLOCK = 8192
# Relative slack of the pruning test in _candidates, far above the few
# units of rounding (about 1e-16) in the distances it compares.
PRUNE_MARGIN = 1e-12


def simplex_geometry(nodes: np.ndarray, elements: np.ndarray):
    """Signed volumes and P1 shape-function gradients, per element.

    Returns (volumes (E,), grads (E, d+1, d)) where grads[e, i] is the
    constant gradient of the barycentric basis function of local node i.
    """
    dim = nodes.shape[1]
    coords = nodes[elements]  # (E, d+1, d)
    if dim == 2:
        a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
        ab = b - a
        ac = c - a
        det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
        vol = 0.5 * det
        grads = np.empty((len(elements), 3, 2))
        # grad(lambda_i) = perp(opposite edge) / (2 area), perp (x,y) -> (-y,x)
        for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            edge = coords[:, k] - coords[:, j]
            grads[:, i, 0] = -edge[:, 1] / det
            grads[:, i, 1] = edge[:, 0] / det
        return vol, grads
    if dim == 3:
        a = coords[:, 0]
        u = coords[:, 1] - a
        v = coords[:, 2] - a
        w = coords[:, 3] - a
        # Cofactor-based inverse of J = [u v w] (columns); rows of J^-1
        # are the gradients of lambda_1..3, lambda_0 closes the sum.
        c0 = np.cross(v, w)
        c1 = np.cross(w, u)
        c2 = np.cross(u, v)
        det = np.einsum("ij,ij->i", u, c0)
        vol = det / 6.0
        grads = np.empty((len(elements), 4, 3))
        grads[:, 1] = c0 / det[:, None]
        grads[:, 2] = c1 / det[:, None]
        grads[:, 3] = c2 / det[:, None]
        grads[:, 0] = -(grads[:, 1] + grads[:, 2] + grads[:, 3])
        return vol, grads
    raise ValueError(f"unsupported dimension {dim}")


def local_stiffness(vols: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Element stiffness matrices vol * G G^T, shape (E, d+1, d+1)."""
    return vols[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)


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
    coordinate gives one (S, P) array, and the coordinates are summed one
    after another, which is the compiled kernel's arithmetic and order:
    t = sum_k (p_k - a_k) d_k / |d|^2 clamped to [0, 1], then
    sum_k (p_k - (a_k + t d_k))^2. Rows run over the points, so every
    operation streams over P contiguous values.
    """
    t = None
    if seg_d is not None:
        for k in range(len(pt)):
            term = np.subtract(pt[k], seg_a[k])
            term *= seg_d[k]
            if t is None:
                t = term
            else:
                t += term
        t /= dd
        np.clip(t, 0.0, 1.0, out=t)
    d2 = None
    for k in range(len(pt)):
        if t is None:
            diff = np.subtract(pt[k], seg_a[k])
        else:
            diff = np.multiply(t, seg_d[k])
            diff += seg_a[k]
            np.subtract(pt[k], diff, out=diff)
        diff *= diff
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2, t


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
        dd = dirs[0] * dirs[0]
        for k in range(1, dim):
            dd = dd + dirs[k] * dirs[k]
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
