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
deterministic on a fixed platform. The distance kernels run over blocks
of BLOCK query points, which bounds their (P, S, d) temporaries at
BLOCK * S * d doubles per array and gives the same bits as one block.
"""

import math

import numpy as np

BACKEND_NAME = "fallback"

# Query points per block in the distance kernels. Their (P, S, d)
# temporaries then hold at most BLOCK * S * d doubles per array: with the
# 12 singular edges of a polyhedron in 3D that is about 9 MB, where one
# block of the 779k quadrature points of a refined box mesh would take
# about 220 MB per array.
BLOCK = 32768


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


def _blocked(kernel, points: np.ndarray, *targets):
    """Run ``kernel`` over blocks of at most BLOCK query points.

    The kernels treat each query point on its own, so the blocked result
    equals one call on all points; only the temporaries shrink.
    """
    if len(points) <= BLOCK:
        return kernel(points, *targets)
    parts = [kernel(points[i:i + BLOCK], *targets)
             for i in range(0, len(points), BLOCK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _nearest_on_segments(points, seg_a, seg_b):
    d = seg_b - seg_a  # (S, dim)
    dd = np.einsum("sd,sd->s", d, d)
    dd = np.where(dd > 0.0, dd, 1.0)  # degenerate segments act as points
    diff = points[:, None, :] - seg_a[None, :, :]  # (P, S, dim)
    t = np.einsum("psd,sd->ps", diff, d) / dd[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist2 = np.einsum("psd,psd->ps", points[:, None, :] - proj, points[:, None, :] - proj)
    idx = np.argmin(dist2, axis=1)
    rows = np.arange(len(points))
    best = proj[rows, idx]
    return np.sqrt(dist2[rows, idx]), best, idx


def nearest_on_segments(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    """Closest point on a set of segments, for every query point.

    Returns (dist (P,), nearest (P, d), seg_index (P,)). Ties resolve to
    the lowest segment index. Temporaries are (BLOCK, S, d) at most.
    """
    return _blocked(_nearest_on_segments, points, seg_a, seg_b)


def _nearest_points(points, targets):
    diff = points[:, None, :] - targets[None, :, :]
    dist2 = np.einsum("ptd,ptd->pt", diff, diff)
    idx = np.argmin(dist2, axis=1)
    return np.sqrt(dist2[np.arange(len(points)), idx]), idx


def nearest_points(points: np.ndarray, targets: np.ndarray):
    """Nearest target point for every query point: (dist, index).

    Ties resolve to the lowest target index. Temporaries are (BLOCK, T, d)
    at most.
    """
    return _blocked(_nearest_points, points, targets)
