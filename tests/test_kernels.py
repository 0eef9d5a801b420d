"""Correctness of the numeric kernels, against the array formulations
they replaced (kept here verbatim as references)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klab import kernels

RNG = np.random.default_rng(42)


def _random_mesh_arrays(dim, n_el=40):
    nodes = RNG.random((n_el * (dim + 1), dim))
    elements = np.arange(n_el * (dim + 1), dtype=np.int64).reshape(n_el, dim + 1)
    # force positive volume by nudging degenerate simplices
    vols = kernels.simplex_volumes(nodes, elements)
    bad = vols < 1e-8
    while bad.any():
        nodes[elements[bad].ravel()] = RNG.random((bad.sum() * (dim + 1), dim))
        vols = kernels.simplex_volumes(nodes, elements)
        bad = vols < 1e-8
    return nodes, elements


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_neumaier_sum_cancellation():
    x = np.array([1e16, 1.0, -1e16])
    assert kernels.neumaier_sum(x) == 1.0
    x = np.array([1.0, 1e100, 1.0, -1e100])
    assert kernels.neumaier_sum(x) == 2.0


# finite floats small enough that no partial sum of 100 terms overflows
TERMS = st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=50)


@settings(deadline=None)
@given(TERMS, TERMS, st.randoms(use_true_random=False))
def test_neumaier_sum_is_fsum(values, cancelled, rnd):
    """The sum is correctly rounded, with cancelling terms mixed in."""
    terms = values + cancelled + [-v for v in cancelled]
    rnd.shuffle(terms)
    assert kernels.neumaier_sum(np.array(terms)) == math.fsum(terms)


def test_neumaier_dot_matches_fsum():
    x = RNG.random(1000)
    y = RNG.random(1000)
    assert kernels.neumaier_dot(x, y) == pytest.approx(
        math.fsum(x * y), rel=1e-15)


def test_nearest_on_segments_brute_force():
    pts = RNG.random((50, 3)) * 2.0 - 0.5
    a = RNG.random((8, 3))
    b = RNG.random((8, 3))
    d, nearest, idx = kernels.nearest_on_segments(pts, a, b)
    for i, p in enumerate(pts):
        best = np.inf
        for j in range(len(a)):
            seg = b[j] - a[j]
            t = np.clip(np.dot(p - a[j], seg) / np.dot(seg, seg), 0.0, 1.0)
            q = a[j] + t * seg
            best = min(best, np.linalg.norm(p - q))
        assert d[i] == pytest.approx(best, rel=1e-12, abs=1e-14)
        assert np.linalg.norm(p - nearest[i]) == pytest.approx(d[i], rel=1e-12,
                                                               abs=1e-14)


def test_simplex_geometry_reference_elements():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vols, grads = kernels.simplex_geometry(nodes, np.array([[0, 1, 2]]))
    assert vols[0] == pytest.approx(0.5)
    assert np.allclose(grads[0], [[-1, -1], [1, 0], [0, 1]])

    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    vols, grads = kernels.simplex_geometry(nodes, np.array([[0, 1, 2, 3]]))
    assert vols[0] == pytest.approx(1.0 / 6.0)
    assert np.allclose(grads[0][1:], np.eye(3))
    # gradients of a linear function are reproduced exactly
    coeffs = np.array([1.0, -2.0, 3.0, 0.5])
    vals = nodes @ coeffs[1:] + coeffs[0]
    assert np.allclose(np.einsum("i,id->d", vals, grads[0]), coeffs[1:])


def test_local_stiffness_is_consistent():
    nodes, elements = _random_mesh_arrays(2, n_el=10)
    vols, grads = kernels.simplex_geometry(nodes, elements)
    k = kernels.local_stiffness(vols, grads)
    # constant fields are in the kernel of the stiffness matrix
    assert np.allclose(k.sum(axis=2), 0.0, atol=1e-12)
    # symmetric positive semidefinite
    assert np.allclose(k, np.swapaxes(k, 1, 2), atol=1e-14)
    for ke in k:
        w = np.linalg.eigvalsh(ke)
        assert w.min() > -1e-12


def _reference_segment_distances(points, seg_a, seg_b):
    """The distance kernel before per-dimension arithmetic and pruning,
    kept verbatim as the reference: (P, S, d) arrays, einsum sums. The
    squared distance (P, S) of every point to every segment, and the
    nearest point (P, S, d) on each."""
    d = seg_b - seg_a  # (S, dim)
    dd = np.einsum("sd,sd->s", d, d)
    dd = np.where(dd > 0.0, dd, 1.0)  # degenerate segments act as points
    diff = points[:, None, :] - seg_a[None, :, :]  # (P, S, dim)
    t = np.einsum("psd,sd->ps", diff, d) / dd[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist2 = np.einsum("psd,psd->ps", points[:, None, :] - proj, points[:, None, :] - proj)
    return dist2, proj


def _reference_nearest_on_segments(points, seg_a, seg_b):
    dist2, proj = _reference_segment_distances(points, seg_a, seg_b)
    idx = np.argmin(dist2, axis=1)
    rows = np.arange(len(points))
    best = proj[rows, idx]
    return np.sqrt(dist2[rows, idx]), best, idx


def _reference_point_distances(points, targets):
    """The point-target kernel before the rewrite, kept verbatim: the
    squared distance (P, T) of every point to every target."""
    diff = points[:, None, :] - targets[None, :, :]
    return np.einsum("ptd,ptd->pt", diff, diff)


def _reference_nearest_points(points, targets):
    dist2 = _reference_point_distances(points, targets)
    idx = np.argmin(dist2, axis=1)
    return np.sqrt(dist2[np.arange(len(points)), idx]), idx


# Small grid coordinates: with them point-to-point distances are exact,
# and exact distance ties between targets are common.
GRID = st.integers(min_value=-4, max_value=4).map(lambda i: i / 4.0)
REAL = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)


@st.composite
def _distance_case(draw, kind):
    """Block size, points (P, d) and segments (S, d) x 2: 2D or 3D, one,
    two or more segments, some degenerate (a == b), point counts below,
    at and across block boundaries (zero included), some points on a
    segment.

    ``kind`` "exact" draws grid coordinates and segment directions L * e
    with L a power of two and e one or two unit steps along the axes, so
    |e|^2 is 1 or 2: then every operation of both kernels is exact, the
    summation order cannot matter, and ties are exact. "grid" draws both
    endpoints from the grid, "real" arbitrary reals in [-1, 1].
    """
    dim = draw(st.sampled_from([2, 3]))
    coord = REAL if kind == "real" else GRID
    vec = st.lists(coord, min_size=dim, max_size=dim)

    def array(elements, n):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                        dtype=float).reshape(n, dim)

    n_seg = draw(st.sampled_from([1, 2]) | st.integers(1, 12))
    a = array(vec, n_seg)
    if kind == "exact":
        steps = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=dim,
                         max_size=dim).filter(lambda e: sum(map(abs, e)) <= 2)
        lengths = st.sampled_from([0.25, 0.5, 1.0])
        b = a + array(steps, n_seg) * np.array(
            draw(st.lists(lengths, min_size=n_seg, max_size=n_seg)))[:, None]
    else:
        b = array(vec, n_seg)
    flat = draw(st.lists(st.booleans(), min_size=n_seg, max_size=n_seg))
    b[flat] = a[flat]
    block = draw(st.integers(min_value=1, max_value=9))
    n_pts = draw(st.sampled_from([block - 1, block, block + 1, 2 * block,
                                  3 * block + 1]) | st.integers(0, 40))
    pts = array(vec, n_pts)
    fractions = (st.floats(0.0, 1.0) if kind == "real"
                 else st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    on = draw(st.lists(st.tuples(st.integers(0, n_seg - 1), fractions),
                       max_size=n_pts))
    for i, (j, u) in enumerate(on):
        pts[i] = a[j] + u * (b[j] - a[j])
    return block, pts, a, b


def _kernels_at_block(block, pts, a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        return (kernels.nearest_on_segments(pts, a, b)
                + kernels.nearest_points(pts, a))


@settings(deadline=None, max_examples=300)
@given(_distance_case("exact"))
# Everything at one point: the gap and T are both 0, and the test that
# keeps the segment must admit equality.
@example((1, np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((1, 3))))
def test_distance_kernels_match_reference_on_grid(case):
    """Where every operation is exact, pruning and the per-coordinate
    summation change no bit: distances, nearest points and indices, ties
    to the lowest index included."""
    block, pts, a, b = case
    got = _kernels_at_block(block, pts, a, b)
    want = (_reference_nearest_on_segments(pts, a, b)
            + _reference_nearest_points(pts, a))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


_SEG_A = np.array([[0.7890625, 0.0, 0.25111814]])
_SEG_B = np.array([[0.01473222, 0.28655412, 0.25]])


def _ulps(got, want, extent):
    """|got - want| in units in the last place of max(|want|, extent)."""
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), extent))


@settings(deadline=None, max_examples=300)
@given(_distance_case("real"))
# The nearest point a + 1 * (b - a) rounds to 0.33333333333333326, past b:
# the computed distance falls below the computed box gap, and only the
# pruning margin keeps the segment.
@example((1, np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]),
          np.array([[0.0, 1.0 / 3.0, 0.0]])))
# Segments 1 and 2 end at one point, the nearest to the query point: they
# tie in exact arithmetic, and rounding decides which index each kernel
# returns.
@example((1, np.array([[0.6265404784005448, -1.0, 1.0]]),
          np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
          np.array([[0.0, 0.0, 0.0], [0.0, -0.9127555772777217, 0.0],
                    [0.0, -0.9127555772777217, 0.0]])))
# A point on the segment: with t's numerator summed as (x0 + x1) + x2,
# not in einsum's order (x0 + x2) + x1, t is 2 ulps off and the distance
# 2.06 ulps of the extent above the reference's 0.
@example((1, _SEG_A + 0.7335750000000001 * (_SEG_B - _SEG_A), _SEG_A, _SEG_B))
def test_distance_kernels_match_reference(case):
    """On arbitrary coordinates distances and nearest points move only
    with the summation order: by at most 2 units in the last place of the
    configuration's extent (the diagonal of the box around points and
    segments), the size of a rounding of the segment parameter t times
    the segment length. The target each kernel picks is within that
    bound of the reference minimum, and not always the reference's own:
    where targets tie in exact arithmetic, rounding picks the index."""
    block, pts, a, b = case
    d, nearest, idx, dp, ip = _kernels_at_block(block, pts, a, b)
    dist2, proj = _reference_segment_distances(pts, a, b)
    pdist2 = _reference_point_distances(pts, a)
    rd, _, _ = _reference_nearest_on_segments(pts, a, b)
    rdp, _ = _reference_nearest_points(pts, a)
    every = np.concatenate([pts, a, b])
    extent = np.linalg.norm(every.max(axis=0) - every.min(axis=0))
    rows = np.arange(len(pts))
    assert _ulps(np.sqrt(dist2[rows, idx]), rd, extent).max(initial=0.0) <= 2.0
    assert _ulps(np.sqrt(pdist2[rows, ip]), rdp, extent).max(initial=0.0) <= 2.0
    assert _ulps(d, rd, extent).max(initial=0.0) <= 2.0
    assert _ulps(nearest, proj[rows, idx], extent).max(initial=0.0) <= 2.0
    assert _ulps(dp, rdp, extent).max(initial=0.0) <= 2.0


def test_compact_block_prunes_segments(monkeypatch):
    """A block of points near one edge of the unit cube measures them
    against fewer than the cube's 12 edges, with the unpruned result."""
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                        for z in (0.0, 1.0)])
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if np.abs(corners[i] - corners[j]).sum() == 1.0]
    a = corners[[i for i, _ in pairs]]
    b = corners[[j for _, j in pairs]]
    pts = np.column_stack([RNG.random(50), 0.05 * RNG.random(50),
                           0.05 * RNG.random(50)])
    sizes = []
    core = kernels._squared_distances
    monkeypatch.setattr(
        kernels, "_squared_distances",
        lambda pt, *args: sizes.append((pt.shape[1], args[0].shape[1])) or core(pt, *args))
    got = kernels.nearest_on_segments(pts, a, b)
    kept = [s for p, s in sizes if p == len(pts)]
    assert len(kept) == 1 and kept[0] < len(a)
    want = _reference_nearest_on_segments(pts, a, b)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(["exact", "grid", "real"]).flatmap(_distance_case))
def test_blocked_distance_kernels_equal_one_block(case):
    """Blocking the query points changes no bit of the distance kernels,
    and ties still resolve to the lowest index."""
    block, pts, a, b = case
    blocked = _kernels_at_block(block, pts, a, b)
    one = _kernels_at_block(max(len(pts), 1), pts, a, b)
    for got, want in zip(blocked, one):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # lowest index among the targets at the minimal distance
    d2 = ((pts[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    if len(pts):
        lowest = np.argmax(d2 == d2.min(axis=1, keepdims=True), axis=1)
        assert np.array_equal(blocked[4], lowest)


def test_blocked_kernels_bound_temporaries(monkeypatch):
    """Every block holds at most BLOCK points, and the per-coordinate
    (S, P) arrays never span more than one block."""
    blocks, widths = [], []
    candidates, core = kernels._candidates, kernels._squared_distances
    monkeypatch.setattr(kernels, "BLOCK", 16)
    monkeypatch.setattr(kernels, "_candidates",
                        lambda pt, *args: blocks.append(pt.shape[1]) or candidates(pt, *args))
    monkeypatch.setattr(kernels, "_squared_distances",
                        lambda pt, *args: widths.append(pt.shape[1]) or core(pt, *args))
    pts = RNG.random((50, 3))
    kernels.nearest_on_segments(pts, RNG.random((4, 3)), RNG.random((4, 3)))
    assert blocks == [16, 16, 16, 2]
    assert max(widths) <= 16


def _reference_simplex_geometry(nodes, elements):
    """The element geometry before per-coordinate blocks, kept verbatim as
    the reference: (E, d+1, d) arrays, ``np.cross`` and ``einsum``."""
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


def _reference_local_stiffness(vols, grads):
    """The element stiffness before per-coordinate blocks, kept verbatim."""
    return vols[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)


@st.composite
def _element_case(draw):
    """Block size, nodes (N, d) and elements (E, d+1): 2D or 3D, grid or
    arbitrary real coordinates, element counts below, at and across block
    boundaries (zero included). Elements pick their corners at random
    among the nodes, so some are inverted and, on the grid, some are
    degenerate (zero volume, infinite or NaN gradients)."""
    dim = draw(st.sampled_from([2, 3]))
    coord = draw(st.sampled_from([GRID, REAL]))
    n_nodes = draw(st.integers(dim + 1, 12))
    nodes = np.array(draw(st.lists(coord, min_size=n_nodes * dim,
                                   max_size=n_nodes * dim)),
                     dtype=float).reshape(n_nodes, dim)
    block = draw(st.integers(min_value=1, max_value=9))
    n_el = draw(st.sampled_from([block - 1, block, block + 1, 2 * block,
                                 3 * block + 1]) | st.integers(0, 40))
    corners = st.lists(st.integers(0, n_nodes - 1), min_size=dim + 1,
                       max_size=dim + 1)
    elements = np.array(draw(st.lists(corners, min_size=n_el, max_size=n_el)),
                        dtype=np.int64).reshape(n_el, dim + 1)
    return block, nodes, elements


@settings(deadline=None, max_examples=300)
@given(_element_case())
def test_element_kernels_match_reference(case):
    """Per-coordinate blocks change no bit of the element kernels: volumes
    (from ``simplex_geometry`` and from ``simplex_volumes``), gradients and
    stiffness matrices are byte-equal to the array formulation, signs of
    zeros and infinities of degenerate elements included. Only the sign of
    a NaN may differ: the reference's ``einsum`` gives the (i, j) and
    (j, i) stiffness entries of such an element NaNs of opposite signs,
    while the kernel computes each pair once."""
    block, nodes, elements = case
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(kernels, "BLOCK", block)
        vols, grads = kernels.simplex_geometry(nodes, elements)
        got = (vols, grads, kernels.local_stiffness(vols, grads),
               kernels.simplex_volumes(nodes, elements))
        rvols, rgrads = _reference_simplex_geometry(nodes, elements)
        want = (rvols, rgrads, _reference_local_stiffness(rvols, rgrads), rvols)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == w[~nan].tobytes()
