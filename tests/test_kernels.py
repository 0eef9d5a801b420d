"""Backend equivalence and correctness of the numeric kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import kernels
from klab.kernels import _fallback

try:
    from klab.kernels import _speedups
except ImportError:
    _speedups = None

RNG = np.random.default_rng(42)


def _random_mesh_arrays(dim, n_el=40):
    nodes = RNG.random((n_el * (dim + 1), dim))
    elements = np.arange(n_el * (dim + 1), dtype=np.int64).reshape(n_el, dim + 1)
    # force positive volume by nudging degenerate simplices
    vols, _ = _fallback.simplex_geometry(nodes, elements)
    bad = vols < 1e-8
    while bad.any():
        nodes[elements[bad].ravel()] = RNG.random((bad.sum() * (dim + 1), dim))
        vols, _ = _fallback.simplex_geometry(nodes, elements)
        bad = vols < 1e-8
    return nodes, elements


def test_backend_is_reported():
    assert kernels.BACKEND in ("compiled", "fallback")


@pytest.mark.skipif(_speedups is None, reason="compiled backend not built")
@pytest.mark.parametrize("dim", [2, 3])
def test_simplex_geometry_backends_agree(dim):
    nodes, elements = _random_mesh_arrays(dim)
    v1, g1 = _fallback.simplex_geometry(nodes, elements)
    v2, g2 = _speedups.simplex_geometry(nodes, elements)
    assert np.allclose(v1, v2, rtol=1e-13, atol=1e-15)
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-14)


@pytest.mark.skipif(_speedups is None, reason="compiled backend not built")
@pytest.mark.parametrize("dim", [2, 3])
def test_local_matrices_backends_agree(dim):
    nodes, elements = _random_mesh_arrays(dim)
    vols, grads = _fallback.simplex_geometry(nodes, elements)
    k1 = _fallback.local_stiffness(vols, grads)
    k2 = _speedups.local_stiffness(vols, grads)
    assert np.allclose(k1, k2, rtol=1e-12, atol=1e-15)

    nq = 4
    basis = RNG.random((nq, dim + 1))
    qw = RNG.random(nq)
    wv = RNG.random((len(vols), nq))
    m1 = _fallback.local_weighted_mass(vols, basis, qw, wv)
    m2 = _speedups.local_weighted_mass(vols, basis, qw, wv)
    assert np.allclose(m1, m2, rtol=1e-12, atol=1e-15)


@pytest.mark.skipif(_speedups is None, reason="compiled backend not built")
def test_distance_kernels_backends_agree():
    pts = RNG.random((200, 3))
    a = RNG.random((15, 3))
    b = RNG.random((15, 3))
    d1, n1, i1 = _fallback.nearest_on_segments(pts, a, b)
    d2, n2, i2 = _speedups.nearest_on_segments(pts, a, b)
    assert np.allclose(d1, d2, rtol=1e-13, atol=1e-15)
    assert np.allclose(n1, n2, rtol=1e-13, atol=1e-15)
    assert np.array_equal(i1, i2)

    t = RNG.random((10, 3))
    d1, i1 = _fallback.nearest_points(pts, t)
    d2, i2 = _speedups.nearest_points(pts, t)
    assert np.allclose(d1, d2, rtol=1e-13, atol=1e-15)
    assert np.array_equal(i1, i2)


@pytest.mark.skipif(_speedups is None, reason="compiled backend not built")
def test_compensated_sums_backends_agree():
    x = RNG.random(5000) * 10.0 ** RNG.integers(-8, 8, 5000)
    y = RNG.random(5000)
    assert _fallback.neumaier_sum(x) == pytest.approx(
        _speedups.neumaier_sum(x), rel=1e-15)
    assert _fallback.neumaier_dot(x, y) == pytest.approx(
        _speedups.neumaier_dot(x, y), rel=1e-15)


def test_neumaier_sum_cancellation():
    x = np.array([1e16, 1.0, -1e16])
    assert kernels.neumaier_sum(x) == 1.0
    x = np.array([1.0, 1e100, 1.0, -1e100])
    assert kernels.neumaier_sum(x) == 2.0


# finite floats small enough that no partial sum of 100 terms overflows
TERMS = st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=50)


@settings(deadline=None)
@given(TERMS, TERMS, st.randoms(use_true_random=False))
def test_fallback_neumaier_sum_is_fsum(values, cancelled, rnd):
    """The fallback sum is correctly rounded, with cancelling terms mixed in."""
    terms = values + cancelled + [-v for v in cancelled]
    rnd.shuffle(terms)
    assert _fallback.neumaier_sum(np.array(terms)) == math.fsum(terms)


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


# Small grid coordinates make exact distance ties between targets common.
GRID = st.integers(min_value=-4, max_value=4).map(lambda i: i / 4.0)


@st.composite
def _blocked_case(draw):
    block = draw(st.integers(min_value=1, max_value=8))
    # Point counts below, at and across block boundaries.
    n_pts = draw(st.sampled_from([block - 1, block, block + 1, 2 * block,
                                  3 * block + 1]) | st.integers(0, 40))
    dim = draw(st.sampled_from([2, 3]))
    coords = st.lists(GRID, min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(coords, min_size=n_pts, max_size=n_pts)),
                   dtype=float).reshape(-1, dim)
    n_t = draw(st.integers(min_value=1, max_value=6))
    a = np.array(draw(st.lists(coords, min_size=n_t, max_size=n_t)))
    b = np.array(draw(st.lists(coords, min_size=n_t, max_size=n_t)))
    return block, pts, a, b


@settings(deadline=None, max_examples=200)
@given(_blocked_case())
def test_blocked_distance_kernels_equal_one_block(case):
    """Blocking the query points changes no bit of the distance kernels,
    and ties still resolve to the lowest index."""
    block, pts, a, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fallback, "BLOCK", block)
        blocked_seg = _fallback.nearest_on_segments(pts, a, b)
        blocked_pts = _fallback.nearest_points(pts, a)
    one_seg = _fallback._nearest_on_segments(pts, a, b)
    one_pts = _fallback._nearest_points(pts, a)
    for got, want in zip(blocked_seg + blocked_pts, one_seg + one_pts):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # lowest index among the targets at the minimal distance
    d2 = ((pts[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    if len(pts):
        lowest = np.argmax(d2 == d2.min(axis=1, keepdims=True), axis=1)
        assert np.array_equal(blocked_pts[1], lowest)


def test_blocked_kernels_bound_temporaries(monkeypatch):
    """One block's temporaries are what a call allocates at most."""
    calls = []
    inner = _fallback._nearest_on_segments
    monkeypatch.setattr(_fallback, "BLOCK", 16)
    monkeypatch.setattr(_fallback, "_nearest_on_segments",
                        lambda p, a, b: calls.append(len(p)) or inner(p, a, b))
    pts = RNG.random((50, 3))
    _fallback.nearest_on_segments(pts, RNG.random((4, 3)), RNG.random((4, 3)))
    assert calls == [16, 16, 16, 2]
