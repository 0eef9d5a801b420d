"""Fixed-size micro-run of the numeric kernels (the ``kernels`` layer).

Times every kernel of ``klab.kernels`` (the active backend) on
mesh-sized inputs of a fixed size and reports the median time with the
bytes each call moves, computed from its input and output array sizes
(cache traffic is not measured). It also counts how many compensated
reductions differ from ``math.fsum`` on the same input.
"""

import math
import statistics
import time

import numpy as np

from klab import femcore, geometry, kernels
from klab import mesh as meshmod

REPEATS = 5
H2, H3 = 0.01, 0.0625          # 2D and 3D mesh spacings for element kernels
N_REDUCE, N_POINTS = 1_000_000, 200_000


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


def cases():
    """(label, kernel name, args), one per kernel and mesh dimension."""
    square = geometry.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    lshape = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
    box = geometry.build_polyhedron_3d("box")
    out = []
    for m, tag in ((meshmod.build_mesh(square, H2), "2d"),
                   (meshmod.build_mesh(box, H3), "3d")):
        out.append((f"simplex_geometry_{tag}", "simplex_geometry",
                    (m.nodes, m.elements)))
        vols, grads = kernels.simplex_geometry(m.nodes, m.elements)
        out.append((f"local_stiffness_{tag}", "local_stiffness",
                    (vols, grads)))
        rule = femcore.simplex_rule(m.dimension, 2)
        wvals = np.abs(np.sin(
            femcore.quadrature_points(m, rule)[..., 0])) + 0.5
        out.append((f"local_weighted_mass_{tag}", "local_weighted_mass",
                    (vols, rule.bary, rule.weights, wvals)))

    x = np.linspace(0.0, 1.0, N_REDUCE)
    out.append(("neumaier_sum", "neumaier_sum", (x,)))
    out.append(("neumaier_dot", "neumaier_dot", (x, x[::-1].copy())))

    rng = np.random.default_rng(0)
    pts3 = rng.random((N_POINTS, 3))
    segs = box.singular_segments()
    out.append(("nearest_on_segments", "nearest_on_segments",
                (pts3, np.ascontiguousarray(segs[:, 0]),
                 np.ascontiguousarray(segs[:, 1]))))
    pts2 = rng.random((N_POINTS, 2))
    corners = np.asarray(lshape.vertices, dtype=float)
    out.append(("nearest_points", "nearest_points", (pts2, corners)))
    return out


def reduction_inputs(seed):
    """Sum and dot inputs, from benign to heavily cancelling."""
    rng = np.random.default_rng(seed)
    n = 100_000
    wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    cancel = rng.permutation(np.concatenate(
        [wide, -wide, rng.standard_normal(1000)]))
    tiny = np.array([1e16, 1.0, -1e16])
    sums = [tiny, wide, cancel, np.linspace(0.0, 1.0, n)]
    dots = [(tiny, np.ones(3)), (wide, rng.standard_normal(n)),
            (cancel, np.ones(len(cancel))),
            (np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n))]
    return sums, dots


def reduction_mismatch(seed):
    """How many neumaier_sum / neumaier_dot results differ from fsum."""
    sums, dots = reduction_inputs(seed)
    count = 0
    if hasattr(kernels, "neumaier_sum"):
        count += sum(kernels.neumaier_sum(x) != math.fsum(x) for x in sums)
    if hasattr(kernels, "neumaier_dot"):
        count += sum(kernels.neumaier_dot(x, y) != math.fsum(x * y)
                     for x, y in dots)
    return int(count)


def run(seed):
    """Metrics of the kernel layer, keyed by per-layer metric name."""
    metrics = {"kernels.reduction_mismatch":
               (reduction_mismatch(seed), "count")}
    absent = []
    for label, name, args in cases():
        fn = getattr(kernels, name, None)
        if fn is None:
            absent.append(f"klab.kernels:{name}")
            continue
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = fn(*args)
            times.append(time.perf_counter() - t0)
        moved = _nbytes(args) + _nbytes(result)
        metrics[f"kernels.micro.{label}_ms"] = (
            1e3 * statistics.median(times), "ms")
        metrics[f"kernels.micro.{label}_bytes_computed"] = (moved, "B")
    return metrics, absent
