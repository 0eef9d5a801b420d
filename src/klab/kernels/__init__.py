"""Numeric kernel backend selection.

Imports the compiled extension when it is available and falls back to
the numpy implementations otherwise. Setting KLAB_PURE_PYTHON=1 forces
the fallback (useful for the backend benchmark and for debugging).
Both backends compute the same per-element kernels and distances.
Their reductions differ: ``neumaier_sum`` is correctly rounded in the
fallback and Neumaier-compensated in the compiled backend, while
``neumaier_dot`` is compensated only in the compiled backend and is
plain ``np.dot`` in the fallback (it is the Jacobi-CG inner product,
where an exact sum would dominate the solve time). The fallback's
distance kernels (``nearest_on_segments``, ``nearest_points``) work on
blocks of ``_fallback.BLOCK`` query points, so their (P, S, d)
temporaries stay at a few MB however many points are queried; the
compiled backend loops over points and needs no temporaries. ``BACKEND``
records which one is active, ``"compiled"`` or ``"fallback"``.
"""

import os

from . import _fallback

if os.environ.get("KLAB_PURE_PYTHON", "") not in ("", "0"):
    _impl = _fallback
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _fallback

BACKEND: str = _impl.BACKEND_NAME

simplex_geometry = _impl.simplex_geometry
local_stiffness = _impl.local_stiffness
local_weighted_mass = _impl.local_weighted_mass
neumaier_sum = _impl.neumaier_sum
neumaier_dot = _impl.neumaier_dot
nearest_on_segments = _impl.nearest_on_segments
nearest_points = _impl.nearest_points

__all__ = [
    "BACKEND",
    "simplex_geometry",
    "local_stiffness",
    "local_weighted_mass",
    "neumaier_sum",
    "neumaier_dot",
    "nearest_on_segments",
    "nearest_points",
]
