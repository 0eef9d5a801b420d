"""Shared numeric tolerances and limits."""

# Geometric predicate tolerance. Every exact-geometry comparison
# (angle sums, planarity, point-on-face tests) goes through this one
# constant so the whole geometry layer can be tightened in one place.
GEOM_TOL = 1e-12

# A mesh node is flagged as sitting on the singular set when its
# distance to the set is below this.
SINGULAR_NODE_TOL = 1e-10

# Any squared norm term above this raises InadmissibleIndexError: the
# requested (order, weight index) pair produced a divergent integrand.
OVERFLOW_GUARD = 1e30

# Refusal threshold for mesh generation ("h too small").
DEFAULT_NODE_CAP = 2_000_000

# Shape-regularity floor, radians. Built-in generators (including the
# graded families down to kappa = 0.2) must keep every interior angle
# (2D) and every tetrahedron dihedral angle (3D) above this.
MIN_ANGLE_FLOOR = 0.02

# Schema tag written into every JSON/CSV report produced by the CLI.
SCHEMA_VERSION = 1

