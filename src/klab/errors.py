"""Exception taxonomy.

Two broad classes matter for the CLI exit-code contract:

* ValidationError   -> exit code 2 (bad input: geometry, mesh files,
                       inadmissible parameters)
* NumericalError    -> exit code 3 (solver breakdowns: divergence,
                       indefiniteness, non-convergence)
"""


class KlabError(Exception):
    """Base class for all package errors."""


class ValidationError(KlabError):
    """Invalid input data or inadmissible parameters."""


class GeometryError(ValidationError):
    """Ill-formed polygon/polyhedron description."""


class MeshFormatError(ValidationError):
    """Malformed mesh file or inconsistent mesh data."""


class MeshSizeError(ValidationError):
    """Requested resolution is unusable: the mesh would exceed a size
    cap, or it is too coarse to have interior nodes."""


class UnsupportedDegreeError(ValidationError):
    """Quadrature degree outside the supported range."""


class InadmissibleIndexError(ValidationError):
    """Norm term diverged: the (order, weight index) pair is not usable."""


class NonpositiveWeightError(ValidationError):
    """A weight function evaluated nonpositive at a quadrature point."""


class DegenerateLinkError(ValidationError):
    """Vertex link is empty, disconnected or has (numerically) zero area."""


class DecompositionError(ValidationError):
    """Inadmissible near-singular region: a wedge opening outside (0, 2 pi],
    or a vertex ball without its cap constant."""


class ExpressionError(ValidationError):
    """Problem-file expression outside the whitelist, or malformed."""


class SpecError(ValidationError):
    """Domain or problem file violates its schema; message names the field."""


class NumericalError(KlabError):
    """Numerical failure in an otherwise well-posed computation."""


class ConvergenceError(NumericalError):
    """Iterative solver exhausted its budget.

    Carries the relative residual reached so callers can report it.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IndefiniteOperatorError(NumericalError):
    """Conjugate gradients detected a direction of nonpositive curvature."""
