"""Exception hierarchy shared by all modules."""


class SpectraShapeError(Exception):
    """Base class for all engine errors."""


class InvalidGeometryError(SpectraShapeError):
    """Mesh or geometric input is malformed (negative volume, bad dims, ...)."""


class MeshFormatError(SpectraShapeError):
    """Text mesh file could not be parsed; message carries the line number."""


class InadmissibleParameterError(SpectraShapeError):
    """At the requested parameter, det J_Phi is not finite and > 0, or a
    coefficient is not positive-definite, at an evaluation point."""


class DegenerateProblemError(SpectraShapeError):
    """Constraint elimination left no free degrees of freedom."""


class PencilError(SpectraShapeError):
    """Pencil violates its contract (e.g. mass matrix not positive-definite)."""


class NearSingularError(SpectraShapeError):
    """Resolvent shift too close to an eigenvalue of the pencil."""


class ContourError(SpectraShapeError):
    """An eigenvalue lies on (or too close to) the integration contour."""


class NonFiniteReportError(SpectraShapeError):
    """A report would hold a number that is not finite, the mark of an overflow."""


class ContractViolationError(SpectraShapeError):
    """Caller passed data violating a documented precondition."""


class MultiplicityError(SpectraShapeError):
    """Operation requires a simple eigenvalue but the cluster is larger."""


class ConfigError(SpectraShapeError):
    """Run configuration is invalid."""
