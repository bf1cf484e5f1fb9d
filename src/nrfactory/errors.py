"""Exception types shared across the toolkit."""


class NrFactoryError(Exception):
    """Base class for all toolkit errors."""


class DomainError(NrFactoryError):
    """An input is outside the mathematical domain of the operation."""


class OutOfRange(NrFactoryError):
    """A physical parameter is outside the validity range of the model."""


class NoUsableSlot(NrFactoryError):
    """The TDD pattern has no usable transmission occasion in the requested direction."""


class NegativeComponent(NrFactoryError):
    """A delay component that must be non-negative is negative."""


class NumerologyMismatch(NrFactoryError):
    """Two patterns that must share slot duration do not."""


class DegenerateGeometry(NrFactoryError):
    """Geometry does not admit the requested computation (e.g. tx == rx)."""


class NoGnb(NrFactoryError):
    """A scenario without base stations cannot produce link metrics."""


class SolverFailure(NrFactoryError):
    """Numerical breakdown in an optimization routine (distinct from infeasibility)."""


class ParseError(NrFactoryError):
    """A configuration file could not be parsed."""


class ValidationError(NrFactoryError):
    """A configuration value is present but invalid."""


class UnknownKey(ValidationError):
    """A configuration section contains a key the schema does not define."""
