"""Exception types shared across the package."""


class G2FlowError(Exception):
    """Base class for errors raised by this package."""


class DegreeError(G2FlowError):
    """Form degrees are incompatible with the requested operation."""


class MetricError(G2FlowError):
    """A metric fails a symmetry or definiteness requirement."""


class PositivityError(G2FlowError):
    """A 3-form (or the state derived from it) is not a positive G2 form."""


class UnimodularityError(G2FlowError):
    """The operation is only defined on unimodular Lie algebras."""


class RecoveryError(G2FlowError):
    """Recovery of the 3-form from a 4-form failed (``residual`` when known)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(G2FlowError):
    """Invalid experiment or flow configuration.

    ``violations`` holds the complete list of messages, one per offending
    field, so a caller can report everything at once.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
