"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1, CapError -> 2,
VerificationFailure -> 3.
"""


class ContagionError(Exception):
    """Base class for all package errors."""


class ValidationError(ContagionError):
    """Malformed input: config, graph document, profile, or parameter."""


class GraphValidationError(ValidationError):
    pass


class DynamicsDefinitionError(ValidationError):
    """A switching/selection/adoption function violates its axioms."""


class ScheduleError(ValidationError):
    pass


class CouplingHypothesisError(ValidationError):
    """Dynamics fail the structural hypotheses a coupled run requires."""


class CapError(ContagionError):
    """A configured resource cap would be exceeded."""


class StateSpaceCapError(CapError):
    """An exact back end would outgrow its state space: enumeration's
    outcome-tree nodes, or the cells of a layered-DP layer."""


class AllocationSpaceCapError(CapError):
    """An allocation space is too large to enumerate exhaustively."""


class VerificationFailure(ContagionError):
    """A gadget or coupled-run verification did not pass."""
