"""Exception types shared across the package, and the input rules that
raise them for every document and parameter.

The CLI maps these onto exit codes: ValidationError -> 1, CapError -> 2,
VerificationFailure -> 3.
"""

import json
import numbers


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


def decode_document(document, error: type[ValidationError], name: str):
    """A document given as JSON text, decoded; any other value as it is."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise error(f"{name} document is not valid JSON: {exc}") from None


def real_number(value, what: str, error: type[ValidationError] = ValidationError) -> float:
    """A real-number field or parameter; a bool or a string is refused, never
    parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    return float(value)
