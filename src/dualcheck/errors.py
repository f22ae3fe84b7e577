"""Exception types shared across the package."""


class DualcheckError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(DualcheckError):
    """Input violates a structural precondition (dimensions, grammar, ...)."""


class DimensionMismatchError(MalformedInputError):
    pass


class ParseError(MalformedInputError):
    """A problem file does not parse or fails validation."""


class EmptyPolyhedronError(DualcheckError):
    """Operation requires a nonempty polyhedron."""


class MembershipError(DualcheckError):
    """A point was required to belong to a set but does not."""


class ConeMembershipError(DualcheckError):
    """A multiplier was required to lie in the dual cone but does not."""


class RegimeError(DualcheckError):
    """Numeric operation applied to symbolic data or vice versa."""


class ImproperFunctionError(DualcheckError):
    """Operation requires a proper function."""


class UndecidableValueError(DualcheckError):
    """No rule or declared value decides the requested quantity."""


class DegenerateSeparationError(DualcheckError):
    """Only separators with vanishing last component exist."""


class QriMembershipError(DualcheckError):
    """No nonzero separator exists: the origin sits in the quasi-relative
    interior of the separation set."""


class SolverLimitError(DualcheckError):
    """Pivot budget exhausted (see DUALCHECK_MAX_PIVOTS)."""


class ApplicabilityError(DualcheckError):
    """Condition not defined for the requested problem family."""


class InconsistencyError(DualcheckError):
    """Two derivation chains produced contradictory statuses."""


class NotFoundError(DualcheckError):
    """Unknown corpus entry or resource id."""
