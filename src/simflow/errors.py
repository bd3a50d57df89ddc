"""Exception hierarchy shared across the package.

Domain errors (bad inputs, infeasible requests) derive from DomainError;
refusals to start work whose cost exceeds a configured cap derive from
CapExceededError; a broken internal invariant raises InternalError. The
CLI maps these to exit codes 2, 3 and 4 respectively, and a malformed
environment setting (SettingError) to exit code 1.
"""


class SimflowError(Exception):
    pass


class DomainError(SimflowError):
    pass


class NotPureError(DomainError):
    """Facets of differing cardinality."""


class EmptyInputError(DomainError):
    """No facets, or an empty facet."""


class BadParamsError(DomainError):
    pass


class IndexOutOfRangeError(DomainError):
    pass


class BadModulusError(DomainError):
    """Modulus below 1."""


class NotABaseError(DomainError):
    """Facet set is not a maximal forest."""


class FacetInBaseError(DomainError):
    pass


class InfeasibleError(DomainError):
    """No cover with the requested number of parts exists."""


class HasBridgeError(DomainError):
    """Operation requires a bridgeless complex."""


class NotAFlowError(DomainError):
    """Vector fails the kernel condition."""


class LiftFailedError(DomainError):
    """No integer flow is zero off a mod-2 layer and odd on all of it."""


class ParseError(DomainError):
    """Malformed complex document."""


class InternalError(SimflowError):
    """An invariant the program relies on does not hold: a bug, not bad
    input."""


class RelationMismatchError(InternalError):
    """Two independently computed values that must agree do not."""


class SettingError(SimflowError):
    """An environment variable holds a value the program cannot use."""


class CapExceededError(SimflowError):
    """Work refused because it exceeds a configured cap.

    `needed` carries the offending size (facet count, or the exact
    enumeration count) so callers can report it.
    """

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed
