"""Exception types shared across the package."""


class TlsScopeError(Exception):
    """Base class for all package-specific errors."""


class NoCrossingInRange(TlsScopeError):
    """The two transitions never approach each other within the sweep."""


class InvalidBand(TlsScopeError):
    """Requested frequency band is empty or inverted."""


class BiasLimitExceeded(TlsScopeError):
    """Cold-end sample bias would exceed the configured safety limit."""


class DegenerateTrace(TlsScopeError):
    """Trace carries no usable bias dependence; hyperbola unidentifiable."""


class NoConvergence(TlsScopeError):
    """Iterative fit exhausted its iteration budget without converging."""


class AmbiguousSigns(TlsScopeError):
    """Distinct sign branches of the coupled fit are statistically tied."""


class NoTracesFound(TlsScopeError):
    """A scan that must show resonances yields no resonance trace."""


class SchemaError(TlsScopeError):
    """File schema missing, unknown, or from an unsupported version."""
