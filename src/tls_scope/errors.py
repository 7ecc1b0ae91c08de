"""Exception types shared across the package.

Every refused setting, in whichever layer, is a :class:`ConfigError` (exit
2 on the command line), which is also a ``ValueError``.  The package's own
consistency checks raise a plain ``ValueError``: a bug, shown as a traceback.
"""


class TlsScopeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TlsScopeError, ValueError):
    """A caller-supplied setting is out of range or malformed."""


class NoCrossingInRange(TlsScopeError):
    """The two transitions never approach each other within the sweep."""


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
