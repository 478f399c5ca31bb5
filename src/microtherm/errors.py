"""Exception types shared across the package.

Everything derives from MicrothermError so callers can catch the whole
family at once; most subclasses also derive from the closest builtin
(ValueError/RuntimeError) so generic handling keeps working.
"""


class MicrothermError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(MicrothermError, ValueError):
    """A field or array entry is NaN or infinite."""


class InvalidMaterial(MicrothermError, ValueError):
    """Material coefficients violate the model hypotheses."""


class InvalidGrid(MicrothermError, ValueError):
    """Grid parameters out of range."""


class DimensionMismatch(MicrothermError, ValueError):
    """Vector or state dimensions do not agree."""


class SolveFailure(MicrothermError, RuntimeError):
    """A linear solve missed its residual tolerance (bug or broken operator)."""


class SizeLimit(MicrothermError, ValueError):
    """Problem too large for a dense desk-scale computation."""


class EigenFailure(MicrothermError, RuntimeError):
    """Dense eigenvalue computation did not converge, or the generator
    lacks the mirror symmetry its split into two solves relies on."""


class IndefiniteForm(MicrothermError, ValueError):
    """The (eps, lam) combination fails the positive-definiteness check."""


class RootFailure(MicrothermError, RuntimeError):
    """A dispersion wavenumber whose linearization or frequencies leave
    the float range (k^2 overflows)."""


class ParseError(MicrothermError, ValueError):
    """Scenario config text could not be parsed."""


class ValidationError(MicrothermError, ValueError):
    """Scenario config parsed but violates a model constraint."""
