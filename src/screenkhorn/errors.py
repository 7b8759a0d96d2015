"""Exception types shared across the package.

The CLI maps these to exit codes: InputError and its subclasses are caller
mistakes (exit 1), everything else derived from ScreenkhornError signals a
numeric or solver failure (exit 2). Certificate violations get their own type
because the benchmark treats them as a distinct outcome (exit 3).
"""


class ScreenkhornError(Exception):
    """Base class for every error raised by this package."""


class InputError(ScreenkhornError, ValueError):
    """User-supplied data is invalid (bad value, bad file, bad combination)."""


class ParameterError(InputError):
    """A scalar parameter is outside its documented range."""


class ShapeError(InputError):
    """Array dimensions do not line up."""


class DegenerateCostError(InputError):
    """Cost construction cannot proceed, e.g. all pairwise distances are zero."""


class NumericRangeError(ScreenkhornError, FloatingPointError):
    """A computation left the representable floating point range."""


class DegenerateScreeningError(ScreenkhornError):
    """Screening produced an empty active set or hit a zero ratio."""


class InfeasibleBoundsError(ScreenkhornError):
    """Computed box bounds came out with lower above upper."""


class CertificateViolationError(ScreenkhornError):
    """A theory certificate failed on a converged run."""
