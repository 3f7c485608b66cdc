"""Exception types shared across the package."""


class FermatSyzError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(FermatSyzError):
    """The requested characteristic is not a prime (or out of range)."""


class ExponentOverflowError(FermatSyzError, OverflowError):
    """An exponent or prime power left the checked 64-bit range."""


class SmoothnessError(FermatSyzError):
    """p divides d: the Fermat curve X^d + Y^d + Z^d = 0 is not smooth."""


class InapplicableError(FermatSyzError):
    """The construction's arithmetic preconditions fail for these inputs."""


class InternalCheckError(FermatSyzError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class BlockTooLargeError(FermatSyzError):
    """A computation would pass one of the package's size limits, and is
    refused before it starts: a residue block's dense band, or its product
    with the binomial row, above ``bundle.BAND_LIMIT_BYTES``, or a normal
    form of more than ``poly.NORMAL_FORM_BUDGET`` steps."""
