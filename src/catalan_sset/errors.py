"""Exception types shared across the package."""


class CatalanSetError(Exception):
    """Base class for every error raised by this package."""


class NonMonotoneError(CatalanSetError, ValueError):
    """A list of values that must be weakly increasing decreases somewhere."""


class OutOfRangeError(CatalanSetError, ValueError):
    """A value lies outside the ordinal it must map into."""


class DomainMismatchError(CatalanSetError, ValueError):
    """Maps were composed, or a map was applied, along incompatible endpoints."""


class IndexOutOfRangeError(CatalanSetError, ValueError):
    """A face or degeneracy index outside the legal range was requested."""


class LevelOutOfRangeError(CatalanSetError, ValueError):
    """A simplex level outside the truncation range was requested."""


class LevelTooLargeError(CatalanSetError, ValueError):
    """A level beyond the configured enumeration ceiling was requested."""


class NotInterpolativeError(CatalanSetError, ValueError):
    """A relation fails reflexivity, symmetry, or interpolation."""


class NotAnIdealError(CatalanSetError, ValueError):
    """A pair set violates the ideal closure law."""


class MissingIdentityIdealError(CatalanSetError, ValueError):
    """A square ideal does not contain the identity ideal."""


class ShapeMismatchError(CatalanSetError, ValueError):
    """Relations or ideals were combined along incompatible shapes."""


class NotCommutativeError(CatalanSetError, ValueError):
    """A construction that needs a commutative tensor received one that is not."""


class InvalidInputError(CatalanSetError, ValueError):
    """An input table or file fails validation."""
