"""Exception types shared across the package.

Every error raised by the library proper derives from EaqecError, so callers
(and the command line driver) can distinguish domain failures from bugs.
"""


class EaqecError(Exception):
    """Base class for all library errors."""


# --- field construction and arithmetic ---

class NotPrime(EaqecError):
    pass


class NotIrreducible(EaqecError):
    pass


class FieldTooLarge(EaqecError):
    pass


class NoBuiltinModulus(EaqecError):
    pass


class FieldMismatch(EaqecError):
    pass


class DivisionByZero(EaqecError, ZeroDivisionError):
    pass


# --- matrices ---

class DimensionMismatch(EaqecError):
    pass


# --- classical codes ---

class DistanceUnknown(EaqecError):
    pass


# The largest search budget min_distance accepts, and its default.  Kept
# here, beside BudgetInvalid, so the CLI reads it without loading codes.
DEFAULT_BUDGET = 1 << 24


class BudgetInvalid(EaqecError):
    pass


# --- quantum code constructions ---

class LengthMismatch(EaqecError):
    pass


class EntanglementFormulaMismatch(EaqecError):
    """The two independent entanglement computations disagreed (internal bug)."""


class AlphabetMismatch(EaqecError):
    pass


class ProvenanceMismatch(EaqecError):
    pass


class TooManyBlocks(EaqecError):
    pass


# --- bounds and ensemble analysis ---

class DomainError(EaqecError):
    pass


class NotSquare(EaqecError):
    pass


class NoRoot(EaqecError):
    pass


class TooLarge(EaqecError):
    pass


class BadFamilyParams(EaqecError):
    pass


# --- file formats ---

class ParseError(EaqecError):
    pass
