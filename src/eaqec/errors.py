"""Exception types shared across the package, and its one integer rule.

Every error raised by the library proper derives from EaqecError, so callers
(and the command line driver) can distinguish domain failures from bugs.

The integer arguments that describe a field, a code, a bound or an ensemble
go through integer(): an int or a numpy integer is accepted and returned as
a plain int, and a bool (True would pass as 1), a float, a str or a numpy
bool is refused with the exception type the caller names.
"""

from operator import index


def integer(value, name: str, error=ValueError, low=None) -> int:
    """value as a plain int; error(...) if it is a bool, anything
    operator.index refuses, or (when low is given) below low."""
    try:
        n = None if isinstance(value, bool) else index(value)
    except TypeError:
        n = None
    if n is not None and (low is None or n >= low):
        return n
    at_least = "" if low is None else f" >= {low}"
    raise error(f"{name} must be an integer{at_least}, got {value!r}")


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
