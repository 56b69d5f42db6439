"""Exception types shared across the library.

Everything derives from FqinvError so callers can catch broadly; the
finer classes mirror the distinct contract violations the public
functions can report.
"""


class FqinvError(Exception):
    pass


# field construction / arithmetic

class FieldError(FqinvError, ValueError):
    pass


class NotPrime(FieldError):
    pass


class EvenCharacteristic(FieldError):
    pass


class MissingModulus(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class FieldTooLarge(FieldError):
    pass


class InvalidFieldSpec(FieldError):
    """Extension degree outside 1..3, or a modulus of the wrong shape."""


class NotARawValue(FieldError):
    """A value passed as a raw field value is not an int in 0..q-1 or an
    element of the field."""


class NotAFieldValue(FqinvError, TypeError):
    """A value of a type that cannot stand for a field value: neither an
    int nor a FieldElement."""


class NotAnInteger(FqinvError, TypeError):
    """An exponent, a power or an exterior index that is not an integer."""


class DivisionByZero(FqinvError, ZeroDivisionError):
    pass


class FieldMismatch(FqinvError, ValueError):
    """Operands belong to different fields."""


# algebra layer

class ArityMismatch(FqinvError, ValueError):
    """Operands live in algebras with different variable counts, or a
    tuple, matrix row or coordinate list has the wrong length."""


class IndexOutOfRange(FqinvError, IndexError):
    pass


class NotDivisible(FqinvError, ArithmeticError):
    """Exact polynomial division failed."""


class DegreeMismatch(FqinvError, ValueError):
    """An argument is not homogeneous in the sense the operation needs."""


class ArityTooSmall(FqinvError, ValueError):
    """A variable count is below what the construction needs, or a
    generator list is empty."""


class NegativeDegree(FqinvError, ValueError):
    """A degree, an exponent or a degree bound is negative."""


class BadIndexTuple(FqinvError, ValueError):
    """An index tuple is not strictly increasing, an exterior word has an
    index outside 1..n, a transvection's two indices are equal, or a
    variable mapping is not injective on the exterior indices in use."""


class ProductTooLarge(FqinvError, ValueError):
    """A brute-force product form was requested beyond its size guard."""


class UnknownMethod(FqinvError, ValueError):
    """A construction was asked for a method it does not have."""


class SerializationError(FqinvError, ValueError):
    pass


# groups

class SingularMatrix(FqinvError, ArithmeticError):
    pass


class CapExceeded(FqinvError, RuntimeError):
    """Breadth-first closure grew past the requested cap."""


class InvalidCap(FqinvError, ValueError):
    """A breadth-first closure was asked for with a cap below 1."""


class UnknownCase(FqinvError, ValueError):
    """A case name that the case table, or theorem_basis, does not know."""


class CaseFieldMismatch(FqinvError, ValueError):
    """A named case was given a field or size it does not live over, or a
    parameterized case was given no field or no size."""


# verification engine

class FeasibilityCapExceeded(FqinvError, RuntimeError):
    """A degree component is too large for the brute-force solver."""


class InvalidModuleDescription(FqinvError, ValueError):
    """Free module degrees out of shape: a ring generator degree that is
    not positive, an empty basis, a negative basis degree, or basis degree
    0 more than once."""


class NotInvariant(FqinvError, RuntimeError):
    """A computed fixed vector failed the invariance check."""
