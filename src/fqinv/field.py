"""Arithmetic in F_q for q = p^e, p an odd prime, e <= 3, q <= 125.

A field value is stored as a single int in range(q) encoding the
coordinates of the element in the power basis 1, t, t^2 of the chosen
monic modulus, little-endian in base p:

    raw = c_0 + c_1*p + c_2*p^2   <->   c_0 + c_1*t + c_2*t^2

A prime field is the case e = 1, with no t.  Each FieldSpec builds one
set of tables, all from the regular representation (Lidl & Niederreiter,
Finite Fields, ch. 2): digit_table[a, i] holds the base-p digits of
t^i * a, so times a is the e x e matrix digit_table[a] over F_p acting on
digit rows.  A few numpy operations on it give the sum, negation and
product tables, and the exponent and logarithm tables of the least raw of
order q - 1, which give inverses and powers.  So every raw operation
is one table lookup, for prime and extension fields alike, and no other
module builds a field table: they read these, which are tuples or
read-only arrays.  The q x q arrays sum_array and product_array hold
a + b and a * b at [a, b], so a row operation on raw arrays is a gather
from each (the solver's elimination in fixedpoint), and row p - 1 of
product_array negates.  Arrays of F_q values add up through the same digit
rows: FieldSpec.sum_duplicates sums the raws of equal int64 keys digit by
digit, mod p, and is the one bulk F_q sum that the polynomial kernels
(algebra) and the solver (fixedpoint) share.  All hot loops in the library
work on raw ints through the FieldSpec methods; FieldElement is a thin
operator-overloading wrapper for convenience and for the public API.

Keeping e <= 3 means irreducibility of the modulus is equivalent to
having no root in F_p, which make_field checks exhaustively.
"""

from __future__ import annotations

from operator import index

import numpy as np

from .errors import (
    ArityMismatch,
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    FieldTooLarge,
    InvalidFieldSpec,
    MissingModulus,
    NotAnInteger,
    NotPrime,
    ReducibleModulus,
)

_MAX_Q = 125
_MAX_E = 3

_field_cache: dict[tuple, "FieldSpec"] = {}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def make_field(p: int, e: int = 1, modulus=None) -> "FieldSpec":
    """Construct (or fetch the cached) field F_{p^e}.

    modulus: coefficient list [c_0, ..., c_e] of a monic irreducible
    polynomial over F_p, required exactly when e > 1.  Its entries are
    read as integers, and so are p and e: numpy integers pass, a float, a
    string or a bool raises NotAnInteger.
    """
    try:
        if isinstance(p, bool) or isinstance(e, bool):
            raise TypeError
        p, e = index(p), index(e)
    except TypeError:
        raise NotAnInteger(f"p = {p!r} and e = {e!r} must be integers") from None
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is unsupported")
    if e < 1 or e > _MAX_E:
        raise InvalidFieldSpec(f"e must be between 1 and {_MAX_E}")
    if p ** e > _MAX_Q:
        raise FieldTooLarge(f"q = {p}^{e} exceeds the cap {_MAX_Q}")
    if e == 1:
        if modulus is not None:
            raise InvalidFieldSpec("modulus is only meaningful for e > 1")
        key = (p, 1, None)
    else:
        if modulus is None:
            raise MissingModulus(f"degree-{e} extension needs a modulus")
        mod = tuple(modulus)
        try:
            mod = tuple(index(c) % p for c in mod)
        except TypeError:
            raise NotAnInteger(f"modulus {mod} holds a non-integer") from None
        if len(mod) != e + 1:
            raise InvalidFieldSpec(f"modulus must have degree {e}")
        if mod[-1] != 1:
            raise InvalidFieldSpec("modulus must be monic")
        for a in range(p):
            if sum(c * pow(a, i, p) for i, c in enumerate(mod)) % p == 0:
                raise ReducibleModulus(f"modulus has root {a} in F_{p}")
        key = (p, e, mod)
    spec = _field_cache.get(key)
    if spec is None:
        spec = FieldSpec(p, e, key[2])
        _field_cache[key] = spec
    return spec


class FieldSpec:
    """Field description plus raw-int arithmetic.  Immutable once built."""

    __slots__ = ("p", "e", "q", "modulus", "digit_table", "product_array",
                 "sum_array", "mul_table", "add_table", "exp_array",
                 "log_array", "_neg", "_exp", "_log", "_coeffs")

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.modulus = modulus  # tuple of e+1 ints, or None for e = 1
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        # regular[a, i]: the digits of t^i * a; times t is a shift, less
        # the top digit times the modulus
        regular = np.empty((q, e, e), dtype=np.int64)
        regular[:, 0] = digits
        for i in range(1, e):
            prev = regular[:, i - 1]
            shifted = np.zeros_like(prev)
            shifted[:, 1:] = prev[:, :-1]
            regular[:, i] = (shifted - prev[:, -1:] * modulus[:e]) % p
        products = (digits @ regular) % p @ place
        sums = (digits[:, None] + digits) % p @ place
        # powers[k, a] = a^k, k < q - 1: the least raw a > 0 whose powers
        # hit 1 only at k = 0 has order q - 1
        powers = np.ones((q - 1, q), dtype=np.int64)
        for k in range(1, q - 1):
            powers[k] = products[powers[k - 1], np.arange(q)]
        exp = powers[:, 1 + np.argmin((powers[1:, 1:] == 1).any(axis=0))]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        for table in (regular, products, sums, exp, log):
            table.flags.writeable = False
        self.digit_table = regular
        self.product_array = products
        self.sum_array = sums
        self.exp_array = exp
        self.log_array = log
        self.mul_table = tuple(products.ravel().tolist())
        self.add_table = tuple(sums.ravel().tolist())
        self._neg = tuple((-digits % p @ place).tolist())
        self._exp = tuple(exp.tolist())
        self._log = tuple(log.tolist())
        self._coeffs = tuple(map(tuple, digits.tolist()))

    def sum_duplicates(self, keys, raws):
        """Distinct int64 keys, ascending, and the F_q sums of their raws,
        zero sums dropped.  F_q addition is base-p digit addition mod p, so
        the digit rows of every key add up with one reduceat."""
        if not len(keys):
            return keys, raws
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1])))
        digits = self.digit_table[raws[order], 0]
        sums = np.add.reduceat(digits, starts) % self.p @ self.p ** np.arange(
            self.e)
        live = sums != 0
        return keys[starts][live], sums[live]

    def _raw_of(self, coeffs) -> int:
        raw = 0
        for c in reversed(coeffs):
            raw = raw * self.p + (c % self.p)
        return raw

    # -- raw arithmetic: one table lookup each --------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def primitive(self) -> int:
        """The least raw of order q - 1, the base of the log table."""
        return self._exp[1]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a * self.q + self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[-self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, k: int) -> int:
        if a:
            return self._exp[self._log[a] * k % (self.q - 1)]
        if k < 0:
            raise DivisionByZero("inverse of zero")
        return 0 if k else 1

    # -- element factory and enumeration -------------------------------

    def element(self, value) -> "FieldElement":
        """Wrap a value: an int means the image of that integer (a prime
        subfield element); a list/tuple gives power-basis coordinates."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatch("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        coeffs = list(value)
        if len(coeffs) > self.e:
            raise ArityMismatch(
                f"{len(coeffs)} coordinates for {self!r}, which has {self.e}")
        coeffs += [0] * (self.e - len(coeffs))
        return FieldElement(self, self._raw_of(coeffs))

    def from_raw(self, raw: int) -> "FieldElement":
        return FieldElement(self, raw)

    def coeffs(self, raw: int):
        """Power-basis coordinates of a raw value, little-endian, length e."""
        return self._coeffs[raw]

    def elements(self):
        """All field elements, zero first, in raw order."""
        return [FieldElement(self, v) for v in range(self.q)]

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.e}, mod={list(self.modulus)})"


def enumerate_elements(field: FieldSpec):
    return field.elements()


class FieldElement:
    """A field value bound to its FieldSpec, with operator overloading."""

    __slots__ = ("field", "raw")

    def __init__(self, field: FieldSpec, raw: int):
        self.field = field
        self.raw = raw

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other.raw
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.raw, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.raw, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(b, self.raw))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.raw, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.raw, b))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(b, self.field.inv(self.raw)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.pow_(self.raw, k))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.raw))

    @property
    def coeffs(self):
        return self.field.coeffs(self.raw)

    def is_zero(self) -> bool:
        return self.raw == 0

    def __eq__(self, other):
        # an int equals only the prime-subfield element with that raw, so
        # equal values hash alike
        if isinstance(other, FieldElement):
            return self.field == other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == other and self.raw < self.field.p
        return NotImplemented

    def __hash__(self):
        if self.raw < self.field.p:
            return hash(self.raw)
        return hash((self.field, self.raw))

    def __repr__(self):
        if self.field.e == 1:
            return str(self.raw)
        return f"{list(self.coeffs)}"
