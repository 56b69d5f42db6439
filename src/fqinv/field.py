"""Arithmetic in F_q for q = p^e, p an odd prime, e <= 3, q <= 125.

A field value is stored as a single int in range(q) encoding the
coordinates of the element in the power basis 1, t, t^2 of the chosen
monic modulus, little-endian in base p:

    raw = c_0 + c_1*p + c_2*p^2   <->   c_0 + c_1*t + c_2*t^2

For e = 1 the raw value is simply the residue mod p.  All hot loops in
the library work on raw ints through the FieldSpec methods; FieldElement
is a thin operator-overloading wrapper for convenience and for the
public API.

Keeping e <= 3 means irreducibility of the modulus is equivalent to
having no root in F_p, which make_field checks exhaustively.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    FieldTooLarge,
    InvalidFieldSpec,
    MissingModulus,
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
    polynomial over F_p, required exactly when e > 1.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise InvalidFieldSpec("p and e must be ints")
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
        mod = tuple(int(c) % p for c in modulus)
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

    __slots__ = ("p", "e", "q", "modulus", "_mul", "_inv")

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus  # tuple of e+1 ints, or None for e = 1
        if e == 1:
            self._mul = None
            self._inv = None
        else:
            self._mul = self._build_mul_table()
            self._inv = self._build_inv_table()

    # -- construction of the e > 1 tables ------------------------------

    def _coeffs_of(self, raw: int):
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(raw % p)
            raw //= p
        return out

    def _raw_of(self, coeffs) -> int:
        raw = 0
        for c in reversed(coeffs):
            raw = raw * self.p + (c % self.p)
        return raw

    def _poly_mul_mod(self, a, b):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce by the monic modulus
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.modulus[j]) % p
        return prod[:e]

    def _build_mul_table(self):
        q = self.q
        table = [0] * (q * q)
        coeffs = [self._coeffs_of(v) for v in range(q)]
        for a in range(q):
            row = a * q
            for b in range(a, q):
                v = self._raw_of(self._poly_mul_mod(coeffs[a], coeffs[b]))
                table[row + b] = v
                table[b * q + a] = v
        return table

    def _build_inv_table(self):
        q = self.q
        inv = [0] * q
        for a in range(1, q):
            if inv[a]:
                continue
            for b in range(1, q):
                if self._mul[a * q + b] == 1:
                    inv[a] = b
                    inv[b] = a
                    break
        return inv

    # -- raw arithmetic ------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._mul[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        if self.e == 1:
            return pow(a, k, self.p)
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

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
        return tuple(self._coeffs_of(raw))

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
