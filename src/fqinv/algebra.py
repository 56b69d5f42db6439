"""Sparse arithmetic in P_n (x) E_n over a finite field.

P_n is the polynomial algebra on x_1..x_n with every x_i of cohomological
degree 2; E_n is the exterior algebra on dx_1..dx_n with every dx_i of
degree 1.  A Polynomial stores a dict mapping exponent tuples (length n)
to nonzero raw field values; a TensorElement stores a dict mapping
strictly increasing tuples of 1-based exterior indices to nonzero
Polynomials.  Products of exterior generators are kept in ascending
normal form, with the Koszul sign paid at multiplication time.  A
Polynomial that a numpy kernel returns holds its terms as that kernel's
int64 arrays until its term dict is first read (_packed).

The monomial order used throughout (leading terms, division, canonical
output) is graded lex with x_1 > x_2 > ... > x_n.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain
from math import factorial
from operator import index, itemgetter, mul

import numpy as np

from .errors import (
    ArityMismatch,
    ArityTooSmall,
    BadIndexTuple,
    DegreeMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NegativeDegree,
    NotAFieldValue,
    NotAnInteger,
    NotARawValue,
    NotDivisible,
    SerializationError,
)
from .field import FieldElement, FieldSpec, make_field


def _grlex_key(exp):
    return (sum(exp), exp)


def _check_same(a, b):
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    if a.n != b.n:
        raise ArityMismatch(f"{a.n} variables vs {b.n}")


class Polynomial:
    """Element of F_q[x_1..x_n], sparse, coefficients as raw ints."""

    # `terms` stays unset while `_arrays` holds (exps, raws); see _packed
    __slots__ = ("field", "n", "terms", "_arrays")

    def __init__(self, field: FieldSpec, n: int, terms=None):
        n = _arity(n)
        self.field = field
        self.n = n
        self._arrays = None
        clean = {}
        if terms:
            for exp, c in terms.items():
                raw = _coerce_raw(field, c)
                if raw:
                    exp = _ints(exp, "exponent tuple")
                    if len(exp) != n:
                        raise ArityMismatch(
                            f"exponent tuple {exp} needs length {n}")
                    if any(e < 0 for e in exp):
                        raise NegativeDegree(f"negative exponent in {exp}")
                    clean[exp] = raw
        self.terms = clean

    @classmethod
    def _make(cls, field, n, terms):
        # internal: terms already normalized, takes ownership
        self = object.__new__(cls)
        self.field = field
        self.n = n
        self.terms = terms
        self._arrays = None
        return self

    @classmethod
    def _packed(cls, field, n, exps, raws):
        # internal: the terms as int64 arrays, exps (terms, n) and raws, in
        # term order with distinct exponents and nonzero raws; no one
        # writes them, so results may share them.  A packed Polynomial
        # reads its total degrees as int64 row sums, so terms whose degrees
        # could pass int64 build their dict at once.
        self = object.__new__(cls)
        self.field = field
        self.n = n
        self._arrays = (exps, raws)
        if len(raws) and sum(exps.max(axis=0).tolist()) > _INT64_MAX:
            self.__getattr__("terms")
        return self

    def __getattr__(self, name):
        # reached only while the `terms` slot is unset: build the term dict
        # from the arrays of _packed, once
        if name != "terms":
            raise AttributeError(name)
        exps, raws = self._arrays
        self.terms = terms = _term_dict(exps.T, raws.tolist())
        self._arrays = None
        return terms

    @classmethod
    def zero(cls, field, n):
        return cls._make(field, _arity(n), {})

    @classmethod
    def one(cls, field, n):
        n = _arity(n)
        return cls._make(field, n, {(0,) * n: field.one})

    @classmethod
    def constant(cls, field, n, c):
        n = _arity(n)
        raw = _coerce_raw(field, c)
        return cls._make(field, n, {(0,) * n: raw} if raw else {})

    @classmethod
    def variable(cls, field, n, i, power=1):
        n = _arity(n)
        i, power = _ints((i, power), "variable index and power")
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"variable index {i} not in 1..{n}")
        if power < 0:
            raise NegativeDegree(f"negative power {power}")
        exp = tuple(power if j == i - 1 else 0 for j in range(n))
        return cls._make(field, n, {exp: field.one})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Polynomial.constant(self.field, self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self, other)
        fadd = self.field.add
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = fadd(out.get(exp, 0), c)
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return Polynomial._make(self.field, self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale_raw(self.field.neg(self.field.one))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -(
            Polynomial.constant(self.field, self.n, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self, other)
        return _mul_terms(self.field, self, other)

    __rmul__ = __mul__

    def scale(self, c):
        raw = _coerce_raw(self.field, c)
        return self.scale_raw(raw)

    def scale_raw(self, raw: int):
        if raw == 0:
            return Polynomial._make(self.field, self.n, {})
        if raw == self.field.one:
            return self
        if self._arrays is not None:
            exps, raws = self._arrays
            return Polynomial._packed(self.field, self.n, exps,
                                      self.field.product_array[raws, raw])
        fmul = self.field.mul
        return Polynomial._make(
            self.field, self.n, {e: fmul(c, raw) for e, c in self.terms.items()}
        )

    def __pow__(self, k: int):
        (k,) = _ints((k,), "power")
        if k < 0:
            raise NegativeDegree("negative power of a polynomial")
        out = Polynomial.one(self.field, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def q_power(self):
        """Frobenius: f -> f^q, exponents scale by q, coefficients fixed."""
        q = self.field.q
        packed = None if self.is_zero() else _arrays_of(self)
        if packed is not None and int(packed[0].max(initial=0)) * q <= _INT64_MAX:
            return Polynomial._packed(self.field, self.n, packed[0] * q,
                                      packed[1])
        return Polynomial._make(
            self.field, self.n,
            {tuple(e * q for e in exp): c for exp, c in self.terms.items()},
        )

    # -- structure -----------------------------------------------------

    def is_zero(self):
        return not _count(self)

    def degree(self):
        """Total polynomial degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        if self._arrays is not None:
            return int(self._arrays[0].sum(axis=1).max())
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        return len(set(_first_degrees(self))) <= 1

    def leading(self):
        """(exponent, coefficient) largest in graded lex; None if zero."""
        if not self.terms:
            return None
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def coefficient(self, exp):
        exp = _ints(exp, "exponent tuple")
        if len(exp) != self.n:
            raise ArityMismatch(f"exponent tuple {exp} needs length {self.n}")
        return self.field.from_raw(self.terms.get(exp, 0))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.field == other.field and self.n == other.n
                    and self.terms == other.terms)
        if isinstance(other, (int, FieldElement)):
            return self == Polynomial.constant(self.field, self.n, other)
        return NotImplemented

    __hash__ = None

    # -- substitution and friends -------------------------------------

    def substitute_linear(self, rows):
        """Replace x_i by sum_j rows[i-1][j-1] * x_j.  rows need not be
        invertible (projections are fine).  Entries are FieldElements or
        raw field values, as GroupMatrix.inverse_rows() gives them."""
        return _substitute_terms(self.field, _raw_rows(self.field, self.n, rows),
                                 self)

    def project(self, i: int):
        """Set x_i = 0, keeping the variable count."""
        (i,) = _ints((i,), "variable index")
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"variable index {i} not in 1..{self.n}")
        return Polynomial._make(
            self.field, self.n,
            {e: c for e, c in self.terms.items() if e[i - 1] == 0},
        )

    def map_variables(self, new_n: int, mapping: dict):
        """Push x_i to x_{mapping[i]} inside an algebra on new_n variables.

        Exponents landing on the same target variable add up, so the map
        need not be injective (this is substitution x_i -> x_{mapping[i]}).
        """
        new_n, *targets = _ints((new_n, *mapping.values()), "variable map")
        mapping = dict(zip(mapping, targets))
        out = {}
        fadd = self.field.add
        for exp, c in self.terms.items():
            ee = [0] * new_n
            for i, e in enumerate(exp):
                if e:
                    j = mapping.get(i + 1)
                    if j is None or not 1 <= j <= new_n:
                        raise IndexOutOfRange(f"variable {i + 1} has no target")
                    ee[j - 1] += e
            ee = tuple(ee)
            s = fadd(out.get(ee, 0), c)
            if s:
                out[ee] = s
            elif ee in out:
                del out[ee]
        return Polynomial._make(self.field, new_n, out)

    def __repr__(self):
        return pretty_polynomial(self)


def _coerce_raw(field, c) -> int:
    if isinstance(c, FieldElement):
        if c.field != field:
            raise FieldMismatch(f"{field} vs {c.field}")
        return c.raw
    if isinstance(c, int):
        return c % field.p
    raise NotAFieldValue(f"cannot use {type(c).__name__} as a field value")


def _ints(values, what):
    """values as a tuple of ints; numpy integer scalars pass, a float or
    any other non-integer raises NotAnInteger."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise NotAnInteger(f"{what} {values!r} holds a non-integer") from None


def _arity(n):
    """A variable count as an int; NotAnInteger or ArityTooSmall when it
    is not a non-negative integer."""
    (n,) = _ints((n,), "variable count")
    if n < 0:
        raise ArityTooSmall(f"variable count {n} is negative")
    return n


def _raw_value(field, c) -> int:
    """A FieldElement's raw, or an int that already is one.  An int is not
    reduced mod p: that would fold an extension field value into the prime
    subfield."""
    if isinstance(c, FieldElement):
        return _coerce_raw(field, c)
    if isinstance(c, int) and 0 <= c < field.q:
        return c
    raise NotARawValue(f"{c!r} is not a raw value of {field}")


def _raw_rows(field, n, rows):
    rows = list(rows)
    if len(rows) != n:
        raise ArityMismatch(f"need {n} rows, got {len(rows)}")
    out = []
    for row in rows:
        row = list(row)
        if len(row) != n:
            raise ArityMismatch(f"need {n} entries per row, got {len(row)}")
        out.append(tuple(_raw_value(field, c) for c in row))
    return out


# -- packed-monomial multiplication -------------------------------------
#
# An exponent tuple packs into one int, each variable in a bit field wide
# enough that the exponents of a product never carry, so multiplying two
# monomials is one int addition (the packed monomials of Monagan & Pearce,
# "Sparse polynomial division using a heap", JSC 2011).  Coefficients stay
# field raws throughout.  The Python loop reads each coefficient product
# from the field's product table and adds it to its key's running sum with
# one read of the add table.  The numpy route gathers the products from
# product_array and adds those of equal keys with FieldSpec.sum_duplicates,
# the digit sum that the solver uses too.

# The two routes take about the same time at 128 pairs (0.9-1.3x), and
# numpy outer sums are 1.2-1.5x faster at 256 pairs, on F3, F5, F9 and F125
# (4 variables, a 2-core x86-64 machine).  Chunks of 2^12 to 2^18 pairs take
# the same time on O(x1) over F5 in 4 variables; from 2^17 on they add to
# the peak RSS.
_NUMPY_MIN_PAIRS = 1 << 7    # smaller products run as a Python loop
_CHUNK_PAIRS = 1 << 15       # outer-sum pairs numpy forms at once
_INT64_BITS = 62             # widest packed key numpy takes
_INT64_MAX = (1 << 63) - 1   # largest exponent an int64 array holds
_SMALL_INT_MAX = 256         # largest int CPython keeps one object for


def _unpack(out, shifts, masks):
    """Term dict of a dict from packed exponents to raws, zero raws
    dropped.  Empties `out`."""
    cols = [[(k >> s) & m for k, v in out.items() if v]
            for s, m in zip(shifts, masks)]
    raws = [v for v in out.values() if v]
    out.clear()
    if max(masks, default=0) > _SMALL_INT_MAX:
        # one object per distinct exponent, as _shared_ints gives; these
        # outputs are small, so a dict costs less than numpy here
        same = {}.setdefault
        cols = [col if max(col, default=0) <= _SMALL_INT_MAX
                else [same(e, e) for e in col] for col in cols]
    return dict(zip(zip(*cols) if cols else [()] * len(raws), raws))


def _shift_terms(field, exp, c, poly):
    """poly times the monomial c*x^exp; distinct exponents stay distinct,
    so nothing needs adding."""
    packed = _arrays_of(poly) if _count(poly) >= _NUMPY_MIN_PAIRS else None
    if packed is not None and all(
            t + e <= _INT64_MAX
            for t, e in zip(packed[0].max(axis=0).tolist(), exp)):
        exps, raws = packed
        if c != field.one:
            raws = field.product_array[raws, c]
        return Polynomial._packed(field, poly.n,
                                  exps + np.array(exp, dtype=np.int64), raws)
    if c == field.one:
        terms = {tuple(x + y for x, y in zip(e, exp)): v
                 for e, v in poly.terms.items()}
    else:
        fmul = field.mul
        terms = {tuple(x + y for x, y in zip(e, exp)): fmul(v, c)
                 for e, v in poly.terms.items()}
    return Polynomial._make(field, poly.n, terms)


def _accumulate(field, pieces):
    """FieldSpec.sum_duplicates of every (keys, raws) pair that `pieces`
    yields.  Each piece is summed as it comes; summed pieces merge into the
    running result once they outgrow it."""
    run_k = run_v = np.empty(0, dtype=np.int64)
    parts_k, parts_v, pending = [], [], 0
    for keys, raws in pieces:
        k, v = field.sum_duplicates(keys, raws)
        del keys, raws            # not alive while the next piece is formed
        parts_k.append(k)
        parts_v.append(v)
        pending += len(k)
        if pending >= max(len(run_k), _CHUNK_PAIRS):
            run_k, run_v = field.sum_duplicates(
                np.concatenate([run_k] + parts_k),
                np.concatenate([run_v] + parts_v))
            parts_k, parts_v, pending = [], [], 0
    if parts_k:
        run_k, run_v = field.sum_duplicates(np.concatenate([run_k] + parts_k),
                                            np.concatenate([run_v] + parts_v))
    return run_k, run_v


def _key_exps(keys, shifts, masks):
    """The (terms, n) exponent array of packed int64 keys."""
    exps = keys[:, None] >> np.array(shifts, dtype=np.int64)
    exps &= np.array(masks, dtype=np.int64)
    return exps


def _count(poly):
    """Number of terms of a Polynomial, packed or not."""
    packed = poly._arrays
    return len(packed[1]) if packed is not None else len(poly.terms)


def _arrays_of(poly):
    """(exps, raws) of a nonzero Polynomial as _packed holds them, read off
    its term dict if it has one; None when an exponent passes int64."""
    if poly._arrays is not None:
        return poly._arrays
    terms = poly.terms
    size, n = len(terms), poly.n
    try:
        exps = np.fromiter(chain.from_iterable(terms), np.int64, size * n)
    except OverflowError:
        return None
    return (exps.reshape(size, n),
            np.fromiter(terms.values(), np.int64, size))


def _first_degrees(poly):
    """Total degrees of poly's terms in term order, as many as telling
    whether it is homogeneous needs: of a packed Polynomial the first one
    and the first other one."""
    if poly._arrays is None:
        return map(sum, poly.terms)
    degrees = poly._arrays[0].sum(axis=1)
    return (degrees[:1].tolist()
            + degrees[degrees != degrees[:1]][:1].tolist())


def _term_dict(cols, raws):
    """Term dict of the exponent columns `cols`, int64 arrays, and the
    list of the terms' raws, in term order."""
    cols = _shared_ints(list(cols))
    return dict(zip(zip(*cols) if cols else [()] * len(raws), raws))


def _shared_ints(cols):
    """The int64 arrays `cols` as lists of Python ints with one object per
    distinct value among them all.  CPython shares the ints up to 256 by
    itself and makes a 32-byte object for every other one; the exponents
    of a term dict repeat few values (the 156 601 terms of
    theorem_basis(F25, "gl", 3) hold 376), so columns above 256 are
    unpacked through their distinct values."""
    # one column at a time: a (terms, n) array's tolist() costs more memory
    if all(col.max(initial=0) <= _SMALL_INT_MAX for col in cols):
        return [col.tolist() for col in cols]
    same, out = {}.setdefault, []
    for col in cols:
        values, inverse = np.unique(col, return_inverse=True)
        table = np.array([same(v, v) for v in values.tolist()], dtype=object)
        out.append(table[inverse].tolist())
    return out


def _layout(max_a, max_b):
    """Bit shift and mask of every variable in a packed key, sized from
    the largest exponents of the two factors, plus the total width."""
    shifts, masks, bits = [], [], 0
    for x, y in zip(max_a, max_b):
        width = (x + y).bit_length()
        shifts.append(bits)
        masks.append((1 << width) - 1)
        bits += width
    return shifts, masks, bits


def _mul_pieces(field, weights, exps_a, ca, exps_b, cb):
    """The outer sums of the packed keys of two factors' exponent arrays,
    and the products of their raws, at most _CHUNK_PAIRS pairs at a
    time."""
    ka, kb = exps_a @ weights, exps_b @ weights
    table = field.product_array
    step_b = min(len(kb), _CHUNK_PAIRS)
    step_a = _CHUNK_PAIRS // step_b
    for i in range(0, len(ka), step_a):
        for j in range(0, len(kb), step_b):
            keys = ka[i:i + step_a, None] + kb[None, j:j + step_b]
            raws = table[ca[i:i + step_a, None], cb[None, j:j + step_b]]
            yield keys.ravel(), raws.ravel()


def _mul_numpy(field, n, layout, a, b):
    """Product of two factors given as (exps, raws) through numpy outer
    sums."""
    shifts, masks, _ = layout
    weights = np.array([1 << s for s in shifts], dtype=np.int64)
    keys, raws = _accumulate(field, _mul_pieces(field, weights, *a, *b))
    return Polynomial._packed(field, n, _key_exps(keys, shifts, masks), raws)


def _mul_python(field, layout, a, b):
    """Product of two term dicts as one loop over packed int keys."""
    shifts, masks, _ = layout
    packed_a, packed_b = ([(sum(x << s for x, s in zip(e, shifts)), c)
                           for e, c in terms.items()] for terms in (a, b))
    return _unpack(_pair_sums(field, packed_a, packed_b), shifts, masks)


def _pair_sums(field, a, b):
    """Dict from the sums of packed keys to the F_q sums, zeros included,
    of the coefficient products over every pair of the (packed key, raw)
    lists a and b."""
    prod, add, q = field.mul_table, field.add_table, field.q
    out = {}
    get = out.get
    for ka, ca in a:
        row = ca * q
        for kb, cb in b:
            k = ka + kb
            out[k] = add[get(k, 0) * q + prod[row + cb]]
    return out


def _mul_terms(field, a, b):
    """Product of two Polynomials."""
    size_a, size_b = _count(a), _count(b)
    if size_a > size_b:
        a, b, size_a, size_b = b, a, size_b, size_a
    if not size_a:
        return Polynomial._make(field, a.n, {})
    if size_a == 1:
        (exp, c), = a.terms.items()
        return _shift_terms(field, exp, c, b)
    if size_a * size_b >= _NUMPY_MIN_PAIRS:
        packed_a, packed_b = _arrays_of(a), _arrays_of(b)
        if packed_a is not None and packed_b is not None:
            layout = _layout(packed_a[0].max(axis=0).tolist(),
                             packed_b[0].max(axis=0).tolist())
            if layout[2] <= _INT64_BITS:
                return _mul_numpy(field, a.n, layout, packed_a, packed_b)
    n, a, b = a.n, a.terms, b.terms
    layout = _layout([max(col) for col in zip(*a)], [max(col) for col in zip(*b)])
    return Polynomial._make(field, n, _mul_python(field, layout, a, b))


# -- packed-key linear substitution --------------------------------------
#
# x_i -> sum_j a_ij x_j keeps the total degree of every monomial, so with
# each variable (largest total degree).bit_length() bits wide the packed
# keys of the image never carry.  x_i^e under a row with one nonzero entry
# c x_j is the key of x_j^e times the scalar c^e.  A longer row is raised
# to the e-th power digit by digit in base p,
#
#     (sum_j c_j x_j)^e = prod_d (sum_j c_j^(p^d) x_j^(p^d))^(e_d),
#
# with every digit e_d < p, so each factor is a multinomial expansion with
# no coefficient divisible by p.  An exponent of the product has the k_dj
# of the factors as its base-p digits, so the product has no equal keys:
# for a transvection row it is exactly the prod_d (e_d + 1) terms that
# Lucas's theorem leaves nonzero.
#
# The numpy route is the twin of _mul_numpy.  The one-entry rows move the
# keys of all terms with one integer product exps @ weights and scale
# their coefficients with one gather from the log and exponent tables.
# The terms are then grouped by their exponents on the other rows; the
# image of those rows is built once per group, as above, and expanded
# against the group's keys and coefficients by one outer sum.  tensor_act
# runs this kernel on every exterior part and adds all the parts' images
# in one FieldSpec.sum_duplicates, each key carrying its exterior word's
# bit mask above the packed monomial; is_invariant compares those sorted
# arrays directly.  Inputs below _NUMPY_MIN_PAIRS terms, and keys wider
# than _INT64_BITS, take the Python loop, whose ints have no width limit.
# Both routes add coefficients as _mul_terms does.


def _compositions(total, parts):
    """Every tuple of `parts` non-negative ints summing to `total`, in
    descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def _row_power(field, entries, e):
    """(sum of c * x over entries (x's packed key, c))^e, e > 0, as a list
    of (packed key, raw); no two keys are equal."""
    if not entries:
        return []
    p, fmul, fpow = field.p, field.mul, field.pow_
    out = [(0, field.one)]
    frob = 1                                  # p^d
    while e:
        e, digit = divmod(e, p)
        if digit:
            twisted = [(key * frob, fpow(c, frob)) for key, c in entries]
            part = []
            for ks in _compositions(digit, len(twisted)):
                key, c = 0, factorial(digit)
                for k in ks:
                    c //= factorial(k)
                c %= p
                for (x, cx), k in zip(twisted, ks):
                    if k:
                        key += x * k
                        c = fmul(c, fpow(cx, k))
                part.append((key, c))
            out = [(k1 + k2, fmul(c1, c2)) for k1, c1 in out for k2, c2 in part]
        frob *= p
    return out


def _row_plan(field, rows, width):
    """The rows as the substitution reads them, at `width` bits per
    variable: that width; the key of the variable of every one-entry row
    (0 for the other rows); the one-entry rows whose scalar is not 1, as
    (i, scalar); and every other row, zero rows included, as
    (i, [(x_j's key, c_j)...])."""
    sparse = [[(1 << (j * width), c) for j, c in enumerate(row) if c]
              for row in rows]
    shift = [r[0][0] if len(r) == 1 else 0 for r in sparse]
    scaled = [(i, r[0][1]) for i, r in enumerate(sparse)
              if len(r) == 1 and r[0][1] != field.one]
    long = [(i, r) for i, r in enumerate(sparse) if len(r) != 1]
    return width, shift, scaled, long


def _long_image(field, long, exp, powers):
    """Product of the powers exp[i] of the rows (i, entries) in `long`, as
    a list of (packed key, raw) with distinct keys; None when all those
    exponents are 0.  `powers` caches the row powers by (i, exp[i])."""
    image = None
    for i, entries in long:
        e = exp[i]
        if e:
            pw = powers.get((i, e))
            if pw is None:
                pw = powers[i, e] = _row_power(field, entries, e)
            image = pw if image is None else _convolve(field, image, pw)
    return image


def _substitute_python(field, plan, terms, powers):
    """Image of a term dict as a dict from packed keys to F_q sums, zeros
    included, by one loop over the terms."""
    _, shift, scaled, long = plan
    q = field.q
    prod, add, fpow = field.mul_table, field.add_table, field.pow_
    out = {}
    get = out.get
    for exp, c in terms.items():
        key = sum(map(mul, exp, shift))
        for i, ci in scaled:
            c = prod[c * q + fpow(ci, exp[i])]
        image = _long_image(field, long, exp, powers) if long else None
        if image is None:
            out[key] = add[get(key, 0) * q + c]
            continue
        row = c * q
        for k, ck in image:
            k += key
            out[k] = add[get(k, 0) * q + prod[row + ck]]
    return out


def _substitute_pieces(field, plan, exps, raws, powers):
    """Outer sums of packed keys and coefficient products whose
    FieldSpec.sum_duplicates is the image of the terms with exponent rows
    `exps` and raws `raws`, less than 2 * _CHUNK_PAIRS pairs at a time."""
    width, shift, scaled, long = plan
    q = field.q
    keys = exps @ np.array(shift, dtype=np.int64)
    if scaled:
        # c * prod c_i^(e_i) is one gather: the logs add up mod q - 1
        log_t = field.log_array
        cols = [i for i, _ in scaled]
        logs = log_t[[c for _, c in scaled]]
        raws = field.exp_array[
            (log_t[raws] + (exps[:, cols] % (q - 1)) @ logs) % (q - 1)]
    table = field.product_array
    # group the terms by their exponents on the long rows, packed in one
    # int64 like a monomial
    weights = np.array([1 << (k * width) for k in range(len(long))],
                       dtype=np.int64)
    group = exps[:, [i for i, _ in long]] @ weights
    order = np.argsort(group, kind="stable")
    group = group[order]
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    # small groups are yielded together, about _CHUNK_PAIRS pairs at a time
    batch_k, batch_v, size = [], [], 0
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
        members = order[lo:hi]
        image = _long_image(field, long, exps[members[0]].tolist(), powers)
        if image is None:
            image = [(0, field.one)]
        elif not image:
            continue
        image_keys = np.array([k for k, _ in image], dtype=np.int64)
        image_raws = np.array([c for _, c in image], dtype=np.int64)
        step = max(1, _CHUNK_PAIRS // len(image))
        for i in range(0, len(members), step):
            m = members[i:i + step]
            batch_k.append((keys[m, None] + image_keys).ravel())
            batch_v.append(table[raws[m, None], image_raws].ravel())
            size += len(batch_k[-1])
            if size >= _CHUNK_PAIRS:
                yield np.concatenate(batch_k), np.concatenate(batch_v)
                batch_k, batch_v, size = [], [], 0
    if batch_k:
        yield np.concatenate(batch_k), np.concatenate(batch_v)


def _substitute_terms(field, rows, poly):
    """poly under x_i -> sum_j rows[i][j] x_j, rows given as raw values."""
    n = poly.n
    if poly.is_zero():
        return Polynomial._make(field, n, {})
    plan = _row_plan(field, rows, poly.degree().bit_length())
    width = plan[0]
    shifts, masks = [j * width for j in range(n)], [(1 << width) - 1] * n
    if _count(poly) >= _NUMPY_MIN_PAIRS and n * width <= _INT64_BITS:
        keys, raws = _accumulate(field, _substitute_pieces(
            field, plan, *_arrays_of(poly), {}))
        return Polynomial._packed(field, n, _key_exps(keys, shifts, masks),
                                  raws)
    return Polynomial._make(field, n, _unpack(
        _substitute_python(field, plan, poly.terms, {}), shifts, masks))


def _substitute_tagged(field, rows, exps, tags, raws):
    """The terms x^exps[i] y^tags[i], with raws `raws`, under
    x_i -> sum_j rows[i][j] x_j and y -> y, rows given as raw values, as
    int64 exponent rows (y's last) and raws whose equal rows are not yet
    added up.  The tag y is packed above the monomial, so it may be any
    width.  As in _substitute_terms, fewer than _NUMPY_MIN_PAIRS terms and
    keys that pass _INT64_BITS take the Python loop."""
    n = exps.shape[1]
    width = int(exps.sum(axis=1).max(initial=0)).bit_length()
    top = int(tags.max(initial=0)).bit_length()
    plan = _row_plan(field, [[*row, 0] for row in rows] + [[0] * n + [1]],
                     width)
    shifts = [j * width for j in range(n + 1)]
    masks = [(1 << width) - 1] * n + [(1 << top) - 1]
    tagged = np.column_stack((exps, tags))
    if len(raws) >= _NUMPY_MIN_PAIRS and n * width + top <= _INT64_BITS:
        keys, raws = zip(*_substitute_pieces(field, plan, tagged, raws, {}))
        return _key_exps(np.concatenate(keys), shifts, masks), \
            np.concatenate(raws)
    terms = _unpack(_substitute_python(
        field, plan, dict(zip(map(tuple, tagged.tolist()), raws.tolist())),
        {}), shifts, masks)
    return (np.array(list(terms), dtype=np.int64).reshape(-1, n + 1),
            np.array(list(terms.values()), dtype=np.int64))


def _convolve(field, a, b):
    """Product of two (packed key, raw) lists as a list with distinct
    keys and no zero raws."""
    return [(k, raw) for k, raw in _pair_sums(field, a, b).items() if raw]


def exact_divide(f: Polynomial, g: Polynomial):
    """Quotient f/g when it exists; raises NotDivisible otherwise.

    Single-divisor graded-lex division; the heap keeps the candidate
    leading exponents so each step is logarithmic.
    """
    import heapq

    _check_same(f, g)
    if g.is_zero():
        raise NotDivisible("division by the zero polynomial")
    field = f.field
    fadd, fmul, fneg = field.add, field.mul, field.neg
    lead = g.leading()
    ge, gc = lead
    gc_inv = field.inv(gc)
    grest = [(e, c) for e, c in g.terms.items() if e != ge]
    rem = dict(f.terms)
    heap = [(-sum(e), tuple(-x for x in e)) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        negd, nege = heapq.heappop(heap)
        exp = tuple(-x for x in nege)
        c = rem.get(exp)
        if not c:
            continue
        te = tuple(a - b for a, b in zip(exp, ge))
        if any(x < 0 for x in te):
            raise NotDivisible("leading term not divisible")
        tc = fmul(c, gc_inv)
        quot[te] = tc
        del rem[exp]
        ntc = fneg(tc)
        for e2, c2 in grest:
            ee = tuple(a + b for a, b in zip(te, e2))
            old = rem.get(ee, 0)
            s = fadd(old, fmul(ntc, c2))
            if s:
                if not old:
                    heapq.heappush(heap, (-sum(ee), tuple(-x for x in ee)))
                rem[ee] = s
            elif ee in rem:
                del rem[ee]
    if rem:
        raise NotDivisible("nonzero remainder")
    return Polynomial._make(field, f.n, quot)


class TensorElement:
    """Element of P_n (x) E_n: exterior-word -> Polynomial coefficient."""

    __slots__ = ("field", "n", "parts")

    def __init__(self, field: FieldSpec, n: int, parts=None):
        n = _arity(n)
        self.field = field
        self.n = n
        clean = {}
        if parts:
            for ext, poly in parts.items():
                ext = _ints(ext, "exterior word")
                if any(not 1 <= j <= n for j in ext) or list(ext) != sorted(set(ext)):
                    raise BadIndexTuple(f"bad exterior index tuple {ext}")
                if not isinstance(poly, Polynomial):
                    raise TypeError("parts must map to Polynomial")
                _check_same(self, poly)
                if not poly.is_zero():
                    clean[ext] = poly
        self.parts = clean

    @classmethod
    def _make(cls, field, n, parts):
        self = object.__new__(cls)
        self.field = field
        self.n = n
        self.parts = parts
        return self

    @classmethod
    def zero(cls, field, n):
        return cls._make(field, _arity(n), {})

    @classmethod
    def one(cls, field, n):
        n = _arity(n)
        return cls._make(field, n, {(): Polynomial.one(field, n)})

    @classmethod
    def from_polynomial(cls, poly: Polynomial):
        if poly.is_zero():
            return cls._make(poly.field, poly.n, {})
        return cls._make(poly.field, poly.n, {(): poly})

    @classmethod
    def dx(cls, field, n, indices):
        """dx_{j_1} ^ ... ^ dx_{j_r} for strictly increasing indices."""
        n = _arity(n)
        ext = _ints(indices, "exterior word")
        if list(ext) != sorted(set(ext)) or any(not 1 <= j <= n for j in ext):
            raise BadIndexTuple(f"indices must be strictly increasing in 1..{n}")
        return cls._make(field, n, {ext: Polynomial.one(field, n)})

    # -- additive structure -------------------------------------------

    def __add__(self, other):
        other = _as_tensor(self, other)
        if other is NotImplemented:
            return NotImplemented
        _check_same(self, other)
        out = dict(self.parts)
        for ext, poly in other.parts.items():
            _add_part(out, ext, poly)
        return TensorElement._make(self.field, self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return TensorElement._make(
            self.field, self.n, {e: -p for e, p in self.parts.items()}
        )

    def __sub__(self, other):
        other = _as_tensor(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- multiplicative structure -------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        other = _as_tensor(self, other)
        if other is NotImplemented:
            return NotImplemented
        _check_same(self, other)
        field = self.field
        out = {}
        for e1, p1 in self.parts.items():
            for e2, p2 in other.parts.items():
                merged = _merge_ext(e1, e2)
                if merged is None:
                    continue
                sign, ext = merged
                prod = p1 * p2
                _add_part(out, ext, -prod if sign < 0 else prod)
        return TensorElement._make(field, self.n, out)

    def __rmul__(self, other):
        # scalars and polynomials are even, so this commutes
        if isinstance(other, (int, FieldElement, Polynomial)):
            return self.__mul__(other)
        return NotImplemented

    def scale(self, c):
        raw = _coerce_raw(self.field, c)
        if raw == 0:
            return TensorElement._make(self.field, self.n, {})
        return TensorElement._make(
            self.field, self.n,
            {e: p.scale_raw(raw) for e, p in self.parts.items()},
        )

    # -- structure -----------------------------------------------------

    def is_zero(self):
        return not self.parts

    def exterior_degrees(self):
        return sorted({len(e) for e in self.parts})

    def polynomial_part(self):
        """Coefficient of the empty exterior word."""
        return self.parts.get((), Polynomial._make(self.field, self.n, {}))

    def coh_components(self):
        """Split into cohomologically homogeneous pieces, degree -> element."""
        buckets = {}
        for ext, poly in self.parts.items():
            r = len(ext)
            for exp, c in poly.terms.items():
                d = 2 * sum(exp) + r
                part = buckets.setdefault(d, {})
                part.setdefault(ext, {})[exp] = c
        return {
            d: TensorElement._make(
                self.field, self.n,
                {ext: Polynomial._make(self.field, self.n, terms)
                 for ext, terms in parts.items()},
            )
            for d, parts in sorted(buckets.items())
        }

    def _coh_degrees(self):
        """The terms' distinct cohomological degrees 2*|exp| + |ext|, up to
        the second one found: one for a homogeneous element, none for 0."""
        found = []
        for ext, poly in self.parts.items():
            for degree in _first_degrees(poly):
                d = 2 * degree + len(ext)
                if not found or d != found[0]:
                    found.append(d)
                    if len(found) == 2:
                        return found
        return found

    def is_homogeneous(self):
        return len(self._coh_degrees()) <= 1

    def coh_degree(self):
        """Cohomological degree if homogeneous; 0 for zero."""
        found = self._coh_degrees()
        if len(found) > 1:
            raise DegreeMismatch("element is not homogeneous")
        return found[0] if found else 0

    def __eq__(self, other):
        other = _as_tensor(self, other)
        if other is NotImplemented:
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.parts == other.parts)

    __hash__ = None

    def map_variables(self, new_n: int, mapping: dict):
        """Relabel both x_i and dx_i by the index mapping, which must be
        injective on the exterior indices in use.  Reordering a word to
        ascending form pays the usual sign."""
        new_n, *targets = _ints((new_n, *mapping.values()), "variable map")
        mapping = dict(zip(mapping, targets))
        out = {}
        for ext, poly in self.parts.items():
            images = [mapping.get(j) for j in ext]
            if any(j is None or not 1 <= j <= new_n for j in images):
                raise IndexOutOfRange(
                    f"exterior word {ext} has an index with no target in "
                    f"1..{new_n}")
            if len(set(images)) != len(images):
                raise BadIndexTuple("mapping must be injective on exterior indices")
            sign = _sort_sign(images)
            new_ext = tuple(sorted(images))
            p = poly.map_variables(new_n, mapping)
            _add_part(out, new_ext, -p if sign < 0 else p)
        return TensorElement._make(self.field, new_n, out)

    def __repr__(self):
        return pretty(self)


def _add_part(parts, word, poly):
    """Add poly into parts[word] of an exterior-word dict, dropping the
    word when the sum is zero."""
    prev = parts.get(word)
    total = poly if prev is None else prev + poly
    if not total.is_zero():
        parts[word] = total
    else:
        parts.pop(word, None)


def _as_tensor(like, other):
    if isinstance(other, TensorElement):
        return other
    if isinstance(other, Polynomial):
        return TensorElement.from_polynomial(other)
    if isinstance(other, (int, FieldElement)):
        return TensorElement.from_polynomial(
            Polynomial.constant(like.field, like.n, other))
    return NotImplemented


def _merge_ext(I, J):
    """Koszul sign and merged word for dx_I ^ dx_J; None if they clash."""
    if I and J and set(I) & set(J):
        return None
    return _sort_sign(I + J), tuple(sorted(I + J))


def _sort_sign(seq):
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv & 1 else 1


def wedge(u: TensorElement, v: TensorElement):
    return u * v


def _exterior_image(field, rows, J):
    """dx_J under dx_j -> sum_k rows[j-1][k-1] dx_k, rows given as raw
    values, as a dict from ascending words to nonzero raws."""
    fadd, fmul, fneg = field.add, field.mul, field.neg
    ext_terms = {(): field.one}
    for j in J:
        row = rows[j - 1]
        nxt = {}
        for K, s in ext_terms.items():
            for k0, c in enumerate(row):
                if not c:
                    continue
                k = k0 + 1
                if k in K:
                    continue
                pos = bisect_left(K, k)
                cc = fmul(s, c)
                if (len(K) - pos) & 1:
                    cc = fneg(cc)
                KK = K[:pos] + (k,) + K[pos:]
                t = fadd(nxt.get(KK, 0), cc)
                if t:
                    nxt[KK] = t
                elif KK in nxt:
                    del nxt[KK]
        ext_terms = nxt
    return ext_terms


def tensor_act(g, u: TensorElement) -> TensorElement:
    """Left action of a group matrix on an algebra element.

    The variables transform contragrediently: the polynomial part is
    substituted through g^{-1}, and each dx_j maps to the corresponding
    combination of dx_k with coefficients from g^{-1}, so the top
    exterior class picks up det(g^{-1}).
    """
    _check_same(g, u)
    field, n = u.field, u.n
    rows = g.inverse_rows()
    packed = _tensor_parts(u)
    if packed is not None:
        keys, raws = _act_arrays(field, rows, n, *packed)
        return _tensor_of_arrays(field, n, packed[0], keys, raws)
    out = {}
    for J, poly in u.parts.items():
        psub = poly.substitute_linear(rows)
        for K, s in _exterior_image(field, rows, J).items():
            _add_part(out, K, psub.scale_raw(s))
    return TensorElement._make(field, n, out)


def _is_fixed(gens, u: TensorElement) -> bool:
    """True when every group matrix in gens fixes u.  On the numpy route u
    is packed once, and each image is compared with it as sorted
    arrays."""
    packed = _tensor_parts(u)
    if packed is None:
        return all(tensor_act(g, u) == u for g in gens)
    keys, raws = _pack_parts(u.n, *packed)
    for g in gens:
        _check_same(g, u)
        image_keys, image_raws = _act_arrays(u.field, g.inverse_rows(), u.n,
                                             *packed)
        if not (np.array_equal(image_keys, keys)
                and np.array_equal(image_raws, raws)):
            return False
    return True


# An element on the numpy route is one pair of int64 arrays: each term's
# key is its packed monomial, `width` bits per variable, with the bit mask
# of its exterior word (bit j - 1 for dx_j) in the n bits above it.

def _tensor_parts(u):
    """(width, parts) for the numpy route, each part as (word, exponent
    array, raw array); None when u is zero, is below _NUMPY_MIN_PAIRS
    terms or its keys do not fit one int64."""
    count = sum(map(_count, u.parts.values()))
    if not count or count < _NUMPY_MIN_PAIRS:
        return None
    width = max(poly.degree() for poly in u.parts.values()).bit_length()
    if u.n * (width + 1) > _INT64_BITS:
        return None
    return width, [(word, *_arrays_of(poly)) for word, poly in u.parts.items()]


def _word_key(word, n, width):
    """The bits an exterior word adds to the keys of its terms."""
    return sum(1 << (j - 1) for j in word) << (n * width)


def _pack_parts(n, width, parts):
    """Sorted keys and their raws of the parts of _tensor_parts."""
    weights = np.array([1 << (j * width) for j in range(n)], dtype=np.int64)
    keys = np.concatenate([exps @ weights + _word_key(word, n, width)
                           for word, exps, _ in parts])
    order = np.argsort(keys)
    return keys[order], np.concatenate([raws for *_, raws in parts])[order]


def _act_arrays(field, rows, n, width, parts):
    """Sorted keys and their raws, laid out as _pack_parts lays them, of
    the image of the parts of _tensor_parts under dx -> rows dx and
    x -> rows x."""
    plan = _row_plan(field, rows, width)
    powers, all_keys, all_raws = {}, [], []
    for word, exps, raws in parts:
        words = _exterior_image(field, rows, word)
        if not words:
            continue
        keys, coeffs = _accumulate(field, _substitute_pieces(
            field, plan, exps, raws, powers))
        for image_word, s in words.items():
            all_keys.append(keys + _word_key(image_word, n, width))
            all_raws.append(field.product_array[coeffs, s])
    return field.sum_duplicates(np.concatenate(all_keys),
                                np.concatenate(all_raws))


def _tensor_of_arrays(field, n, width, keys, raws):
    """TensorElement of sorted keys and raws laid out as _pack_parts lays
    them."""
    shifts, masks = [j * width for j in range(n)], [(1 << width) - 1] * n
    words, starts = np.unique(keys >> (n * width), return_index=True)
    ends = starts[1:].tolist() + [len(keys)]
    parts = {}
    for mask, lo, hi in zip(words.tolist(), starts.tolist(), ends):
        word = tuple(j + 1 for j in range(n) if mask >> j & 1)
        parts[word] = Polynomial._packed(
            field, n, _key_exps(keys[lo:hi], shifts, masks), raws[lo:hi])
    return TensorElement._make(field, n, parts)


# -- canonical JSON -----------------------------------------------------

def _descending(terms):
    """The exponents of a term dict by descending degree, then descending
    lex: the canonical order of terms inside one exterior word."""
    return sorted(terms, key=_grlex_key, reverse=True)


def _canonical_parts(u):
    """(word, terms, exponents) for each nonzero part of u: words
    ascending, exponents by _descending.  As no (word, exponents) pair
    repeats, this is the order of sorting every term of u by (word,
    -degree, -exponents)."""
    for word in sorted(u.parts):
        terms = u.parts[word].terms
        if terms:
            yield word, terms, _descending(terms)


def _json_head(u):
    field = u.field
    return {
        "field": {
            "p": field.p,
            "e": field.e,
            "modulus": list(field.modulus) if field.modulus else None,
        },
        "n": u.n,
    }


def to_json_dict(u: TensorElement) -> dict:
    coeffs = u.field.coeffs
    return {**_json_head(u), "terms": [
        {"c": list(coeffs(terms[exp])), "exp": list(exp), "ext": list(word)}
        for word, terms, exps in _canonical_parts(u) for exp in exps
    ]}


def to_json(u: TensorElement) -> str:
    """The text of json.dumps(to_json_dict(u), separators=(",", ":")),
    written part by part from one %-template per (word, coefficient), so
    no object is built per term and memory follows the text's length."""
    field = u.field
    head = json.dumps(_json_head(u), separators=(",", ":"))
    coeff_text = [",".join(map(str, field.coeffs(raw))) for raw in range(field.q)]
    exp_text = ",".join(["%d"] * u.n)
    chunks = []
    for word, terms, exps in _canonical_parts(u):
        tail = f'],"ext":[{",".join(map(str, word))}]}}'
        template = {raw: f'{{"c":[{coeff_text[raw]}],"exp":[{exp_text}{tail}'
                    for raw in set(terms.values())}
        chunks.append(",".join([template[terms[exp]] % exp for exp in exps]))
    return f'{head[:-1]},"terms":[{",".join(chunks)}]}}'


def _decode_object(pairs):
    """object_pairs_hook of from_json: a term object whose keys are c, exp
    and ext in that order, each holding a list, becomes a (c, exp, ext)
    tuple of tuples; any other object becomes the dict json.loads builds."""
    if len(pairs) == 3:
        (kc, c), (ke, exp), (kx, ext) = pairs
        if (kc == "c" and ke == "exp" and kx == "ext"
                and type(c) is type(exp) is type(ext) is list):
            return tuple(c), tuple(exp), tuple(ext)
    return dict(pairs)


def _require_ints(values, what):
    """ValueError unless every value is an exact int: a JSON float, string
    or boolean is no integer, even where it equals one."""
    wrong = set(map(type, values)) - {int}
    if wrong:
        names = ", ".join(sorted(t.__name__ for t in wrong))
        raise ValueError(f"{what} holds a non-integer ({names})")


def _read_element(data, decoded):
    """The element a parsed JSON document describes.  Terms are mappings
    with keys c, exp and ext.  Where decoded is set, a tuple in the terms
    array is the (c, exp, ext) that _decode_object made: in a JSON array,
    only that hook makes tuples.  SerializationError for any malformed
    document."""
    try:
        fd = data["field"]
        p, e, modulus = fd["p"], fd["e"], fd.get("modulus")
        _require_ints((p, e), "field")
        if modulus is not None:
            _require_ints(modulus, "modulus")
        field = make_field(p, e, modulus)
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"bad variable count {n!r}")
        terms = data["terms"]
        decoded = decoded and type(terms) is list
        terms = [term if decoded and type(term) is tuple
                 else (tuple(term["c"]), tuple(term["exp"]), tuple(term["ext"]))
                 for term in terms]
        # bool is an int subclass and 1.0 == 1, so every value's type is
        # checked before any tuple is used as a dict key
        _require_ints(chain.from_iterable(chain.from_iterable(terms)), "term")
        exp_of = itemgetter(1)
        if set(map(len, map(exp_of, terms))) - {n}:
            raise ValueError(f"exponent tuple needs length {n}")
        if min(chain.from_iterable(map(exp_of, terms)), default=0) < 0:
            raise ValueError("negative exponent")
        # each distinct coefficient is checked and converted, and each
        # distinct exterior word checked, once
        coeffs = set(map(itemgetter(0), terms))
        if any(len(c) != field.e for c in coeffs):
            raise ValueError(f"coefficient needs {field.e} coordinates")
        raws = {c: field.element(c).raw for c in coeffs}
        for ext in set(map(itemgetter(2), terms)):
            if any(not 1 <= j <= n for j in ext) or list(ext) != sorted(set(ext)):
                raise ValueError(f"bad exterior index tuple {ext}")
        # the decoded exponent and word tuples become the element's keys
        parts = {}
        for c, exp, ext in terms:
            poly_terms = parts.get(ext)
            if poly_terms is None:
                poly_terms = parts[ext] = {}
            if exp in poly_terms:
                raise ValueError(f"duplicate term {exp} in {ext}")
            poly_terms[exp] = raws[c]
        # zero terms are checked like any other, then left out
        if 0 in raws.values():
            parts = {ext: kept for ext, poly_terms in parts.items()
                     if (kept := {k: v for k, v in poly_terms.items() if v})}
        # values are already canonical raws, so bypass the coercing
        # constructor (it would fold them into the prime subfield)
        return TensorElement._make(
            field, n,
            {ext: Polynomial._make(field, n, poly_terms)
             for ext, poly_terms in parts.items()},
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed element: {exc}") from exc


def from_json_dict(data) -> TensorElement:
    return _read_element(data, decoded=False)


def from_json(text: str) -> TensorElement:
    """from_json_dict(json.loads(text)), with each canonical term object
    decoded straight into tuples (_decode_object).  Invalid JSON, and
    nesting too deep for the decoder, raise SerializationError."""
    try:
        data = json.loads(text, object_pairs_hook=_decode_object)
    except (ValueError, RecursionError) as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return _read_element(data, decoded=True)


# -- rendering ----------------------------------------------------------

def _coeff_str(field, raw):
    if field.e == 1:
        return str(raw)
    parts = []
    for i, c in enumerate(field.coeffs(raw)):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            base = "t" if i == 1 else f"t^{i}"
            parts.append(base if c == 1 else f"{c}{base}")
    return "(" + "+".join(parts) + ")" if len(parts) > 1 else (parts[0] if parts else "0")


def pretty_polynomial(poly: Polynomial, var: str = "x") -> str:
    if poly.is_zero():
        return "0"
    field = poly.field
    rendered = []
    for exp in _descending(poly.terms):
        c = poly.terms[exp]
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"{var}{i + 1}")
            elif e > 1:
                factors.append(f"{var}{i + 1}^{e}")
        cs = _coeff_str(field, c)
        if not factors:
            rendered.append(cs)
        elif cs == "1":
            rendered.append("*".join(factors))
        else:
            rendered.append(cs + "*" + "*".join(factors))
    return " + ".join(rendered)


def pretty(u: TensorElement, var: str = "x") -> str:
    if u.is_zero():
        return "0"
    chunks = []
    for ext in sorted(u.parts):
        poly = u.parts[ext]
        ps = pretty_polynomial(poly, var)
        if not ext:
            chunks.append(ps)
            continue
        dxs = "*".join(f"d{var}{j}" for j in ext)
        if ps == "1":
            chunks.append(dxs)
        elif " + " in ps:
            chunks.append(f"({ps})*{dxs}")
        else:
            chunks.append(f"{ps}*{dxs}")
    return " + ".join(chunks)
