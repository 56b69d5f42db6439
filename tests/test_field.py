"""Field construction and arithmetic."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fqinv import FieldElement, enumerate_elements, gens_standard, make_field
from fqinv import field as field_module
from fqinv.errors import (
    ArityMismatch,
    DivisionByZero,
    EvenCharacteristic,
    FieldTooLarge,
    MissingModulus,
    NotAnInteger,
    NotPrime,
    ReducibleModulus,
)

from conftest import ALL_FIELDS, F3, F5, F9, F25, F27


def test_make_field_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(EvenCharacteristic):
        make_field(2)
    with pytest.raises(FieldTooLarge):
        make_field(127)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, 4)
    with pytest.raises(MissingModulus):
        make_field(3, 2)
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [2, 0, 1])  # t^2 + 2 = (t+1)(t+2)


@pytest.mark.parametrize("modulus", [
    [1.5, 0, 1], [1.0, 0, 1], ["1", 0, 1], [1, 0, "1"], [1, None, 1]])
def test_make_field_reads_modulus_entries_as_integers(modulus):
    # int() would truncate 1.5 to 1 and give F9
    with pytest.raises(NotAnInteger):
        make_field(3, 2, modulus)


def test_make_field_accepts_numpy_integer_modulus():
    assert make_field(3, 2, np.array([1, 0, 1])) is F9
    assert make_field(3, 2, [np.int64(4), np.int8(0), np.uint16(1)]) is F9


@pytest.mark.parametrize("cached", [True, False], ids=["F3-cached", "F3-new"])
def test_make_field_reads_p_and_e_as_integers(monkeypatch, cached):
    # a bool passed as an int: make_field(3, True) gave the cached F3, or a
    # bare TypeError from numpy when F3 was new; np.int64(3) was refused
    if not cached:
        monkeypatch.setattr(field_module, "_field_cache", {})
    for args in [(3, True), (True,), (3, np.True_), (3.0,), (3, 1.0), ("3",)]:
        with pytest.raises(NotAnInteger):
            make_field(*args)
    got = make_field(np.int64(3))
    assert got == F3 and (got is F3) == cached
    assert make_field(np.int8(3), np.uint16(1)) is got
    assert (got.p, got.e) == (3, 1) and type(got.p) is int
    assert make_field(np.int64(5), np.int64(2), [3, 0, 1]) == F25


def test_make_field_caches_instances():
    assert make_field(3) is F3
    assert make_field(3, 2, [1, 0, 1]) is F9


def test_field_sizes():
    assert (F3.p, F3.e, F3.q) == (3, 1, 3)
    assert (F9.p, F9.e, F9.q) == (3, 2, 9)
    assert (F27.p, F27.e, F27.q) == (3, 3, 27)
    assert F25.q == 25


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_raw_arithmetic_laws(field, rng):
    q = field.q
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        assert field.sub(a, b) == field.add(a, field.neg(b))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f"q{f.q}")
@seed(20261018)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_field_axioms(field, data):
    raws = st.integers(0, field.q - 1)
    a, b, c = (data.draw(raws, label=name) for name in "abc")
    add, mul = field.add, field.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, field.zero) == a and mul(a, field.one) == a
    assert add(a, field.neg(a)) == field.zero
    assert field.sub(a, b) == add(a, field.neg(b))
    if a:
        assert mul(a, field.inv(a)) == field.one
        assert field.div(b, a) == mul(b, field.inv(a))
    k = data.draw(st.integers(0, 2 * field.q), label="k")
    power = field.one
    for _ in range(k):
        power = mul(power, a)
    assert field.pow_(a, k) == power
    if a:
        assert field.pow_(a, -k) == field.inv(power)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_inverses_exhaustive(field):
    for a in range(1, field.q):
        inv = field.inv(a)
        assert field.mul(a, inv) == field.one
        assert field.pow_(a, field.q - 1) == field.one
    with pytest.raises(DivisionByZero):
        field.inv(0)
    with pytest.raises(DivisionByZero):
        field.div(1, 0)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_frobenius_is_additive(field, rng):
    p = field.p
    for _ in range(100):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        lhs = field.pow_(field.add(a, b), p)
        rhs = field.add(field.pow_(a, p), field.pow_(b, p))
        assert lhs == rhs


def test_pow_handles_zero_and_negative_exponents():
    assert F9.pow_(5, 0) == F9.one
    a = 7
    assert F9.mul(F9.pow_(a, -1), a) == F9.one
    assert F9.pow_(a, -2) == F9.inv(F9.mul(a, a))


def test_enumerate_elements_counts():
    for field in (F3, F9, F27):
        els = list(enumerate_elements(field))
        assert len(els) == field.q
        assert len({el.raw for el in els}) == field.q
        assert all(isinstance(el, FieldElement) for el in els)


def test_element_coercion_prime_subfield():
    # ints always mean prime-subfield residues, in every representation
    assert F9.element(5).raw == F9.element(2).raw == 2
    assert F3.element(-1).raw == 2
    a = F9.element([1, 2])  # 1 + 2t
    assert a.coeffs == (1, 2)
    assert F9.element(a) == a


def test_element_equals_only_its_canonical_int():
    a = F5.element(3)
    assert a == 3 and a != 8 and a != -2
    assert len({a, 3}) == 1 and len({a, 8}) == 2
    assert F9.from_raw(3) != 3 and F9.from_raw(3) != 0
    for field in ALL_FIELDS:
        for el in enumerate_elements(field):
            for k in range(-field.q, 2 * field.q):
                if el == k:
                    assert k == el.raw < field.p
                    assert hash(el) == hash(k)


def test_element_operator_algebra():
    a = F9.element([1, 1])
    b = F9.element([0, 2])
    assert (a + b).coeffs == (1, 0)
    assert (a - a).is_zero()
    assert (a * a.inverse()) == F9.element(1)
    assert (-a) + a == F9.element(0)
    assert a ** (F9.q - 1) == F9.element(1)
    assert 1 - F3.element(2) == F3.element(2)
    assert 2 / F3.element(2) == F3.element(1)


def test_extension_modulus_is_respected():
    # in F9 = F3[t]/(t^2+1) the generator squares to -1
    t = F9.from_raw(3)
    assert (t * t).coeffs == (2, 0)
    # in F27 = F3[t]/(t^3+2t+2) the generator cubes to t+1
    t = F27.from_raw(3)
    assert (t * t * t).coeffs == (1, 1, 0)


def test_mixed_field_operations_are_rejected():
    from fqinv.errors import FieldMismatch

    with pytest.raises(FieldMismatch):
        F3.element(1) + F9.element(1)


def test_too_many_coordinates_is_typed():
    assert F9.element([1, 2]).coeffs == (1, 2)
    for field, coords in [(F3, [1, 1]), (F9, [1, 2, 0]), (F27, [0, 0, 0, 1])]:
        with pytest.raises(ArityMismatch) as info:
            field.element(coords)
        assert isinstance(info.value, ValueError)


# -- the table arithmetic against the per-digit and polynomial oracles -----

ODD_PRIMES = [p for p in range(3, 114) if all(p % d for d in range(2, p))]
TABLE_FIELDS = ALL_FIELDS + [make_field(p) for p in ODD_PRIMES
                             if p not in (3, 5)]


def reference_digits(field, a):
    out = []
    for _ in range(field.e):
        a, c = divmod(a, field.p)
        out.append(c)
    return out


def reference_add(field, a, b):
    """Sum digit by digit mod p."""
    p = field.p
    return sum((x + y) % p * p ** k for k, (x, y) in enumerate(
        zip(reference_digits(field, a), reference_digits(field, b))))


def reference_neg(field, a):
    p = field.p
    return sum(-x % p * p ** k
               for k, x in enumerate(reference_digits(field, a)))


def reference_mul(field, a, b):
    """Schoolbook product of the coordinate polynomials, reduced by the
    monic modulus."""
    p, e = field.p, field.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(reference_digits(field, a)):
        for j, y in enumerate(reference_digits(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * e - 2, e - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(e):
            prod[i - e + j] = (prod[i - e + j] - c * field.modulus[j]) % p
    return sum(c * p ** k for k, c in enumerate(prod[:e]))


def reference_powers(field, a, top):
    """[a^0, ..., a^top] by repeated products."""
    out = [1]
    for _ in range(top):
        out.append(reference_mul(field, out[-1], a))
    return out


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_tables_match_reference_arithmetic(field):
    q = field.q
    for a in range(q):
        assert field.neg(a) == reference_neg(field, a)
        for b in range(q):
            assert field.add(a, b) == reference_add(field, a, b)
            assert field.sub(a, b) == \
                reference_add(field, a, reference_neg(field, b))
            assert field.mul(a, b) == reference_mul(field, a, b)
        powers = reference_powers(field, a, 2 * q + 1)
        if a:
            inv = field.inv(a)
            assert reference_mul(field, a, inv) == 1
        for k in (-q, -1, 0, 1, q - 1, q, 2 * q + 1):
            if k >= 0:
                assert field.pow_(a, k) == powers[k], (a, k)
            elif a:
                assert reference_mul(field, field.pow_(a, k), powers[-k]) == 1
            else:
                with pytest.raises(DivisionByZero):
                    field.pow_(a, k)


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_gl_diagonal_uses_least_raw_of_order_q_minus_1(field):
    q = field.q
    least = next(a for a in range(1, q)
                 if reference_powers(field, a, q - 1).index(1, 1) == q - 1)
    diag = gens_standard("gl", 2, field).generators[-1]
    assert diag.rows == ((least, 0), (0, 1))
    assert field.primitive == least
