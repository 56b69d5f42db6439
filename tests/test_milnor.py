"""Derivation laws for the odd operations Q_j and their composites."""

import numpy as np
import pytest

from fqinv import (
    Polynomial,
    TensorElement,
    apply_sequence,
    extract_basis_coefficient,
    milnor_composite,
    milnor_q,
    mui_q,
    o_poly,
    script_d,
    sign,
    tensor_act,
)
from fqinv.errors import DegreeMismatch, IndexOutOfRange, NotAnInteger

from conftest import F3, F9, random_invertible, random_polynomial, random_tensor


def x(field, n, i, power=1):
    return Polynomial.variable(field, n, i, power)


def dx(field, n, *indices):
    return TensorElement.dx(field, n, indices)


def test_action_on_generators():
    assert milnor_q(0, dx(F3, 2, 1)) == TensorElement.from_polynomial(x(F3, 2, 1))
    assert milnor_q(1, dx(F3, 2, 1)) == TensorElement.from_polynomial(x(F3, 2, 1, 3))
    assert milnor_q(2, dx(F9, 2, 2)) == \
        TensorElement.from_polynomial(x(F9, 2, 2, 81))
    poly = TensorElement.from_polynomial(x(F3, 2, 1) * x(F3, 2, 2))
    assert milnor_q(0, poly).is_zero()
    with pytest.raises(IndexOutOfRange):
        milnor_q(-1, dx(F3, 2, 1))


def test_composite_reads_operator_indices_as_integers():
    # a truncated 0.5 would apply Q_0
    assert milnor_composite((np.int64(0),), dx(F3, 2, 1)) == \
        milnor_q(0, dx(F3, 2, 1))
    for I in ((0.5,), (0, 1.0), ("0",)):
        with pytest.raises(NotAnInteger):
            milnor_composite(I, dx(F3, 2, 1, 2))
        with pytest.raises(NotAnInteger):
            sign(I, ())
    assert milnor_q(np.int64(1), dx(F3, 2, 1)) == milnor_q(1, dx(F3, 2, 1))
    for j in (1.0, "1", None):
        with pytest.raises(NotAnInteger, match="operator index"):
            milnor_q(j, dx(F3, 2, 1))


def test_polynomial_coefficients_pass_through(rng):
    for _ in range(50):
        p = random_polynomial(rng, F3, 3)
        u = random_tensor(rng, F3, 3)
        pu = TensorElement.from_polynomial(p) * u
        assert milnor_q(1, pu) == TensorElement.from_polynomial(p) * milnor_q(1, u)


def test_product_rule_with_parity_sign(rng):
    for _ in range(60):
        ru = rng.randrange(2)
        u = random_tensor(rng, F3, 3, ext_parity=ru)
        v = random_tensor(rng, F3, 3)
        j = rng.randrange(3)
        lhs = milnor_q(j, u * v)
        rhs = milnor_q(j, u) * v + (-1) ** ru * (u * milnor_q(j, v))
        assert lhs == rhs


def test_square_zero_and_anticommutation(rng):
    for _ in range(60):
        u = random_tensor(rng, F3, 4)
        i, j = rng.randrange(4), rng.randrange(4)
        assert milnor_q(i, milnor_q(i, u)).is_zero()
        lhs = milnor_q(i, milnor_q(j, u))
        rhs = milnor_q(j, milnor_q(i, u))
        assert lhs == -rhs if i != j else lhs == rhs


def test_composite_convention_rightmost_first():
    u = dx(F3, 2, 1, 2)
    assert milnor_composite((0, 1), u) == milnor_q(0, milnor_q(1, u))
    with pytest.raises(ValueError):
        milnor_composite((1, 0), u)
    with pytest.raises(ValueError):
        milnor_composite((0, 0), u)


def test_merge_sign_values():
    assert sign((0,), (1,)) == 1
    assert sign((1,), (0,)) == -1
    assert sign((0, 2), (1, 3)) == -1
    assert sign((0, 1), (0, 2)) == 0  # overlap
    assert sign((), (0, 1)) == 1


def test_composites_merge_with_sign(rng):
    for _ in range(40):
        n = rng.randrange(2, 5)
        pool = list(range(n))
        rng.shuffle(pool)
        cut = rng.randrange(len(pool) + 1)
        I = tuple(sorted(pool[:cut]))
        J = tuple(sorted(pool[cut:]))
        u = random_tensor(rng, F3, n)
        lhs = milnor_composite(I, milnor_composite(J, u))
        s = sign(I, J)
        K = tuple(sorted(I + J))
        rhs = milnor_composite(K, u).scale(s)
        assert lhs == rhs


def test_overlapping_composites_vanish(rng):
    for _ in range(20):
        u = random_tensor(rng, F3, 3)
        assert milnor_composite((0, 1), milnor_composite((1, 2), u)).is_zero()


def test_action_equivariance(rng):
    for _ in range(40):
        n = rng.randrange(2, 5)
        u = random_tensor(rng, F3, n)
        g = random_invertible(rng, F3, n)
        j = rng.randrange(3)
        assert tensor_act(g, milnor_q(j, u)) == milnor_q(j, tensor_act(g, u))


def test_twisted_combination_on_generators():
    for n in (2, 3):
        for i in range(1, n + 1):
            got = script_d(dx(F3, n, i))
            want = TensorElement.from_polynomial(o_poly(F3, n, i))
            assert got == want
            if i >= 2:
                assert got.is_zero()


def test_coefficient_extraction_inverts_combinations(rng):
    n = 3
    one = Polynomial.one(F3, n)
    for _ in range(25):
        I = tuple(sorted(rng.sample(range(n), rng.randrange(n + 1))))
        p = random_polynomial(rng, F3, n, max_terms=3)
        a = TensorElement.from_polynomial(p) * mui_q(F3, I, n)
        if a.is_zero():
            continue
        num, den = extract_basis_coefficient(a, I)
        assert den == one
        assert num == p


def test_coefficient_extraction_rejects_mixed_degrees():
    a = dx(F3, 2, 1) + dx(F3, 2, 1, 2)
    with pytest.raises(DegreeMismatch):
        extract_basis_coefficient(a, (0,))
    with pytest.raises(DegreeMismatch):
        extract_basis_coefficient(dx(F3, 2, 1), (0, 1))
