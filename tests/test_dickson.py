"""Dickson classes, orbit products, and determinant forms."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from fqinv import (
    Polynomial,
    TensorElement,
    delta_poly,
    dickson_c,
    dickson_e,
    exact_divide,
    f_poly,
    gens_standard,
    index_subsets,
    is_invariant,
    mui_bracket,
    mui_det,
    mui_q,
    o_poly,
    o_prev,
    tensor_act,
    theorem_basis,
    top_form,
    transvection,
    wilkerson_phi,
)
from fqinv.errors import (
    ArityTooSmall,
    IndexOutOfRange,
    NotAnInteger,
    ProductTooLarge,
    UnknownCase,
    UnknownMethod,
)
from fqinv.milnor import milnor_composite

from conftest import ALL_FIELDS, F3, F5, F25


def x(field, n, i, power=1):
    return Polynomial.variable(field, n, i, power)


def reference_dickson_c(field, n, i):
    """c_{n,i} by the Milnor route: the composite of Q_0..Q_n that skips
    Q_i, applied to dx_1...dx_n and divided by e_n."""
    indices = tuple(j for j in range(n + 1) if j != i)
    numer = milnor_composite(indices, top_form(field, n)).polynomial_part()
    return exact_divide(numer, dickson_e(field, n))


def reference_span_product(field, N, lead, span):
    """The brute product as one running product, left to right: the same
    factors in the same order as the product routes, without grouping
    them coset by coset."""
    acc = Polynomial.one(field, N)
    for vec in product(range(field.q), repeat=len(span)):
        form = x(field, N, lead)
        for t, a in zip(span, vec):
            if a:
                form = form + x(field, N, t).scale_raw(a)
        acc = acc * form
    return acc


def product_shapes(field, max_factors):
    """(label, route result, N, lead, span) for every f_poly / o_poly /
    o_prev product route of at most max_factors factors."""
    q = field.q
    for n in range(1, 6):
        if q ** n <= max_factors:
            yield (f"f_poly({n})", f_poly(field, n, "product"),
                   n + 1, n + 1, range(1, n + 1))
        for i in range(1, n + 1):
            if q ** (n - 1) <= max_factors:
                yield (f"o_poly({n},{i})", o_poly(field, n, i),
                       n, i, range(2, n + 1))
            if q ** max(n - 2, 0) <= max_factors:
                yield (f"o_prev({n},{i})", o_prev(field, n, i),
                       n, i, range(2, n))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_span_product_matches_left_to_right_loop(field):
    labels = set()
    for label, got, N, lead, span in product_shapes(field, 27):
        assert got == reference_span_product(field, N, lead, span), label
        labels.add(label)
    # one factor: o_prev at n = 2 is x_i itself
    assert o_prev(field, 2, 2) == x(field, 2, 2)
    # a zero factor x_i - x_i: o_poly with i >= 2 collapses to 0
    assert o_poly(field, 2, 2).is_zero()
    assert {"o_prev(2,1)", "o_prev(2,2)"} <= labels
    if field.q <= 27:
        assert "o_poly(2,2)" in labels
    if field is F3:
        assert {"f_poly(1)", "o_poly(4,4)", "o_prev(5,5)"} <= labels


def test_top_class_values():
    e1 = dickson_e(F3, 1)
    assert e1 == x(F3, 1, 1)
    assert dict(dickson_e(F3, 2).terms) == {(3, 1): 1, (1, 3): 2}
    assert dict(dickson_e(F5, 2).terms) == {(5, 1): 1, (1, 5): 4}


def test_top_class_reads_n_as_an_integer():
    # 2.0 == 2 and hashes alike, so the cache must key on the type too
    assert dickson_e(F3, np.int64(2)) == dickson_e(F3, 2)
    for n in (2.0, 1.5):
        with pytest.raises(NotAnInteger):
            dickson_e(F3, n)


def test_coefficient_classes_read_integers():
    assert dickson_c(F3, np.int64(2), np.int64(1)) == dickson_c(F3, 2, 1)
    for n, i in ((2, 1.0), (2, 1.5), (2.0, 1)):
        with pytest.raises(NotAnInteger):
            dickson_c(F3, n, i)


def test_derivation_images_read_operator_indices_as_integers():
    # a truncated 0.5 would apply Q_0
    assert mui_q(F3, (np.int64(0),), 2) == mui_q(F3, (0,), 2)
    for I in ((0.5,), (0, 1.0)):
        with pytest.raises(NotAnInteger):
            mui_q(F3, I, 2)
    assert mui_q(F3, (0,), np.int64(2)) == mui_q(F3, (0,), 2)
    for n in ("2", 2.0):
        with pytest.raises(NotAnInteger):
            mui_q(F3, (0,), n)


@pytest.mark.parametrize("call, ints, plain, floats", [
    # a truncated 1.7 or 0.9 would give the class of 1 or 0
    (mui_det, (F3, (np.int64(1), 0)), (F3, (1, 0)),
     [(F3, (1.7,)), (F3, (1, 0), 2.0)]),
    (mui_bracket, (F3, np.int64(1), (np.int64(0),), np.int64(2)),
     (F3, 1, (0,), 2), [(F3, 1, (0.9,), 2), (F3, 1.0, (0,), 2),
                        (F3, 1, (0,), 2.0)]),
    (f_poly, (F3, np.int64(2)), (F3, 2), [(F3, 2.0), (F3, 1.5, "product")]),
    (o_poly, (F3, np.int64(3), np.int64(1)), (F3, 3, 1),
     [(F3, 3.0, 1), (F3, 3, 1.0, "dickson_sum")]),
    (o_prev, (F3, np.int64(3), np.int64(1)), (F3, 3, 1),
     [(F3, 3.0, 1), (F3, 3, 1.5)]),
    (delta_poly, (F3, np.int64(2)), (F3, 2), [(F3, 2.0)]),
    (top_form, (F3, np.int64(2)), (F3, 2), [(F3, 2.0)]),
    (theorem_basis, (F3, "gl", np.int64(2)), (F3, "gl", 2),
     [(F3, "sl", 2.0)]),
    (index_subsets, (np.int64(3), np.int64(2)), (3, 2), [(3.0,), (3, 1.5)]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_sizes_and_exponents_read_integers(call, ints, plain, floats):
    assert call(*ints) == call(*plain)
    for args in floats:
        with pytest.raises(NotAnInteger):
            call(*args)


def test_top_class_is_product_of_lines():
    # e_2 over F_3 carries one linear factor per line through the origin
    e2 = dickson_e(F3, 2)
    for a, b in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        line = x(F3, 2, 1).scale_raw(a) + x(F3, 2, 2).scale_raw(b)
        e2 = exact_divide(e2, line)
    assert e2.degree() == 0


def test_coefficient_classes_small():
    assert dickson_c(F3, 2, 2) == Polynomial.one(F3, 2)
    assert dickson_c(F3, 2, 0) == dickson_e(F3, 2) ** 2
    c21 = dickson_c(F3, 2, 1)
    assert c21.is_homogeneous() and c21.degree() == 6
    with pytest.raises(IndexOutOfRange):
        dickson_c(F3, 2, 3)
    with pytest.raises(ArityTooSmall):
        dickson_c(F3, 0, 0)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_coefficient_classes_match_milnor_quotient(field):
    max_n = {F3: 4, F5: 3}.get(field, 2)
    for n in range(1, max_n + 1):
        for i in range(n + 1):
            assert dickson_c(field, n, i) == \
                reference_dickson_c(field, n, i), (n, i)


def test_additive_span_polynomial_routes_agree():
    for field, n in [(F3, 1), (F3, 2), (F3, 3), (F3, 4),
                     (F5, 1), (F5, 2), (F5, 3)]:
        assert f_poly(field, n, "product") == f_poly(field, n)
    with pytest.raises(ValueError):
        f_poly(F3, 2, "nope")
    with pytest.raises(ProductTooLarge):
        f_poly(F5, 4, "product")


def test_span_product_factorization():
    # e_n * f_n agrees with the signed full composite in one extra variable
    for field, n in [(F3, 1), (F3, 2), (F5, 1)]:
        ident = {i: i for i in range(1, n + 1)}
        lhs = dickson_e(field, n).map_variables(n + 1, ident) * f_poly(field, n)
        assert lhs == delta_poly(field, n)


def test_orbit_product_routes_agree():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert o_poly(F3, n, i) == o_poly(F3, n, i, "dickson_sum")
    for field, n in [(F3, 5), (F5, 4)]:
        assert o_poly(field, n, 1) == o_poly(field, n, 1, "dickson_sum")
    # the orbit workload's witness: 125 factors against the Dickson sum
    assert wilkerson_phi(F5, 4).ok
    with pytest.raises(ProductTooLarge):
        o_poly(F5, 5, 1)
    assert not o_poly(F5, 5, 1, "dickson_sum").is_zero()


def test_unknown_methods_raise_one_typed_error():
    with pytest.raises(UnknownMethod):
        f_poly(F3, 2, "sum")
    with pytest.raises(UnknownMethod):
        o_poly(F3, 2, 1, "recursive")


def test_orbit_product_vanishes_on_span_variables():
    for i in (2, 3):
        assert o_poly(F3, 3, i).is_zero()
    assert not o_poly(F3, 3, 1).is_zero()


def test_smaller_orbit_product():
    assert o_prev(F3, 2, 1) == x(F3, 2, 1)
    # product over span(x_2) only, inside 3 variables
    expect = Polynomial.one(F3, 3)
    for a in range(3):
        expect = expect * (x(F3, 3, 1) + x(F3, 3, 2).scale_raw(a))
    assert o_prev(F3, 3, 1) == expect
    # q^(n-2) = 625 factors
    with pytest.raises(ProductTooLarge):
        o_prev(F5, 6, 1)


def test_determinant_form_small():
    assert mui_det(F3, (0,), 1) == x(F3, 1, 1)
    got = mui_det(F3, (0, 1))
    # 2x2 alternant with rows q^0, q^1
    expect = x(F3, 2, 1) * x(F3, 2, 2, 3) - x(F3, 2, 2) * x(F3, 2, 1, 3)
    assert got == expect
    assert mui_det(F3, (1, 1)).is_zero()
    with pytest.raises(ValueError):
        mui_det(F3, (0, 1), 3)


def test_bracket_form_top_and_bottom():
    # r = n: no rows, the bare top exterior class
    assert mui_bracket(F3, 2, (), 2) == top_form(F3, 2)
    # r = 0: the full determinant as a polynomial element
    got = mui_bracket(F3, 0, (0, 1), 2)
    assert got == TensorElement.from_polynomial(mui_det(F3, (0, 1)))
    with pytest.raises(ValueError):
        mui_bracket(F3, 1, (0, 1), 2)


def test_subset_enumeration_order():
    assert index_subsets(2) == [(), (0,), (1,), (0, 1)]
    assert index_subsets(3, 1) == [(), (0,), (1,), (2,)]
    assert len(index_subsets(4)) == 16


def test_module_generators_counts_and_degrees():
    basis = theorem_basis(F3, "sl", 2)
    assert len(basis) == 4
    assert basis[0] == TensorElement.one(F3, 2)
    assert [u.coh_degree() for u in basis] == [0, 2, 3, 7]
    basis = theorem_basis(F3, "gl", 2)
    assert [u.coh_degree() for u in basis] == [0, 10, 11, 15]
    with pytest.raises(UnknownCase) as info:
        theorem_basis(F3, "b", 2)
    assert isinstance(info.value, ValueError)


def test_gl_basis_over_f25_memory_stays_small():
    # 156 601 terms whose exponents reach 14 375 but take 376 values: one
    # int object per occurrence peaked at about 30.6 MB of traced memory,
    # one per distinct value in each term dict at about 16.4 MB
    tracemalloc.start()
    try:
        basis = theorem_basis(F25, "gl", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [u.coh_degree() for u in basis] == [
        0, 29949, 29950, 29998, 31198, 29999, 31199, 31247]
    assert peak < 22 * 2 ** 20


def test_gl_basis_over_f25_degrees_build_no_term_dict():
    # the products stay as the kernels' arrays and coh_degree reads them:
    # 16.4 MB of traced memory while every product built its term dict,
    # about 5.4 MB without (e_3 built afresh both times)
    dickson_e.cache_clear()
    tracemalloc.start()
    try:
        degrees = [u.coh_degree() for u in theorem_basis(F25, "gl", 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees == [0, 29949, 29950, 29998, 31198, 29999, 31199, 31247]
    assert peak < 8 * 2 ** 20


def test_dickson_classes_are_invariant():
    sl2 = gens_standard("sl", 2, F3)
    gl2 = gens_standard("gl", 2, F3)
    e2 = TensorElement.from_polynomial(dickson_e(F3, 2))
    assert is_invariant(e2, sl2)
    for i in (0, 1):
        ci = TensorElement.from_polynomial(dickson_c(F3, 2, i))
        assert is_invariant(ci, gl2)
    # e_2 itself picks up the inverse determinant under the full group
    scale = gens_standard("gl", 2, F3).generators[-1]
    det = scale.rows[0][0]
    got = tensor_act(scale, e2)
    assert got == e2.scale(F3.inv(det))


def test_derivation_images_of_top_class():
    u = mui_q(F3, (0, 1), 2)
    assert u == TensorElement.from_polynomial(dickson_e(F3, 2))
    assert mui_q(F3, (), 2) == top_form(F3, 2)
    with pytest.raises(IndexOutOfRange):
        mui_q(F3, (2,), 2)


def test_transvection_fixes_module_generators():
    t = transvection(F3, 2, 1, 2)
    for u in theorem_basis(F3, "sl", 2):
        assert tensor_act(t, u) == u
