"""Acceptance gate: ten end-to-end criteria, one reported line each.

Every criterion asserts exact equalities (no numeric tolerance anywhere)
and a wall-clock budget.  Run with plain pytest; the one-line verdicts
are printed outside the capture so they always reach the terminal.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from fqinv import (
    Polynomial,
    TensorElement,
    act,
    case_elements,
    case_group,
    delta_poly,
    dickson_c,
    dickson_e,
    f_poly,
    from_json,
    gens_case,
    gens_standard,
    gl_order,
    group_order_bfs,
    index_subsets,
    is_invariant,
    module_description,
    mui_bracket,
    mui_det,
    mui_q,
    o_poly,
    o_prev,
    parse_case,
    sl_order,
    tensor_act,
    theorem_basis,
    to_json,
    top_form,
    verify_module,
    wilkerson_check,
    wilkerson_phi,
)
from fqinv.errors import CapExceeded
from fqinv.field import make_field
from fqinv.milnor import (
    apply_sequence,
    milnor_composite,
    milnor_q,
    script_d,
    sign,
)

from conftest import (
    F3,
    F5,
    F9,
    F25,
    F27,
    F125,
    elements_digest,
    random_invertible,
    random_tensor,
)
from test_dickson import reference_dickson_c

# elements_digest of case_elements("e8_5a") (18 MB of JSON), pinned here
# because this criterion already builds those elements
E8_5A_ELEMENTS_SHA256 = \
    "d78941daa2b5d54dd4e9def0f8fb438bdc0584d36bce61e3b9eabe77c3d781b3"


@contextmanager
def criterion(capfd, num, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        took = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {num} ({title}): FAIL ({took:.1f}s)")
        raise
    took = time.perf_counter() - start
    within = budget is None or took < budget
    status = "PASS" if within else "FAIL (over budget)"
    timing = f"{took:.1f}s" + (f", budget {budget}s" if budget else "")
    with capfd.disabled():
        print(f"criterion {num} ({title}): {status} ({timing})")
    assert within, f"criterion {num} took {took:.1f}s, budget {budget}s"


def embed(poly, new_n, shift=0):
    return poly.map_variables(
        new_n, {i: i + shift for i in range(1, poly.n + 1)})


def test_criterion_1_dickson_coefficient_identities(capfd):
    with criterion(capfd, 1, "Dickson coefficient identities", budget=60):
        for n, q in ((1, 3), (2, 3), (3, 3), (2, 5), (3, 5)):
            field = make_field(q)
            e = dickson_e(field, n)
            f = f_poly(field, n)
            if (n, q) != (3, 5):
                assert f == f_poly(field, n, method="product")

            # top orbit form factors as e_n times the one-variable form
            assert embed(e, n + 1) * f == delta_poly(field, n)

            # coefficient expansion of the one-variable form, with the
            # coefficients by the Milnor route: dickson_c reads them off f
            total = Polynomial.zero(field, n + 1)
            for i in range(n + 1):
                coeff = (Polynomial.one(field, n + 1) if i == n
                         else embed(reference_dickson_c(field, n, i), n + 1))
                term = coeff * Polynomial.variable(
                    field, n + 1, n + 1, q ** i)
                total = total + (-term if (n - i) & 1 else term)
            assert total == f
            assert dickson_c(field, n, n) == Polynomial.one(field, n)

            # bottom coefficient is a power of the top form
            assert dickson_c(field, n, 0) == e ** (q - 1)

            # dropping the last variable
            assert e.project(n) == Polynomial.zero(field, n)
            for i in range(1, n):
                assert dickson_c(field, n, i).project(n) == \
                    embed(dickson_c(field, n - 1, i - 1), n) ** q


def test_criterion_2_determinant_class_expansions(capfd):
    with criterion(capfd, 2, "determinant class expansions", budget=30):
        # polynomial alternants against operation sequences, all index
        # lists (repeats included: both sides vanish)
        for k in (1, 2, 3):
            top = top_form(F3, k)
            swap = (-1) ** (k * (k - 1) // 2)
            for i_list in itertools.product(range(4), repeat=k):
                det = TensorElement.from_polynomial(mui_det(F3, i_list, k))
                assert det == apply_sequence(reversed(i_list), top)
                other = apply_sequence(i_list, top)
                assert det == (-other if swap < 0 else other)

        # mixed classes with r exterior factors left in place
        for n in (1, 2, 3):
            top = top_form(F3, n)
            for r in range(n + 1):
                k = n - r
                s1 = (-1) ** (k * r)
                s2 = (-1) ** (k * r + k * (k - 1) // 2)
                for i_list in itertools.product(range(4), repeat=k):
                    lhs = mui_bracket(F3, r, i_list, n)
                    a = apply_sequence(reversed(i_list), top)
                    b = apply_sequence(i_list, top)
                    assert lhs == (-a if s1 < 0 else a)
                    assert lhs == (-b if s2 < 0 else b)


def test_criterion_3_operation_algebra_laws(capfd):
    with criterion(capfd, 3, "operation algebra laws", budget=60):
        rng = random.Random(1003)
        subsets = list(index_subsets(4))

        for _ in range(500):  # signed product rule
            n = rng.randint(1, 4)
            parity = rng.randint(0, 1)
            u = random_tensor(rng, F3, n, max_terms=3, max_exp=4,
                              ext_parity=parity)
            v = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
            i = rng.randint(0, 3)
            rhs = milnor_q(i, u) * v + (u * milnor_q(i, v)).scale(
                -1 if parity else 1)
            assert milnor_q(i, u * v) == rhs

        for _ in range(500):  # squares vanish
            n = rng.randint(1, 4)
            u = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
            i = rng.randint(0, 3)
            assert milnor_q(i, milnor_q(i, u)) == TensorElement.zero(F3, n)

        for _ in range(500):  # distinct operations anticommute
            n = rng.randint(1, 4)
            u = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
            i, j = rng.sample(range(4), 2)
            assert milnor_q(i, milnor_q(j, u)) == \
                -milnor_q(j, milnor_q(i, u))

        for _ in range(500):  # merging composites picks up the shuffle sign
            n = rng.randint(1, 4)
            u = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
            I = rng.choice(subsets)
            J = rng.choice(subsets)
            s = sign(I, J)
            lhs = milnor_composite(I, milnor_composite(J, u))
            if s == 0:
                assert lhs == TensorElement.zero(F3, n)
            else:
                merged = tuple(sorted(I + J))
                assert lhs == milnor_composite(merged, u).scale(s)

        for _ in range(500):  # operations commute with the group action
            n = rng.randint(1, 4)
            u = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
            g = random_invertible(rng, F3, n)
            i = rng.randint(0, 3)
            assert tensor_act(g, milnor_q(i, u)) == \
                milnor_q(i, tensor_act(g, u))


def test_criterion_4_orbit_product_identities(capfd):
    with criterion(capfd, 4, "orbit product identities", budget=60):
        rng = random.Random(1004)
        q = 3
        for n in (2, 3, 4):
            # both routes to the orbit products agree
            for i in range(1, n + 1):
                assert o_poly(F3, n, i) == \
                    o_poly(F3, n, i, method="dickson_sum")
            if n >= 3:
                for i in range(1, n + 1):
                    total = Polynomial.zero(F3, n)
                    for j in range(n - 1):
                        coeff = embed(dickson_c(F3, n - 2, j), n, shift=1)
                        term = coeff * Polynomial.variable(F3, n, i, q ** j)
                        total = total + (-term if (n - 2 - j) & 1 else term)
                    assert o_prev(F3, n, i) == total
            else:
                assert o_prev(F3, 2, 1) == Polynomial.variable(F3, 2, 1)

            # top Dickson form splits off the shorter orbit product
            if n == 2:
                assert embed(dickson_e(F3, 1), 2) == \
                    Polynomial.variable(F3, 2, 1)
            else:
                rest = embed(dickson_e(F3, n - 2), n, shift=1)
                assert embed(dickson_e(F3, n - 1), n) == \
                    o_prev(F3, n, 1) * rest

            # dropping the last variable
            assert o_poly(F3, n, 1).project(n) == o_prev(F3, n, 1) ** q
            assert embed(dickson_e(F3, n - 1), n, shift=1).project(n) == \
                Polynomial.zero(F3, n)

            # the weighted operation sum reproduces the orbit products
            d1 = script_d(TensorElement.dx(F3, n, (1,)))
            assert d1 == TensorElement.from_polynomial(o_poly(F3, n, 1))
            for i in range(2, n + 1):
                assert script_d(TensorElement.dx(F3, n, (i,))) == \
                    TensorElement.zero(F3, n)

            # equivariance under block matrices fixing x_1
            for _ in range(5):
                block = random_invertible(rng, F3, n - 1)
                rows = [[1] + [0] * (n - 1)]
                for r in block.rows:
                    rows.append([0] + list(r))
                from fqinv import GroupMatrix
                g = GroupMatrix(F3, rows)
                a = random_tensor(rng, F3, n, max_terms=3, max_exp=4)
                assert script_d(tensor_act(g, a)) == \
                    tensor_act(g, script_d(a))


def test_criterion_5_classical_linear_group_modules(capfd):
    with criterion(capfd, 5, "classical linear group modules", budget=600):
        for label, d_max in (("sl(2,3)", 40), ("gl(2,3)", 40),
                             ("sl(3,3)", 30)):
            rep = verify_module(label, d_max)
            assert rep.ok, label
            assert len(rep.rows) == d_max + 1
        for kind, n in (("sl", 2), ("gl", 2), ("sl", 3)):
            pres = gens_standard(kind, n, F3)
            for u in theorem_basis(F3, kind, n):
                assert is_invariant(u, pres)


def test_criterion_6_transvection_group_module(capfd):
    with criterion(capfd, 6, "transvection group module", budget=120):
        rep = verify_module("g0(3,3)", 20)
        assert rep.ok
        assert len(rep.rows) == 21
        orbit = TensorElement.from_polynomial(o_poly(F3, 3, 1))
        assert is_invariant(orbit, gens_case("g0", F3, 3))


def test_criterion_7_named_reflection_group_modules(capfd):
    with criterion(capfd, 7, "named reflection group modules", budget=1800):
        for label, d_max in (("f4_3", 30), ("e6_4", 27), ("e7_4", 24),
                             ("e8_5a", 12), ("e8_p5_3", 61)):
            rep = verify_module(label, d_max)
            assert rep.ok, label
            assert len(rep.rows) == d_max + 1
            assert all(flag for _, flag in rep.invariance), label

        # explicit generator and basis invariance for the two widest rings
        for label in ("f4_3", "e8_p5_3", "e8_5a"):
            case = parse_case(label)
            pres = case_group(case)
            ring, basis = case_elements(case)
            if label == "e8_5a":
                # names and JSON forms, as the per-kind builders made them
                assert elements_digest(ring, basis) == E8_5A_ELEMENTS_SHA256
            for name, el in ring + basis:
                assert is_invariant(el, pres), (label, name)
            desc = module_description(case)
            assert sorted(el.coh_degree() for _, el in basis) == \
                sorted(desc.basis_degrees), label
            assert [el.coh_degree() for _, el in ring] == \
                list(desc.algebra_gen_degrees), label

        # the order-two diagonal negates the determinant classes and the
        # orbit product, so their pairwise products are fixed
        alpha = next(g for g in case_group(parse_case("e7_4")).generators
                     if g.rows == ((2, 0, 0, 0), (0, 1, 0, 0),
                                   (0, 0, 1, 0), (0, 0, 0, 1)))
        orbit = TensorElement.from_polynomial(o_poly(F3, 4, 1))
        assert act(alpha, orbit) == -orbit
        for I in index_subsets(4, 3):
            cls = mui_q(F3, I, 4)
            assert act(alpha, cls) == -cls
            assert act(alpha, orbit * cls) == orbit * cls


def test_criterion_8_degree_product_and_vanishing_witness(capfd):
    with criterion(capfd, 8, "degree product and vanishing witness",
                   budget=10):
        expected = {
            "sl(2,3)": 24, "sl(3,3)": 5616, "gl(2,3)": 48,
            "g0(3,3)": 9, "e6_4": 151632,
        }
        for label, order in expected.items():
            rep = wilkerson_check(label)
            assert rep.ok, label
            assert rep.degree_product == order == rep.group_order
        rep = wilkerson_check("e6_4")
        assert tuple(sorted(rep.half_degrees)) == (13, 18, 24, 27)
        assert 13 * 18 * 24 * 27 == 151632
        for n in (2, 3):
            witness = wilkerson_phi(F3, n)
            assert witness.monic
            assert witness.coefficients_match
            assert witness.vanishes


def test_criterion_9_group_orders_by_enumeration(capfd):
    with criterion(capfd, 9, "group orders by enumeration", budget=300):
        standard = [
            ("sl", 2, F3), ("gl", 2, F3), ("sl", 3, F3), ("gl", 3, F3),
            ("sl", 2, F5), ("gl", 2, F5), ("sl", 3, F5),
            ("sl", 2, F9), ("gl", 2, F9),
        ]
        for kind, n, field in standard:
            pres = gens_standard(kind, n, field)
            formula = (sl_order if kind == "sl" else gl_order)(n, field.q)
            assert formula <= 10 ** 6
            assert group_order_bfs(pres) == formula == pres.order

        named = [
            ("g0(3,3)", 9), ("g0(4,3)", 27), ("parabolic(3,3)", 216),
            ("parabolic(4,3)", 151632), ("f4_3", 5616), ("e6_4", 151632),
            ("e7_4", 303264), ("e8_p5_3", 372000),
        ]
        for label, order in named:
            pres = case_group(parse_case(label))
            assert group_order_bfs(pres) == order == pres.order, label

        # the widest presentation exceeds the enumeration cap
        with pytest.raises(CapExceeded):
            group_order_bfs(case_group(parse_case("e8_5a")))


def test_criterion_10_serialization_round_trip(capfd):
    with criterion(capfd, 10, "serialization round trip"):
        rng = random.Random(1010)
        fields = (F3, F5, F9, F25, F27, F125)
        for k in range(1000):
            field = fields[k % len(fields)]
            n = rng.randint(1, 4)
            u = random_tensor(rng, field, n, max_terms=5, max_exp=9)
            text = to_json(u)
            back = from_json(text)
            assert back == u
            assert to_json(back) == text
