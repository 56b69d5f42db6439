"""Matrix groups: arithmetic, presentations, orders, invariance."""

import pytest

from fqinv import (
    GroupMatrix,
    Polynomial,
    TensorElement,
    act,
    diagonal,
    dickson_c,
    gens_case,
    gens_standard,
    gl_order,
    group_order_bfs,
    is_invariant,
    sl_order,
    transvection,
)
from fqinv.errors import (
    ArityMismatch,
    CapExceeded,
    FqinvError,
    SingularMatrix,
    UnknownCase,
)

from conftest import F3, F5, F9, random_invertible


def test_elementary_matrices():
    t = transvection(F3, 3, 1, 3, 2)
    assert t.rows == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    d = diagonal(F3, [2, 1])
    assert d.rows == ((2, 0), (0, 1))
    with pytest.raises(ValueError):
        transvection(F3, 2, 1, 1)


@pytest.mark.parametrize("rows", [[[1, 0], [0]], [[1, 0, 0], [0, 1, 0]],
                                  [[1], [0]]], ids=str)
def test_non_square_matrix_raises_arity_mismatch(rows):
    with pytest.raises(ArityMismatch) as info:
        GroupMatrix(F3, rows)
    assert isinstance(info.value, FqinvError)
    assert isinstance(info.value, ValueError)


def test_matrix_product_and_inverse(rng):
    for field in (F3, F9):
        for _ in range(25):
            g = random_invertible(rng, field, 3)
            h = random_invertible(rng, field, 3)
            ident = diagonal(field, [1, 1, 1])
            assert (g * g.inverse()).rows == ident.rows
            assert ((g * h).inverse()).rows == (h.inverse() * g.inverse()).rows


def test_singular_matrix_has_no_inverse():
    g = GroupMatrix(F3, [[1, 2], [2, 1]])  # rows proportional
    with pytest.raises(SingularMatrix):
        g.inverse_rows()


def test_integer_entries_mean_prime_residues():
    g = GroupMatrix(F9, [[4, 0], [0, 1]])
    assert g.rows[0][0] == 1
    h = GroupMatrix.from_raw_rows(F9, ((4, 0), (0, 1)))
    assert h.rows[0][0] == 4  # raw value kept verbatim


def test_extension_entries_survive_products():
    t = F9.from_raw(3)
    g = GroupMatrix(F9, [[t, 0], [0, 1]])
    sq = g * g
    assert sq.rows[0][0] == (t * t).raw
    assert (g * g.inverse()).rows == ((1, 0), (0, 1))


def test_order_formulas():
    assert gl_order(2, 3) == 48
    assert sl_order(2, 3) == 24
    assert sl_order(3, 3) == 5616
    assert sl_order(2, 9) == 720
    assert gl_order(3, 5) == 372000 * 4


def test_standard_generators():
    sl2 = gens_standard("sl", 2, F3)
    assert sl2.order == 24 and len(sl2.generators) == 2
    gl2 = gens_standard("gl", 2, F3)
    assert gl2.order == 48 and len(gl2.generators) == 3
    assert gl2.generators[-1].rows == ((2, 0), (0, 1))
    sl1 = gens_standard("sl", 1, F3)
    assert sl1.order == 1
    sl29 = gens_standard("sl", 2, F9)
    assert sl29.order == 720 and len(sl29.generators) == 4


def test_case_presentations():
    table = {
        "g0": (3, F3, 2, 9),
        "parabolic": (3, F3, 4, 216),
        "f4_3": (3, F3, 6, 5616),
        "e6_4": (4, F3, 5, 151632),
        "e7_4": (4, F3, 6, 303264),
        "e8_5a": (5, F3, 8, 1819584),
        "e8_p5_3": (3, F5, 6, 372000),
    }
    for label, (n, field, k, order) in table.items():
        if label in ("g0", "parabolic"):
            pres = gens_case(label, field, n)
        else:
            pres = gens_case(label)
        assert pres.n == n
        assert pres.field is field
        assert len(pres.generators) == k
        assert pres.order == order
    with pytest.raises(UnknownCase):
        gens_case("e9_4")


def test_bfs_orders_match_formulas():
    assert group_order_bfs(gens_standard("sl", 2, F3)) == 24
    assert group_order_bfs(gens_standard("gl", 2, F3)) == 48
    assert group_order_bfs(gens_case("g0", F3, 3)) == 9
    assert group_order_bfs(gens_standard("sl", 2, F9)) == 720


def test_bfs_cap_is_enforced():
    with pytest.raises(CapExceeded):
        group_order_bfs(gens_standard("sl", 2, F3), cap=10)


def test_act_applies_contragredient_substitution():
    g = GroupMatrix(F3, [[0, 1], [1, 0]])
    u = TensorElement.from_polynomial(Polynomial.variable(F3, 2, 1))
    assert act(g, u) == TensorElement.from_polynomial(
        Polynomial.variable(F3, 2, 2))


def test_is_invariant_accepts_presentations_and_lists():
    gl2 = gens_standard("gl", 2, F3)
    c0 = TensorElement.from_polynomial(dickson_c(F3, 2, 0))
    assert is_invariant(c0, gl2)
    assert is_invariant(c0, list(gl2.generators))
    x1 = TensorElement.from_polynomial(Polynomial.variable(F3, 2, 1))
    assert not is_invariant(x1, gl2)


def test_row_translation_block_fixes_first_variable():
    pres = gens_case("g0", F3, 3)
    x1 = TensorElement.from_polynomial(Polynomial.variable(F3, 3, 1))
    x2 = TensorElement.from_polynomial(Polynomial.variable(F3, 3, 2))
    # the group translates x_1 by span(x_2,x_3) and fixes x_2, x_3
    assert not is_invariant(x1, pres)
    assert is_invariant(x2, pres)


def test_diagonal_scalings_in_weyl_cases():
    e7 = gens_case("e7_4")
    alpha = e7.generators[-1]
    assert alpha.rows == ((2, 0, 0, 0), (0, 1, 0, 0),
                          (0, 0, 1, 0), (0, 0, 0, 1))
    e8 = gens_case("e8_5a")
    beta = e8.generators[-1]
    assert beta.rows[4][4] == 2
