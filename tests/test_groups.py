"""Matrix groups: arithmetic, presentations, orders, invariance."""

import itertools
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

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
from fqinv import groups
from fqinv.errors import (
    ArityMismatch,
    ArityTooSmall,
    BadIndexTuple,
    CapExceeded,
    CaseFieldMismatch,
    FieldMismatch,
    FqinvError,
    InvalidCap,
    NotAnInteger,
    SingularMatrix,
    UnknownCase,
)
from fqinv.fixedpoint import _KINDS, Case, case_group, parse_case

from conftest import ALL_FIELDS, F3, F5, F9, F25, random_invertible

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_elementary_matrices():
    t = transvection(F3, 3, 1, 3, 2)
    assert t.rows == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    d = diagonal(F3, [2, 1])
    assert d.rows == ((2, 0), (0, 1))
    with pytest.raises(BadIndexTuple) as info:
        transvection(F3, 2, 1, 1)
    assert isinstance(info.value, ValueError)


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
    # Over a prime field a small SL_m set is one transvection and one
    # m-cycle.  g0 translates x1 by x2 and by x3; parabolic keeps the
    # translation by x2 under its SL_2 block; the Weyl rows keep it and the
    # translation by x5 (e8_5a), under the SL_3 block, then one reflection
    # per reflected variable (none, x1, and x1 and x5).
    table = {
        "g0": (3, F3, 2, 9),
        "parabolic": (3, F3, 1 + 2, 216),
        "f4_3": (3, F3, 2, 5616),
        "e6_4": (4, F3, 1 + 2, 151632),
        "e7_4": (4, F3, 1 + 2 + 1, 303264),
        "e8_5a": (5, F3, 2 + 2 + 2, 1819584),
        "e8_p5_3": (3, F5, 2, 372000),
    }
    for label, (n, field, k, order) in table.items():
        if label in ("g0", "parabolic"):
            pres = gens_case(label, field, n)
        else:
            pres = gens_case(label)
        assert pres.label == label and pres.n == n
        assert pres.field is field
        assert len(pres.generators) == k
        assert pres.order == order
    with pytest.raises(UnknownCase):
        gens_case("e9_4")
    for label in ("sl", "gl"):  # gens_standard builds these
        with pytest.raises(UnknownCase):
            gens_case(label, F3, 2)
    with pytest.raises(CaseFieldMismatch):
        gens_case("f4_3", F5)
    with pytest.raises(CaseFieldMismatch):
        gens_case("e6_4", n=3)
    with pytest.raises(ArityTooSmall):
        gens_case("g0", F3, 1)


@pytest.mark.parametrize("label", ["g0", "parabolic"])
@pytest.mark.parametrize("field, n", [(None, 3), (F3, None), (None, None)],
                         ids=["no field", "no n", "neither"])
def test_parameterized_case_needs_field_and_n(label, field, n):
    with pytest.raises(CaseFieldMismatch) as info:
        gens_case(label, field, n)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("field", (F3, F5), ids=repr)
def test_small_sl3_set_over_a_prime_field(field):
    t, c = groups._sl_small(field, 3)
    assert t.rows == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert c.rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def case_rows():
    """Every case row: the families at n <= 4 over the six conftest fields
    wherever the formula order is at most 10^6, and the named rows."""
    for kind in ("sl", "gl", "g0", "parabolic"):
        for n, field in itertools.product(range(1, 5), ALL_FIELDS):
            case = Case(f"{kind}({n},{field.q})", kind, field, n)
            if n >= _KINDS[kind].min_n and case_group(case).order <= 10 ** 6:
                yield case
    for label in ("f4_3", "e6_4", "e7_4", "e8_5a", "e8_p5_3"):
        yield parse_case(label)


@pytest.mark.parametrize("case", case_rows(), ids=lambda case: case.label)
def test_case_generators_reach_the_formula_order(case):
    # the generators lie in the group the formula counts, so reaching its
    # order proves that they generate it
    pres = case_group(case)
    assert group_order_bfs(pres, cap=2 * 10 ** 6) == pres.order
    # `act --generator 0` applies x1 -> x1 + x2, or sl(1,q)'s and gl(1,q)'s
    # only standard generator
    if case.n > 1:
        assert pres.generators[0] == transvection(case.field, case.n, 1, 2)
    else:
        assert pres.generators == gens_standard(case.kind, 1,
                                                case.field).generators


def test_bfs_orders_match_formulas():
    assert group_order_bfs(gens_standard("sl", 2, F3)) == 24
    assert group_order_bfs(gens_standard("gl", 2, F3)) == 48
    assert group_order_bfs(gens_case("g0", F3, 3)) == 9
    assert group_order_bfs(gens_standard("sl", 2, F9)) == 720


def test_bfs_cap_is_enforced():
    with pytest.raises(CapExceeded):
        group_order_bfs(gens_standard("sl", 2, F3), cap=10)


@pytest.mark.parametrize("gens", [[], gens_standard("sl", 2, F3)],
                         ids=["no-generators", "sl(2,3)"])
@pytest.mark.parametrize("cap", [0, -5])
def test_bfs_rejects_a_cap_below_one(gens, cap):
    # checked before the trivial group's early return, and never reported
    # as an overflow
    with pytest.raises(InvalidCap) as info:
        group_order_bfs(gens, cap=cap)
    assert isinstance(info.value, FqinvError)
    assert isinstance(info.value, ValueError)
    assert group_order_bfs([], cap=1) == 1


def reference_bfs(gens, cap):
    """Breadth-first closure by one GroupMatrix product at a time."""
    ident = GroupMatrix.identity(gens[0].field, gens[0].n)
    visited = {ident.rows}
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in gens:
            w = m * g
            if w.rows not in visited:
                visited.add(w.rows)
                if len(visited) > cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                queue.append(w)
    return len(visited)


def generator_pool(field, n):
    """The gl generators plus a scaled n-cycle and a -1 reflection."""
    unit = field.from_raw(field.q - 1)           # an extension element if e > 1
    cycle = [[unit if j == (i + 1) % n else 0 for j in range(n)]
             for i in range(n)]
    return (gens_standard("gl", n, field).generators
            + (GroupMatrix(field, cycle),
               diagonal(field, [field.p - 1] + [1] * (n - 1))))


# _BITS_PER_CAP as shipped, then forcing the bit set (every key space of
# one word is small enough) and the sorted keys (no key space is)
ROUTES = {"default": groups._BITS_PER_CAP, "bits": groups._WORD, "sorted": 0}


@pytest.mark.parametrize("field", (F3, F5, F9, F25), ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_closure_matches_product_bfs_on_random_generator_subsets(field, data):
    n = data.draw(st.sampled_from((2, 3)), label="n")
    pool = generator_pool(field, n)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=4, unique=True), label="picks")
    gens = [pool[i] for i in picks]
    cap = data.draw(st.integers(1, 2000), label="cap")
    try:
        order = reference_bfs(gens, cap)
    except CapExceeded:
        order = None
    for route, bits_per_cap in ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "_BITS_PER_CAP", bits_per_cap)
            calls = []
            real = groups._count_on_bits
            mp.setattr(groups, "_count_on_bits",
                       lambda *args: calls.append(args) or real(*args))
            if order is None:
                with pytest.raises(CapExceeded):
                    group_order_bfs(gens, cap)
                continue
            assert group_order_bfs(gens, cap) == order
            if route != "default":
                assert bool(calls) == (route == "bits")
            assert group_order_bfs(gens, order) == order
            if order > 1:
                with pytest.raises(CapExceeded):
                    group_order_bfs(gens, order - 1)


def test_e8_5a_closure_memory_stays_small():
    # the sorted keys at the cap took 79.6 MB of traced numpy memory; the
    # bit set over the 5.7e6 orbit-index keys is 0.7 MB
    pres = case_group(parse_case("e8_5a"))
    tracemalloc.start()
    try:
        assert group_order_bfs(pres, cap=2 * 10 ** 6) == pres.order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_bfs_rejects_mixed_generators():
    with pytest.raises(FieldMismatch):
        group_order_bfs([GroupMatrix.identity(F3, 2),
                         GroupMatrix.identity(F9, 2)])
    with pytest.raises(ArityMismatch):
        group_order_bfs([GroupMatrix.identity(F3, 2),
                         GroupMatrix.identity(F3, 3)])
    # a presentation's generators must match its own field and size
    sl2 = gens_standard("sl", 2, F3)
    with pytest.raises(FieldMismatch):
        group_order_bfs(replace(sl2, field=F9))
    with pytest.raises(ArityMismatch):
        group_order_bfs(replace(sl2, n=3))


@pytest.mark.parametrize("call, ints, plain, floats", [
    (transvection, (F3, np.int64(2), np.int64(1), 2), (F3, 2, 1, 2),
     [(F3, 2, 1.0, 2), (F3, 2.0, 1, 2)]),
    (gens_standard, ("sl", np.int64(2), F3), ("sl", 2, F3),
     [("sl", 2.0, F3)]),
    (gens_case, ("g0", F3, np.int64(2)), ("g0", F3, 2), [("g0", F3, 2.0)]),
    (gl_order, (np.int64(2), np.int64(3)), (2, 3), [(2.0, 3), (2, "3")]),
    (lambda cap: group_order_bfs(gens_standard("sl", 2, F3), cap=cap),
     (np.int64(24),), (24,), [("x",), (2.5,), (24.0,)]),
], ids=["transvection", "gens_standard", "gens_case", "gl_order",
        "group_order_bfs"])
def test_sizes_indices_and_caps_read_integers(call, ints, plain, floats):
    assert call(*ints) == call(*plain)
    for args in floats:
        with pytest.raises(NotAnInteger) as info:
            call(*args)
        assert isinstance(info.value, FqinvError)


def test_wide_keys_over_f9_g0(monkeypatch):
    # an element key is one word over the orbit sizes 9**4, 1, 1, 1, 1
    assert group_order_bfs(gens_case("g0", F9, 5)) == 9 ** 4
    # a row of F9^20 is 40 base-3 digits, and 3**40 > 2**62, so the keys of
    # the row closures span two int64 words
    widths = []
    real = groups._keys

    def keys(rows, base):
        out = real(rows, base)
        widths.append(out.itemsize)
        return out

    monkeypatch.setattr(groups, "_keys", keys)
    gens = [transvection(F9, 20, 1, 2, w) for w in groups._omega_powers(F9)]
    assert group_order_bfs(gens) == 9
    assert 16 in widths


# an int base, or one radix per column: e7_4's orbit sizes, and six
# columns whose key spans two words
@pytest.mark.parametrize("base, width", [(3, 4), (6565, 5), (113, 30),
                                         ((54, 26, 26, 26), 4),
                                         ((6561,) * 5 + (2,), 6)])
def test_keys_round_trip(rng, base, width):
    radices = np.broadcast_to(base, (width,)).tolist()
    rows = np.array([[rng.randrange(r) for r in radices]
                     for _ in range(200)], dtype=np.int64)
    rows[1] = rows[0]
    keys = groups._keys(rows, base)
    assert np.array_equal(groups._rows(keys, base, width), rows)
    assert len(np.unique(keys)) == len({tuple(r) for r in rows.tolist()})
    if keys.dtype == np.int64:
        assert 0 <= keys.min() and keys.max() < np.prod(radices, dtype=object)


@pytest.mark.parametrize("kind, field", [("sl", F9), ("gl", F9), ("sl", F25)],
                         ids=["sl(2,9)", "gl(2,9)", "sl(2,25)"])
def test_extension_field_cap_is_exact(kind, field):
    pres = gens_standard(kind, 2, field)
    assert group_order_bfs(pres, cap=pres.order) == pres.order
    with pytest.raises(CapExceeded):
        group_order_bfs(pres, cap=pres.order - 1)
    # far below the order, the row orbits alone exceed n * cap
    with pytest.raises(CapExceeded):
        group_order_bfs(pres, cap=10)


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
