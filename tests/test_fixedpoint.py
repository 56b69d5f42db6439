"""Fixed subspaces, module series, case parsing, and verification."""

import hashlib
import json
import math
import random
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from fqinv import (
    Case,
    FreeModuleDescription,
    GroupMatrix,
    Polynomial,
    TensorElement,
    case_elements,
    case_group,
    degree_cap,
    diagonal,
    dickson_e,
    fixed_basis,
    fixed_dim,
    gens_case,
    gens_standard,
    hilbert_coeff,
    is_invariant,
    module_description,
    monomial_basis,
    parse_case,
    tensor_act,
    theorem_basis,
    to_json,
    transvection,
    verify_module,
    wilkerson_check,
    wilkerson_phi,
)
from fqinv import algebra, fixedpoint
from fqinv.errors import (
    ArityTooSmall,
    FeasibilityCapExceeded,
    InvalidModuleDescription,
    NegativeDegree,
    NotApplicable,
    SingularMatrix,
    UnknownCase,
)

from conftest import ALL_FIELDS, F3, F5, F9, F25, F27, F125, elements_digest

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- degreewise monomial basis ----------------------------------------------

def test_monomial_basis_small_golden():
    assert monomial_basis(F3, 2, 0) == [((0, 0), ())]
    assert monomial_basis(F3, 2, 1) == [((0, 0), (1,)), ((0, 0), (2,))]
    assert monomial_basis(F3, 2, 2) == [
        ((1, 0), ()), ((0, 1), ()), ((0, 0), (1, 2))]
    assert monomial_basis(F3, 2, 3) == [
        ((1, 0), (1,)), ((0, 1), (1,)), ((1, 0), (2,)), ((0, 1), (2,))]


def test_monomial_basis_counts_and_grading():
    for n in (1, 2, 3):
        for d in range(8):
            basis = monomial_basis(F3, n, d)
            assert len(set(basis)) == len(basis)
            count = 0
            for r in range(d % 2, min(n, d) + 1, 2):
                k = (d - r) // 2
                count += math.comb(n - 1 + k, n - 1) * math.comb(n, r)
            assert len(basis) == count
            for exp, ext in basis:
                assert 2 * sum(exp) + len(ext) == d


# -- module series -----------------------------------------------------------

def test_series_of_trivial_module():
    desc = FreeModuleDescription((), (0,))
    assert [hilbert_coeff(desc, d) for d in range(4)] == [1, 0, 0, 0]


def test_series_against_power_series_oracle():
    import sympy

    t = sympy.symbols("t")
    for label, d_max in [("sl(2,3)", 40), ("gl(2,3)", 40), ("g0(3,3)", 24)]:
        desc = module_description(parse_case(label))
        numer = sum(t ** b for b in desc.basis_degrees)
        denom = sympy.prod([1 - t ** a for a in desc.algebra_gen_degrees])
        series = sympy.series(numer / denom, t, 0, d_max + 1).removeO()
        poly = sympy.Poly(series, t)
        for d in range(d_max + 1):
            assert hilbert_coeff(desc, d) == int(poly.coeff_monomial(t ** d))


def test_description_validation():
    assert issubclass(InvalidModuleDescription, ValueError)
    with pytest.raises(InvalidModuleDescription):
        FreeModuleDescription((0, 2), (0,))
    with pytest.raises(InvalidModuleDescription):
        FreeModuleDescription((2,), ())
    with pytest.raises(InvalidModuleDescription):
        FreeModuleDescription((2,), (0, 0))
    with pytest.raises(InvalidModuleDescription):
        FreeModuleDescription((2,), (-1,))


# -- fixed subspaces ---------------------------------------------------------

def _dense_fixed_dim(group, d):
    """Independent check: stack the (g - 1) matrices densely and row-reduce
    over F_q with the field's own raw arithmetic.  group is a presentation
    or a list of matrices."""
    gens = list(getattr(group, "generators", group))
    field, n = gens[0].field, gens[0].n
    basis = monomial_basis(field, n, d)
    index = {be: k for k, be in enumerate(basis)}
    rows = []
    for g in gens:
        cols = []
        for exp, ext in basis:
            el = TensorElement(field, n, {ext: Polynomial(field, n, {exp: 1})})
            img = tensor_act(g, el) - el
            col = [0] * len(basis)
            for e2, poly in img.parts.items():
                for x2, c in poly.terms.items():
                    col[index[(x2, e2)]] = c
            cols.append(col)
        for j in range(len(basis)):
            row = [cols[k][j] for k in range(len(basis))]
            if any(row):
                rows.append(row)
    return len(basis) - len(reference_rref(rows, len(basis), field))


def reference_rref(rows, width, field):
    """Nonzero rows of the reduced row echelon form of raw rows over F_q,
    by plain Gauss-Jordan elimination with the field's raw arithmetic."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(v, inv) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


def rref_rows(rows, field):
    """Reduced row echelon form over F_q of raw rows; rows sorted by pivot
    position."""
    a = np.array(rows, dtype=np.int64)
    if a.size == 0:
        return a
    # digit row r*e + i of the span holds the digits of t^i times row r
    r, c = np.nonzero(a)
    at, digits = fixedpoint._sparse_product(field, c, r, a[r, c], None,
                                            len(a) * field.e)
    span = np.zeros((a.shape[1] * field.e, len(a) * field.e), dtype=np.int64)
    span[at] = digits
    return fixedpoint._canonical_rows(np.ascontiguousarray(span.T), field)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_rref_rows_match_gauss_jordan_over_f_q(field):
    # the solver reduces base-p digit rows over F_p and reads the F_q rows
    # back; sparse random rows with repeats and multiples give rank drops
    rng = np.random.default_rng(field.q)
    for _ in range(40):
        m, width = rng.integers(1, 7), rng.integers(1, 8)
        rows = rng.integers(0, field.q, (m, width))
        rows[rng.random((m, width)) < 0.4] = 0
        if m > 2:
            scalar = int(rng.integers(1, field.q))
            rows[-1] = [field.mul(scalar, int(v)) for v in rows[0]]
        got = rref_rows(rows, field)
        want = reference_rref(rows.tolist(), width, field)
        assert got.tolist() == want


def reference_nullspace(a, p):
    """Kernel columns read off the reduced echelon form one free column
    and one pivot at a time."""
    a = a.copy()
    k = a.shape[1]
    pivots = fixedpoint._eliminate(a, p)
    free = [c for c in range(k) if c not in pivots]
    out = np.zeros((k, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        out[f, j] = 1
        for r, c in enumerate(pivots):
            out[c, j] = (-a[r, f]) % p
    return out


def dense_nullspace(a, p):
    """Kernel basis of the int64 array a over F_p, by eliminating all of
    its nonzero rows at once, column by column: the solver's route before
    it peeled singleton rows."""
    a = a[a.any(axis=1)]
    pivots = fixedpoint._eliminate(a, p)
    free = np.delete(np.arange(a.shape[1]), pivots)
    out = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    out[free, np.arange(len(free))] = 1
    out[pivots] = (-a[:len(pivots), free]) % p
    return out


def peeled_kernel(a, p):
    """fixedpoint._kernel of the dense int64 array a, from its nonzero
    entries."""
    rows, cols = np.nonzero(a)
    return fixedpoint._kernel(rows, cols, a[rows, cols], a.shape[1], p)


@pytest.mark.parametrize("p", (3, 5, 113))
def test_nullspace_matches_the_per_entry_fill(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        m, k = rng.integers(0, 10), rng.integers(0, 10)
        a = rng.integers(0, p, (m, k))
        a[rng.random(m) < 0.4] = 0          # zero rows are dropped first
        got = peeled_kernel(a, p)
        assert np.array_equal(got, reference_nullspace(a, p))
        assert np.array_equal(got, dense_nullspace(a, p))
        assert not (a @ got % p).any()


@st.composite
def chained_matrices(draw, p):
    """A sparse F_p matrix with planted chains of singleton rows: a
    chain's first row holds one entry, and each next row one new column
    next to the one or two before it, so peeling takes one round per
    link.  Random sparse rows, over chain columns too, leave some kernel;
    the rows come shuffled."""
    width = draw(st.integers(1, 14), label="width")
    order = draw(st.permutations(range(width)), label="order")
    nonzero = st.integers(1, p - 1)
    rows, done = [], 0
    while done < width and draw(st.booleans(), label="another chain"):
        length = draw(st.integers(1, width - done), label="length")
        chain, done = order[done:done + length], done + length
        for i, col in enumerate(chain):
            row = np.zeros(width, dtype=np.int64)
            for c in chain[max(0, i - 2):i + 1]:
                row[c] = draw(nonzero)
            rows.append(row)
    for _ in range(draw(st.integers(0, 6), label="random rows")):
        row = np.zeros(width, dtype=np.int64)
        for c, v in draw(st.lists(st.tuples(st.integers(0, width - 1),
                                            nonzero), max_size=4)):
            row[c] = v
        rows.append(row)
    shuffle = draw(st.permutations(range(len(rows))), label="shuffle")
    return np.array([rows[i] for i in shuffle],
                    dtype=np.int64).reshape(-1, width)


@contextmanager
def eliminated():
    """Copies of the arrays that reach fixedpoint._eliminate meanwhile."""
    seen, eliminate = [], fixedpoint._eliminate

    def recording(a, p):
        seen.append(a.copy())
        return eliminate(a, p)

    with mock.patch.object(fixedpoint, "_eliminate", recording):
        yield seen


@pytest.mark.parametrize("p", (2, 3, 5, 113))
@seed(20261019)
@SETTINGS
@given(data=st.data())
def test_kernel_peels_planted_singleton_chains(p, data):
    a = data.draw(chained_matrices(p), label="a")
    with eliminated() as seen:
        got = peeled_kernel(a, p)
    assert np.array_equal(got, dense_nullspace(a, p))
    assert not (a @ got % p).any()
    # peeling ran to the end: no row left holds a single entry
    assert all((b != 0).sum(axis=1).min(initial=2) >= 2 for b in seen)


@st.composite
def sparse_fq_entries(draw, field):
    """F_q entries (rows, cols, raws) at distinct positions of an m x width
    matrix, and its shape; a sparse draw leaves rows with one entry."""
    m = draw(st.integers(1, 8), label="m")
    width = draw(st.integers(1, 6), label="width")
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, width - 1)),
        st.integers(1, field.q - 1), max_size=m * width), label="entries")
    at = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    raws = np.array(list(entries.values()), dtype=np.int64)
    return at[:, 0], at[:, 1], raws, (m, width)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261019)
@SETTINGS
@given(data=st.data())
def test_kernel_of_digit_entries_matches_dense_nullspace(field, data):
    rows, cols, raws, (m, width) = data.draw(sparse_fq_entries(field),
                                             label="entries")
    e = field.e
    digit_rows, digit_cols, vals = fixedpoint._digits(field, rows, cols,
                                                      raws)
    a = np.zeros((m * e, width * e), dtype=np.int64)
    a[digit_rows, digit_cols] = vals
    got = fixedpoint._kernel(digit_rows, digit_cols, vals, width * e,
                             field.p)
    assert np.array_equal(got, dense_nullspace(a, field.p))
    assert got.shape[1] % e == 0            # an F_q-subspace


def test_peeling_shrinks_what_e7_4_eliminates():
    # the first general generator of e7_4's largest degree-36 block: the
    # remainder that reaches _eliminate is a part of its digit matrix
    group = case_group("e7_4")
    field, n, k, r = group.field, group.n, 18, 0
    monomial, general = fixedpoint._split_generators(group.generators)
    k0 = fixedpoint._orbit_kernel(field, [
        fixedpoint._monomial_permutation(field, g, k, r) for g in monomial])
    digit_rows, _, _ = fixedpoint._digits(
        field, *fixedpoint._moved(field, general[0], k, r, k0))
    full = (len(np.unique(digit_rows)), k0[2] * field.e)
    with eliminated() as seen:
        fixedpoint._block_kernel(field, n, group.generators, k, r)
    shape = seen[0].shape
    assert shape[0] < full[0] and shape[1] < full[1], (shape, full)


@pytest.mark.parametrize("n", range(1, 6))
def test_poly_steps_match_the_compositions_order(n):
    for k in range(1, 9):
        rank = {exp: i for i, exp in enumerate(algebra._compositions(k, n))}
        want = [[rank[b[:j] + (b[j] + 1,) + b[j + 1:]]
                 for b in algebra._compositions(k - 1, n)] for j in range(n)]
        up, odd = fixedpoint._poly_steps(n, k)
        assert up.tolist() == want
        assert not odd.any()
        assert fixedpoint._exponent_rows(n, k).tolist() == \
            [list(exp) for exp in algebra._compositions(k, n)]


def test_fixed_dim_small_golden():
    sl2 = gens_standard("sl", 2, F3)
    assert [fixed_dim(sl2, d) for d in (0, 1, 2)] == [1, 0, 1]
    gl2 = gens_standard("gl", 2, F3)
    assert fixed_dim(gl2, 16) == 1  # lowest positive-degree polynomial invariant


def test_fixed_dim_matches_dense_elimination():
    for pres, degrees in [
        (gens_standard("sl", 2, F3), range(0, 13)),
        (gens_case("g0", F3, 3), range(0, 9)),
        (gens_standard("sl", 2, F5), range(0, 9)),
    ]:
        for d in degrees:
            assert fixed_dim(pres, d) == _dense_fixed_dim(pres, d)


@st.composite
def mixed_presentations(draw, field):
    """A diagonal with an entry other than 1, so that some orbits carry
    disagreeing scalars and drop out, a scaled permutation, and up to two
    transvections.  Scalars are drawn as raws, so over an extension field
    they reach outside the prime subfield."""
    n = draw(st.integers(2, 3), label="n")
    raws = st.integers(1, field.q - 1)

    def unit():
        return field.from_raw(draw(raws))

    entries = [field.from_raw(draw(st.integers(2, field.q - 1)))] + \
        [unit() for _ in range(n - 1)]
    perm = draw(st.permutations(range(n)).filter(
        lambda pm: pm != list(range(n))))
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = unit()
    gens = [diagonal(field, draw(st.permutations(entries))),
            GroupMatrix(field, rows)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        gens.append(transvection(field, n, i, j, unit()))
    return draw(st.permutations(gens))


@pytest.mark.parametrize("field", (F3, F5, F9, F25), ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_fixed_dim_matches_dense_elimination_on_random_groups(field, data):
    gens = data.draw(mixed_presentations(field), label="gens")
    for d in range(8 if gens[0].n == 2 else 6):
        assert fixed_dim(gens, d) == _dense_fixed_dim(gens, d), d


def full_invertible(field, n, draw_raw):
    """An invertible matrix with no zero entry, its raws drawn by
    draw_raw(lo, hi); None when the draw is singular."""
    g = GroupMatrix(field, [[field.from_raw(draw_raw(1, field.q - 1))
                             for _ in range(n)] for _ in range(n)])
    try:
        g.inverse_rows()
    except SingularMatrix:
        return None
    return g


@st.composite
def dense_presentations(draw, field):
    """A matrix with full rows, so that every variable moves to a sum of
    all of them: alone, with no monomial generator (the orbit kernel is
    the identity), or next to a diagonal with an entry other than 1."""
    n = draw(st.integers(2, 3), label="n")
    g = full_invertible(field, n,
                        lambda lo, hi: draw(st.integers(lo, hi)))
    assume(g is not None)
    if not draw(st.booleans(), label="diagonal"):
        return [g]
    entries = [field.from_raw(draw(st.integers(2, field.q - 1)))] + \
        [field.from_raw(draw(st.integers(1, field.q - 1)))
         for _ in range(n - 1)]
    return draw(st.permutations([g, diagonal(field, entries)]))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_dense_generators_match_dense_elimination(field, data):
    gens = data.draw(dense_presentations(field), label="gens")
    for d in range(6 if gens[0].n == 2 else 5):
        dim = fixed_dim(gens, d)
        assert dim == _dense_fixed_dim(gens, d), d
        vecs = fixed_basis(gens, d)
        assert len(vecs) == dim
        assert all(is_invariant(v, gens) for v in vecs)


def reference_columns(field, n, g, basis, index, needed):
    """Action columns of g as {row: raw}, one tensor_act per basis
    position."""
    cols = {}
    for pos in needed:
        exp, ext = basis[pos]
        el = TensorElement(field, n, {ext: Polynomial(field, n, {exp: 1})})
        entries = {}
        for ext2, poly in tensor_act(g, el).parts.items():
            for exp2, raw in poly.terms.items():
                entries[index[(exp2, ext2)]] = raw
        cols[pos] = entries
    return cols


def _blocks(n, d_max):
    """(exps, words, basis, index) of every block up to degree d_max, in
    the solver's order."""
    for d in range(d_max + 1):
        for k, r in fixedpoint._block_shapes(n, d):
            exps = list(algebra._compositions(k, n))
            words = list(combinations(range(1, n + 1), r))
            basis = [(exp, ext) for ext in words for exp in exps]
            yield exps, words, basis, {be: i for i, be in enumerate(basis)}


@pytest.mark.parametrize("pres, d_max", [
    (case_group("e6_4"), 12),
    (case_group("e8_p5_3"), 14),
    (gens_standard("gl", 3, F9), 12),
    (gens_standard("gl", 3, F25), 8),
    (gens_standard("sl", 2, F125), 10),
], ids=["e6_4", "e8_p5_3", "gl(3,9)", "gl(3,25)", "sl(2,125)"])
def test_block_columns_match_tensor_act(pres, d_max):
    field, n = pres.field, pres.n
    _, general = fixedpoint._split_generators(pres.generators)
    assert general
    for exps, words, basis, index in _blocks(n, d_max):
        k, r = sum(exps[0]), len(words[0])
        for g in general:
            rows, cols, raws = fixedpoint._block_action(field, g, k, r)
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            got = {}
            for row, col, raw in zip(rows.tolist(), cols.tolist(),
                                     raws.tolist()):
                got.setdefault(col, {})[row] = raw
            assert got == reference_columns(field, n, g, basis, index,
                                            range(len(basis)))


def level_entries(level):
    """{(row, col): raw} of an action level, checking its order."""
    rows, cols, raws = (a.tolist() for a in level)
    assert sorted(zip(cols, rows)) == list(zip(cols, rows))
    return {(row, col): raw for row, col, raw in zip(rows, cols, raws)}


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_action_levels_match_per_monomial_substitution(field):
    # each level is built from the one below; the per-monomial
    # substitution and the per-word exterior image are the oracles
    rng = random.Random(field.q)
    n = 3
    gens = [transvection(field, n, 1, 2, field.from_raw(field.q - 1))]
    while len(gens) < 4:
        g = full_invertible(field, n, rng.randint)
        if g is not None:
            gens.append(g)
    for g in gens:
        rows = g.inverse_rows()
        for k in range(8):
            exps = list(algebra._compositions(k, n))
            rank = {exp: i for i, exp in enumerate(exps)}
            want = {(rank[exp2], a): raw for a, exp in enumerate(exps)
                    for exp2, raw in algebra._substitute_terms(
                        field, rows, {exp: field.one}).items()}
            assert level_entries(fixedpoint._level(field, rows, k, False)) \
                == want, k
        for r in range(n + 1):
            words = list(combinations(range(1, n + 1), r))
            rank = {word: i for i, word in enumerate(words)}
            want = {(rank[word2], w): raw for w, word in enumerate(words)
                    for word2, raw in algebra._exterior_image(
                        field, rows, word).items()}
            assert level_entries(fixedpoint._level(field, rows, r, True)) \
                == want, r


def test_cached_actions_are_read_only_and_bounded():
    g = transvection(F9, 3, 1, 2, F9.from_raw(3))
    rows = g.inverse_rows()
    cached = [*fixedpoint._level(F9, rows, 4, False),
              *fixedpoint._level(F9, rows, 2, True),
              *fixedpoint._poly_steps(3, 4), *fixedpoint._word_steps(3, 2)]
    for field in ALL_FIELDS:
        cached += [field.digit_table, field.product_array]
        with pytest.raises(TypeError):
            field.mul_table[0] = 1
    for a in cached:
        with pytest.raises(ValueError):
            a[...] = 0
    for cache in (fixedpoint._levels, fixedpoint._poly_steps,
                  fixedpoint._word_steps):
        assert cache.cache_info().maxsize is not None


def reference_cycle_kernel(field, perm, scale):
    """Fixed vectors of one scaled index permutation, one per cycle whose
    scalar product is 1."""
    size = len(perm)
    seen = np.zeros(size, dtype=bool)
    cycles = []
    for start in range(size):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = int(perm[i])
        prod = field.one
        for j in cycle:
            prod = field.mul(prod, int(scale[j]))
        if prod == field.one:
            cycles.append(cycle)
    out = np.zeros((size, len(cycles)), dtype=np.int64)
    for col, cycle in enumerate(cycles):
        c = field.one
        for j in cycle:
            out[j, col] = c
            c = field.mul(c, int(scale[j]))
    return out


@pytest.mark.parametrize("gens, d_max", [
    (case_group("e7_4").generators, 12),
    (case_group("e8_5a").generators, 6),
    ([GroupMatrix(F9, [[0, F9.from_raw(3)], [1, 0]]),
      diagonal(F9, [F9.from_raw(4), 1])], 14),
], ids=["e7_4", "e8_5a", "F9 monomials"])
def test_orbit_kernel_of_one_generator_spans_its_cycle_kernel(gens, d_max):
    field, n = gens[0].field, gens[0].n
    monomial, _ = fixedpoint._split_generators(gens)
    assert len(monomial) >= 2
    for exps, words, _, _ in _blocks(n, d_max):
        for g in monomial:
            move = fixedpoint._monomial_permutation(field, g, sum(exps[0]),
                                                    len(words[0]))
            column, value, width = fixedpoint._orbit_kernel(field, [move])
            got = np.zeros((len(column), width), dtype=np.int64)
            kept = np.flatnonzero(column >= 0)
            got[kept, column[kept]] = value[kept]
            want = reference_cycle_kernel(field, *move)
            assert got.shape == want.shape
            assert np.array_equal(rref_rows(got.T, field),
                                  rref_rows(want.T, field))


def reference_monomial_permutation(field, basis, index, g):
    """Index permutation and scalar twist of a monomial substitution, one
    basis position at a time."""
    rows = g.inverse_rows()
    n = len(rows)
    js = [next(j for j, v in enumerate(row) if v) for row in rows]
    targets = [j + 1 for j in js]
    scalars = [row[j] for row, j in zip(rows, js)]
    perm = np.empty(len(basis), dtype=np.int64)
    scale = np.empty(len(basis), dtype=np.int64)
    for pos, (exp, ext) in enumerate(basis):
        new_exp = [0] * n
        s = field.one
        for i, e in enumerate(exp):
            if e:
                new_exp[targets[i] - 1] += e
                s = field.mul(s, field.pow_(scalars[i], e))
        images = [targets[i - 1] for i in ext]
        for i in ext:
            s = field.mul(s, scalars[i - 1])
        if algebra._sort_sign(images) < 0:
            s = field.neg(s)
        perm[pos] = index[(tuple(new_exp), tuple(sorted(images)))]
        scale[pos] = s
    return perm, scale


@pytest.mark.parametrize("gens, d_max", [
    (case_group("e7_4").generators, 14),
    (case_group("e8_5a").generators, 8),
    (gens_standard("gl", 3, F9).generators
     + (GroupMatrix(F9, [[0, 0, F9.from_raw(5)], [1, 0, 0], [0, 1, 0]]),), 10),
], ids=["e7_4", "e8_5a", "gl(3,9)"])
def test_monomial_permutation_matches_per_position_loop(gens, d_max):
    field, n = gens[0].field, gens[0].n
    monomial, _ = fixedpoint._split_generators(gens)
    assert monomial
    for exps, words, basis, index in _blocks(n, d_max):
        for g in monomial:
            perm, scale = fixedpoint._monomial_permutation(
                field, g, sum(exps[0]), len(words[0]))
            want_perm, want_scale = reference_monomial_permutation(
                field, basis, index, g)
            assert np.array_equal(perm, want_perm)
            assert np.array_equal(scale, want_scale)


def test_empty_generator_list_raises_arity_too_small():
    for call in (fixed_dim, fixed_basis):
        with pytest.raises(ArityTooSmall) as info:
            call([], 2)
        assert isinstance(info.value, ValueError)


def test_fixed_dim_exterior_filter():
    sl2 = gens_standard("sl", 2, F3)
    assert fixed_dim(sl2, 2, exterior_degree=2) == 1
    assert fixed_dim(sl2, 2, exterior_degree=0) == 0
    total = fixed_dim(sl2, 10)
    split = sum(fixed_dim(sl2, 10, exterior_degree=r) for r in range(3))
    assert total == split


def test_fixed_basis_contents():
    sl2 = gens_standard("sl", 2, F3)
    vecs = fixed_basis(sl2, 2)
    assert vecs == [TensorElement.dx(F3, 2, (1, 2))]
    assert fixed_basis(sl2, 1) == []
    e2 = TensorElement.from_polynomial(dickson_e(F3, 2))
    (v,) = fixed_basis(sl2, 8)
    assert v == e2 or v == -e2
    # deterministic across calls
    assert fixed_basis(sl2, 10) == fixed_basis(sl2, 10)
    for u in fixed_basis(sl2, 12):
        assert is_invariant(u, sl2)


@pytest.mark.parametrize("field, gl_max", [(F9, 30), (F25, 14), (F27, 14),
                                           (F125, 14)],
                         ids=["F9", "F25", "F27", "F125"])
def test_extension_field_transvections_move_the_variables(field, gl_max):
    # gens_standard(sl, 2, F_q) includes transvections by t; the raw F_q
    # entries of their inverse rows must reach the substitution unreduced
    sl2 = gens_standard("sl", 2, field)
    desc = module_description(Case(f"sl(2,{field.q})", "sl", field, 2))
    assert [fixed_dim(sl2, d) for d in range(41)] == \
        [hilbert_coeff(desc, d) for d in range(41)]
    for u in theorem_basis(field, "sl", 2):
        assert is_invariant(u, sl2)
    gl3 = gens_standard("gl", 3, field)
    desc = module_description(Case(f"gl(3,{field.q})", "gl", field, 3))
    assert [fixed_dim(gl3, d) for d in range(gl_max + 1)] == \
        [hilbert_coeff(desc, d) for d in range(gl_max + 1)]


def golden_groups(field):
    """Presentations whose fixed_basis output is pinned, with their top
    degree: sl(2, F_q), which has no monomial generator; x1 -> t x2,
    x2 -> x1 with a diagonal and a transvection by t; a diagonal under a
    transvection by t, whose orbit kernel is cut by the transvection; and
    that transvection alone, with no monomial generator and a fixed space
    that the Frobenius moves (over F27 it holds coefficients outside
    F_3 from degree 6 on)."""
    t = field.from_raw(field.p)
    return {
        "sl(2)": (gens_standard("sl", 2, field), 13),
        "swap+diag+tv": ([GroupMatrix(field,
                                      [[0, t, 0], [1, 0, 0], [0, 0, 1]]),
                          diagonal(field, [1, 1, -1]),
                          transvection(field, 3, 3, 1, t)], 9),
        "diag+tv": ([diagonal(field, [-1, 1, 1]),
                     transvection(field, 3, 1, 2, t)], 9),
        "tv": ([transvection(field, 2, 1, 2, t)], 9),
    }


# SHA-256 of "d<TAB>to_json(v)" lines over every fixed_basis vector v of
# each golden group, degrees 0..top in order, taken before the solver moved
# to base-p digit vectors
FIXED_BASIS_SHA256 = [
    (F9, "sl(2)",
     "4e4fa39cdc7c387a95a7d6715d5fb70a48414520ee172ed93d0be1e5e12c1e3d"),
    (F9, "swap+diag+tv",
     "5759e06afca7f1948f346e2ae11675dba7cd3efd00d150e54e114e5899c27fa6"),
    (F9, "diag+tv",
     "9ed5cdda3b46f1c878e9a46371b7f9bde7b2994df3b61a0e1e0070003726767a"),
    (F9, "tv",
     "941836c482586528ceb5c3c46aa2f16c62182c47ef6279e530d57059e80ee6c3"),
    (F25, "sl(2)",
     "1699835f8166bea790009d437635f69dc5380d6b4204ccc926b239dcca53b9b0"),
    (F25, "swap+diag+tv",
     "8c91c76ba15935233ba93f57f388ac3ef6fc5469eec99487b7b368f789420d42"),
    (F25, "diag+tv",
     "9f43ddaf14462f60170e288b8b4a11abfcd673ab574da481668a45e4933429a0"),
    (F25, "tv",
     "93ac15bfdd5409131ebf80155013d2d6dcd7b489f4abec9f9aef7b0b9dd02a4f"),
    (F27, "sl(2)",
     "da0bc4c7286e1ed5f7788a5d865faea299f97fb4133ea9ec4c8d5276073a8ce2"),
    (F27, "swap+diag+tv",
     "664998f8ac866513a80e4c8f489c8ef2e421b1abf9fc1ad307f50624c210a395"),
    (F27, "diag+tv",
     "2d742f5bde71f01f5e52c5745eb2e88583903440dcc86fbba76814d458d48755"),
    (F27, "tv",
     "856e122964e7382aad6c0c4c8df07bffb2d001062ccf78eef1ddb98929dc08eb"),
    (F125, "sl(2)",
     "4d0d4b781559b4a112571a8bf2e1e9b4c320a94fbde1c2a2f17f65b4dc0f9144"),
    (F125, "swap+diag+tv",
     "11660ca80dae92483d23213b3163bd3b9886d0e4acc3518b05e9da5ee4128bd1"),
    (F125, "diag+tv",
     "0bb2ca6c021072e0293f0a1e148856b4129f816ea14f8fbdd796866c5636a7b8"),
    (F125, "tv",
     "a1cc599776d788cbd3cdbae0be8374fde5c49a4f680f28b0c17cd8a4d0252472"),
]


@pytest.mark.parametrize(
    "field, name, sha256", FIXED_BASIS_SHA256,
    ids=[f"F{field.q}-{name}" for field, name, _ in FIXED_BASIS_SHA256])
def test_extension_field_fixed_basis_is_pinned(field, name, sha256):
    gens, top = golden_groups(field)[name]
    h = hashlib.sha256()
    for d in range(top + 1):
        for v in fixed_basis(gens, d):
            h.update(f"{d}\t{to_json(v)}\n".encode())
    assert h.hexdigest() == sha256


def test_fixed_basis_keeps_extension_field_coefficients():
    # x1 -> t x2, x2 -> x1: fixed vectors carry coefficients outside F3
    g = GroupMatrix(F9, [[0, F9.from_raw(3)], [1, 0]])
    vecs = fixed_basis([g], 6)
    assert len(vecs) == fixed_dim([g], 6) > 0
    assert all(is_invariant(u, [g]) for u in vecs)
    assert any(c >= F9.p for u in vecs for poly in u.parts.values()
               for c in poly.terms.values())


def test_basis_cap_guards_large_degrees():
    sl5 = gens_standard("sl", 5, F3)
    with pytest.raises(FeasibilityCapExceeded):
        fixed_dim(sl5, 100)


# -- cases -------------------------------------------------------------------

def test_parse_case_labels():
    c = parse_case("sl(2,3)")
    assert (c.kind, c.n, c.field.q) == ("sl", 2, 3)
    assert parse_case(" gl( 3 , 5 ) ").kind == "gl"
    assert parse_case("f4_3") == Case("f4_3", "f4_3", F3, 3)
    assert parse_case("e8_p5_3").field is F5
    with pytest.raises(UnknownCase):
        parse_case("sl(2,9)")  # q must be prime in a label
    with pytest.raises(UnknownCase):
        parse_case("so(2,3)")
    for label in ("sl(0,3)", "g0(1,3)", "parabolic(1,5)", "f4_3(3,3)", "sl"):
        with pytest.raises(UnknownCase):
            parse_case(label)


def test_case_group_matches_label():
    pres = case_group(parse_case("parabolic(3,3)"))
    assert pres.order == 216 and pres.n == 3


DESCRIPTIONS = {
    "sl(2,3)": ((8, 12), (0, 2, 3, 7)),
    "gl(2,3)": ((16, 12), (0, 10, 11, 15)),
    "sl(3,3)": ((26, 48, 36), (0, 3, 4, 8, 9, 20, 21, 25)),
    "g0(3,3)": ((18, 2, 2), (0, 1, 1, 2, 3, 4, 8, 9)),
    "parabolic(3,3)": ((18, 8, 12), (0, 2, 3, 3, 4, 7, 8, 9)),
    "f4_3": ((26, 36, 48), (0, 3, 4, 8, 9, 20, 21, 25)),
    "e6_4": ((26, 36, 48, 54),
             (0, 3, 4, 4, 5, 8, 9, 9, 10, 20, 21, 21, 22, 25, 26, 27)),
    "e7_4": ((26, 36, 48, 108),
             (0, 3, 4, 8, 9, 20, 21, 25, 58, 59, 63, 64, 75, 76, 80, 81)),
    "e8_5a": ((4, 26, 36, 48, 324),
              (0, 3, 3, 4, 6, 7, 8, 9, 11, 12, 20, 21, 23, 24, 25, 28,
               169, 170, 174, 175, 186, 187, 191, 192,
               222, 223, 227, 228, 239, 240, 244, 245)),
    "e8_p5_3": ((62, 200, 240), (0, 3, 4, 12, 13, 52, 53, 61)),
}


def test_module_descriptions_golden():
    for label, (gens, basis) in DESCRIPTIONS.items():
        desc = module_description(parse_case(label))
        assert desc.algebra_gen_degrees == gens, label
        assert tuple(sorted(desc.basis_degrees)) == basis, label


def test_degree_caps_schedule():
    expected = {
        "sl(2,3)": 40, "gl(2,3)": 40, "sl(3,3)": 30, "sl(4,3)": 12,
        "g0(3,3)": 20, "g0(4,3)": 12, "parabolic(3,3)": 20,
        "f4_3": 30, "e8_p5_3": 61, "e6_4": 27, "e7_4": 24, "e8_5a": 12,
    }
    for label, cap in expected.items():
        assert degree_cap(parse_case(label)) == cap, label


def test_case_elements_are_invariant_and_named():
    ring, basis = case_elements(parse_case("f4_3"))
    assert [name for name, _ in ring] == ["e3", "c3,2", "c3,1"]
    assert len(basis) == 8
    pres = case_group(parse_case("f4_3"))
    for name, el in ring + basis:
        assert is_invariant(el, pres), name


def test_element_degrees_match_description():
    for label in ("f4_3", "e6_4", "e7_4", "e8_5a", "e8_p5_3",
                  "sl(2,3)", "gl(2,3)", "sl(3,3)", "gl(3,3)", "sl(2,5)",
                  "gl(2,5)", "g0(3,3)", "g0(4,3)", "parabolic(3,3)",
                  "parabolic(4,3)"):
        case = parse_case(label)
        desc = module_description(case)
        ring, basis = case_elements(case)
        ring_degs = [el.coh_degree() for _, el in ring]
        assert ring_degs == list(desc.algebra_gen_degrees), label
        basis_degs = [el.coh_degree() for _, el in basis]
        assert sorted(basis_degs) == sorted(desc.basis_degrees), label


# -- degree-product and witness checks ---------------------------------------

def test_degree_products_match_group_orders():
    expected = {
        "sl(2,3)": 24, "gl(2,3)": 48, "sl(3,3)": 5616, "g0(3,3)": 9,
        "parabolic(3,3)": 216, "f4_3": 5616, "e6_4": 151632,
        "e7_4": 303264, "e8_p5_3": 372000,
    }
    for label, order in expected.items():
        rep = wilkerson_check(label)
        assert rep.degree_product == order == rep.group_order, label
        assert rep.ok, label


def test_phi_witness():
    for n in (2, 3):
        w = wilkerson_phi(F3, n)
        assert w.monic and w.coefficients_match and w.vanishes and w.ok
    d = wilkerson_phi(F3, 2).to_json_dict()
    assert d["ok"] is True and d["n"] == 2


def test_orbit_product_routes_stay_independent(monkeypatch):
    # the case table builds O(x1) by the Dickson sum; the witness keeps the
    # brute product and compares it with the Dickson sum
    methods = []
    real = fixedpoint.o_poly

    def spy(field, n, i, method="product"):
        methods.append(method)
        return real(field, n, i, method)

    monkeypatch.setattr(fixedpoint, "o_poly", spy)
    for label in ("g0(3,3)", "parabolic(3,3)"):
        fixedpoint._case_elements_cached.__wrapped__(label)
    assert set(methods) == {"dickson_sum"}
    methods.clear()
    assert wilkerson_phi(F3, 3).vanishes
    assert methods == ["product", "dickson_sum"]


def test_degree_product_not_defined_for_widest_case():
    with pytest.raises(NotApplicable):
        wilkerson_check("e8_5a")


# -- full verification -------------------------------------------------------

def test_verify_module_small_case():
    rep = verify_module("sl(2,3)", 12)
    assert rep.ok
    assert len(rep.rows) == 13
    assert all(r.match for r in rep.rows)
    assert all(flag for _, flag in rep.invariance)
    data = rep.to_json_dict()
    assert data["case"] == "sl(2,3)" and data["ok"] is True
    assert data["rows"][0] == {
        "d": 0, "computed": 1, "predicted": 1, "match": True}
    assert data["wilkerson"]["product_matches"] is True


@pytest.mark.parametrize("case, d_max", [
    (Case("sl(2,9)", "sl", F9, 2), 20),
    (Case("gl(2,25)", "gl", F25, 2), 12),
    (Case("g0(3,9)", "g0", F9, 3), 8),
], ids=lambda v: v.label if isinstance(v, Case) else str(v))
def test_verify_module_runs_over_the_case_field(case, d_max):
    # the elements come from the Case's own field, not from its label
    ring, basis = case_elements(case)
    assert all(el.field == case.field for _, el in ring + basis)
    rep = verify_module(case, d_max)
    assert rep.ok and len(rep.rows) == d_max + 1


def test_verify_module_rejects_degrees_past_cap():
    with pytest.raises(FeasibilityCapExceeded):
        verify_module("sl(2,3)", 100)
    with pytest.raises(NegativeDegree):
        verify_module("sl(2,3)", -1)


def test_verify_module_reports_inapplicable_product_check():
    rep = verify_module("e8_5a", 4)
    assert rep.wilkerson is None
    assert rep.to_json_dict()["wilkerson"] == {"applicable": False}
    assert rep.ok


# SHA-256 of verify_module(label, d).to_json_dict() as compact JSON, and of
# the names and JSON forms of case_elements(label), pinned to the output of
# the per-kind if-chains that the case table replaced
VERIFY_SHA256 = [
    ("sl(2,3)", 12,
     "36a0a4f4f8879b99958ad62ef9fe3b0fcfe6b169bcc852c823b28a9c67edc2a5"),
    ("gl(2,3)", 12,
     "4f06e5fc6474547e22a171f41cc84984c77075c2f661fac2c044c0fef14b2aa9"),
    ("sl(3,3)", 8,
     "a7b3a53670d8576368e3569453b1f796c54a1e7f95ebd1353f257a218a0137fd"),
    ("g0(3,3)", 8,
     "23afd2434e1ea07c97fcd55c1d214f80f330459ec768686b6c5696bade115f02"),
    ("parabolic(3,3)", 8,
     "e857550d6a467d89c3cd461aee6eeef922c724d5f9f801574f2b54c5b323fa0a"),
    ("f4_3", 8,
     "bf056da4cecc3df073c248609ec436d4740d8199ca88c8776a8da138a6af510d"),
    ("e8_p5_3", 8,
     "585234e6a41e9305cbaaadeaf87ae154623dd74e049d127fec0a6ec401a150e4"),
    ("e6_4", 8,
     "d173dbd6b61c5f5e74f7f74141a447a50497e887ffd864877c9d251885000786"),
    ("e7_4", 8,
     "070dfc2ebae59145f83298a974df4558253b5e27d3cc1d4123e4a41ba3066524"),
]

ELEMENTS_SHA256 = {
    "sl(2,3)": "e18c5f601bd4fb43e6c506e1d3aedcd77578e0ee58287a1ebc8bac0cf43d6261",
    "gl(2,3)": "7ff079f02dde3e37a60f4f2f34aa0a5a75391230761e692ee5dc0dd21683d7f6",
    "sl(3,3)": "08e81a1291ff529c61bff4334b30e2a8aa6fa24ea923f103417cc2824324b2aa",
    "g0(3,3)": "7140379b58ff91a53b86bba18f3e4558bf0c81b842437152e8d88273a81a4497",
    "parabolic(3,3)":
        "46b85286e90ef3d8d6881886e3bd82aa535169cba90f961f14d902c7e6b738d0",
    "f4_3": "2e94d71162546f283ce2e841b871fc49988a624ba402e9bf037971d7fddb7099",
    "e8_p5_3": "add4e5a47569294241a41833b56ec99e7238a1606fbffc22df8aafb02d1f0c15",
    "e6_4": "40e9bfc8da3046d98c045455654f3e7df5a6276b624445c7ebd55e3d0714a4d4",
    "e7_4": "cc1b0d16b232975501634a13d38a868e360bbcbf0caf316caae84f553fe57439",
}


@pytest.mark.parametrize("label, d, sha256", VERIFY_SHA256,
                         ids=[label for label, _, _ in VERIFY_SHA256])
def test_verify_module_output_is_pinned(label, d, sha256):
    text = json.dumps(verify_module(label, d).to_json_dict(),
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("label", ELEMENTS_SHA256)
def test_case_elements_are_pinned(label):
    assert elements_digest(*case_elements(label)) == ELEMENTS_SHA256[label]
