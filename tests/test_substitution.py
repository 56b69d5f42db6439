"""The packed-key linear substitution against the tuple-keyed expansion it
replaced, kept here as the oracle, and the group action built on it.  Each
randomized test runs through every route of the kernel: the Python loop,
and numpy, with full and with tiny chunks, for every input whose keys fit
one int64."""

import random
from contextlib import contextmanager
from math import comb

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fqinv import (
    GroupMatrix,
    Polynomial,
    TensorElement,
    algebra,
    case_elements,
    case_group,
    is_invariant,
    tensor_act,
)

from conftest import ALL_FIELDS, F3, F9, F27, F125

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

KINDS = ("transvection", "monomial", "diagonal", "dense", "singular")
# the kernel's routes: the Python loop, numpy with full chunks, and numpy
# with chunks so small that every image spans many of them
ROUTES = ("python", "numpy", "numpy-small-chunks")


@contextmanager
def forced(route):
    """Send every substitution, action and product to one route, whatever
    its size."""
    saved = algebra._NUMPY_MIN_PAIRS, algebra._CHUNK_PAIRS
    algebra._NUMPY_MIN_PAIRS = 1 << 62 if route == "python" else 0
    if route == "numpy-small-chunks":
        algebra._CHUNK_PAIRS = 8
    try:
        yield
    finally:
        algebra._NUMPY_MIN_PAIRS, algebra._CHUNK_PAIRS = saved


def reference_power(field, n, entries, k):
    """(sum of c_j x_j)^k as a term dict by k - 1 repeated products;
    entries is [(j0, c)...]."""
    if len(entries) == 0:
        return {} if k > 0 else {(0,) * n: field.one}
    if len(entries) == 1:
        j, c = entries[0]
        exp = tuple(k if t == j else 0 for t in range(n))
        return {exp: field.pow_(c, k)}
    fadd, fmul = field.add, field.mul
    acc = {tuple(1 if t == j else 0 for t in range(n)): c for j, c in entries}
    for _ in range(k - 1):
        nxt = {}
        for e1, c1 in acc.items():
            for j, c in entries:
                ee = list(e1)
                ee[j] += 1
                ee = tuple(ee)
                s = fadd(nxt.get(ee, 0), fmul(c1, c))
                if s:
                    nxt[ee] = s
                elif ee in nxt:
                    del nxt[ee]
        acc = nxt
    return acc


def reference_substitute(field, n, rows, terms):
    """terms under x_i -> sum_j rows[i][j] x_j, rows as raw values: every
    term's image is the tuple-keyed product of its rows' powers."""
    sparse = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
    fadd, fmul = field.add, field.mul
    out = {}
    for exp, coeff in terms.items():
        acc = {(0,) * n: field.one}
        for i, e in enumerate(exp):
            if e == 0:
                continue
            part = reference_power(field, n, sparse[i], e)
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in part.items():
                    ee = tuple(a + b for a, b in zip(e1, e2))
                    s = fadd(nxt.get(ee, 0), fmul(c1, c2))
                    if s:
                        nxt[ee] = s
                    elif ee in nxt:
                        del nxt[ee]
            acc = nxt
        for ee, c in acc.items():
            s = fadd(out.get(ee, 0), fmul(c, coeff))
            if s:
                out[ee] = s
            elif ee in out:
                del out[ee]
    return out


def check(field, n, rows, terms):
    want = reference_substitute(field, n, rows, terms)
    got = Polynomial._make(field, n, dict(terms)).substitute_linear(rows)
    assert got.terms == want
    return want


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def nonzero(field):
    return st.integers(1, field.q - 1)


@st.composite
def matrices(draw, field, n, kind):
    """Raw rows of one matrix kind; scalars range over the whole field, so
    over extension fields they are mostly outside the prime subfield."""
    rows = identity(n)
    if kind == "transvection":
        if n > 1:
            i, j = draw(st.permutations(range(n)))[:2]
            rows[i][j] = draw(nonzero(field))
    elif kind in ("monomial", "diagonal"):
        perm = draw(st.permutations(range(n))) if kind == "monomial" \
            else range(n)
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = draw(nonzero(field))
    elif kind == "dense":
        rows = [[draw(nonzero(field)) for _ in range(n)] for _ in range(n)]
    else:
        # rank below n: a zero row, a repeated row or a projection onto
        # one variable, so images of distinct monomials collide
        rows = [[draw(st.integers(0, field.q - 1)) for _ in range(n)]
                for _ in range(n)]
        shape = draw(st.sampled_from(("zero row", "repeat", "project")))
        i = draw(st.integers(0, n - 1))
        if shape == "zero row":
            rows[i] = [0] * n
        elif shape == "repeat":
            rows[i] = list(rows[draw(st.integers(0, n - 1))]) if n > 1 \
                else [0]
        else:
            rows = [[draw(nonzero(field)) if j == i else 0 for j in range(n)]
                    for _ in range(n)]
    return rows


def term_dicts(field, n, max_terms, max_exp):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n),
        nonzero(field), max_size=max_terms)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_substitution_matches_reference(field, kind, data):
    # a matrix with one long row stays cheap for the oracle up to
    # exponents with three base-p digits; dense ones get smaller inputs
    cheap = kind in ("transvection", "monomial", "diagonal")
    n = data.draw(st.integers(1, 4 if cheap else 3), label="n")
    rows = data.draw(matrices(field, n, kind), label="rows")
    terms = data.draw(term_dicts(field, n, 12 if cheap else 6,
                                 3 * field.p ** 2 if cheap else 7),
                      label="terms")
    for route in ROUTES:
        with forced(route):
            check(field, n, rows, terms)


@pytest.fixture
def routes(monkeypatch):
    """The routes the substitution kernel takes, in call order."""
    taken = []
    for route, name in (("python", "_substitute_python"),
                        ("numpy", "_substitute_pieces"),
                        ("tensor", "_act_arrays")):
        def spy(*args, _route=route, _kernel=getattr(algebra, name)):
            taken.append(_route)
            return _kernel(*args)
        monkeypatch.setattr(algebra, name, spy)
    return taken


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261019)
@settings(SETTINGS, max_examples=2)
@given(data=st.data())
def test_substitution_above_the_numpy_threshold(field, kind, data):
    # real sizes, no forced route: enough terms for numpy, and every
    # exponent small enough to keep the oracle cheap
    size = algebra._NUMPY_MIN_PAIRS
    n = data.draw(st.integers(2, 3), label="n")
    rows = data.draw(matrices(field, n, kind), label="rows")
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 16 if n == 2 else 6)] * n),
        nonzero(field), min_size=size, max_size=size + 20), label="terms")
    check(field, n, rows, terms)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_zero_polynomial_and_constants(field):
    rows = [[1, field.q - 1], [0, 1]]
    assert check(field, 2, rows, {}) == {}
    c = field.q - 1
    assert check(field, 2, rows, {(0, 0): c}) == {(0, 0): c}
    # a zero row kills every term that uses its variable
    assert check(field, 2, [[0, 0], [1, 1]], {(1, 0): 1, (2, 3): c}) == {}


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_transvection_keeps_only_lucas_terms(field):
    # (x1 + c x2)^e has a term x1^(e-k) x2^k exactly when every base-p
    # digit of k is at most that of e: prod (e_d + 1) terms
    p = field.p
    e = (p - 1) + 1 * p + (p - 2) * p * p
    c = field.q - 1 if field.e == 1 else p          # -1, or the generator t
    got = check(field, 2, [[1, c], [0, 1]], {(e, 0): 1})
    assert len(got) == p * 2 * (p - 1)
    for (a, b), raw in got.items():
        assert a + b == e
        assert all(b // p ** d % p <= e // p ** d % p for d in range(3))
        assert raw == field.mul(comb(e, b) % p, field.pow_(c, b))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_projection_adds_colliding_images(field):
    # x1 -> x1, x2 -> x1: x1^2 + 2 x1 x2 + x2^2 -> 4 x1^2, which F3 sees
    # as x1^2 and F5 as 4 x1^2
    terms = {(2, 0): 1, (1, 1): 2 % field.p, (0, 2): 1}
    got = check(field, 2, [[1, 0], [1, 0]], terms)
    assert got == {(2, 0): 4 % field.p}
    # p copies of the same image cancel
    minus = field.neg(1)
    assert check(field, 2, [[1, 0], [1, 0]], {(1, 0): 1, (0, 1): minus}) == {}


@st.composite
def invertible(draw, field, n):
    """A monomial matrix times a few transvections, with scalars from the
    whole field; the simplest draw is the identity."""
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = draw(nonzero(field))
    g = GroupMatrix.from_raw_rows(field, rows)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = identity(n)
        rows[i][j] = draw(nonzero(field))
        g = g * GroupMatrix.from_raw_rows(field, rows)
    return g


@st.composite
def elements(draw, field, n):
    parts = {}
    for r in range(n + 1):
        ext = tuple(sorted(draw(st.sets(st.integers(1, n),
                                        min_size=r, max_size=r))))
        terms = draw(term_dicts(field, n, 4, 5))
        if terms:
            parts[ext] = Polynomial._make(field, n, terms)
    return TensorElement._make(field, n, parts)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_action_is_a_left_action(field, data):
    n = data.draw(st.integers(1, 3), label="n")
    g = data.draw(invertible(field, n), label="g")
    h = data.draw(invertible(field, n), label="h")
    u = data.draw(elements(field, n), label="u")
    for route in ROUTES:
        with forced(route):
            assert tensor_act(g * h, u) == tensor_act(g, tensor_act(h, u))
            assert tensor_act(g, tensor_act(g.inverse(), u)) == u


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261019)
@SETTINGS
@given(data=st.data())
def test_action_is_multiplicative(field, data):
    # g.(uv) = (g.u)(g.v): the action respects the Koszul signs of the
    # exterior products on both sides
    n = data.draw(st.integers(1, 3), label="n")
    g = data.draw(invertible(field, n), label="g")
    u = data.draw(elements(field, n), label="u")
    v = data.draw(elements(field, n), label="v")
    for route in ROUTES:
        with forced(route):
            assert tensor_act(g, u * v) == tensor_act(g, u) * tensor_act(g, v)


def changed_elements(u):
    """u with one exterior part dropped, and u with the coefficient of the
    first term of one part moved by 1, for every part."""
    field = u.field
    for word, poly in u.parts.items():
        yield TensorElement._make(u.field, u.n, {
            w: p for w, p in u.parts.items() if w != word})
        exp, c = next(iter(poly.terms.items()))
        terms = dict(poly.terms)
        terms[exp] = field.add(c, field.one)
        if not terms[exp]:
            del terms[exp]
        yield TensorElement._make(u.field, u.n, {
            **u.parts, word: Polynomial._make(field, u.n, terms)})


@pytest.mark.parametrize("route", ROUTES)
def test_is_invariant_rejects_a_changed_element(route):
    # no monomial other than 1 is fixed by e7_4, so any change to one term
    # or one part of an invariant leaves something the group moves
    u = dict(case_elements("e7_4")[1])["O(x1)*Q[0,1](dx1dx2dx3dx4)"]
    group = case_group("e7_4")
    assert len(u.parts) > 1
    assert sum(len(p.terms) for p in u.parts.values()) \
        >= algebra._NUMPY_MIN_PAIRS
    # the reflection x1 -> -x1 keeps every key, so only the raws tell
    # u + x1 from its image u - x1
    reflection = group.generators[-1]
    assert reflection.rows[0][0] == u.field.neg(1)
    x1 = TensorElement.from_polynomial(Polynomial.variable(u.field, u.n, 1))
    with forced(route):
        assert is_invariant(u, group)
        for changed in changed_elements(u):
            assert not is_invariant(changed, group)
        assert is_invariant(u, [reflection])
        assert not is_invariant(u + x1, [reflection])


@pytest.mark.parametrize("field", (F3, F9), ids=repr)
def test_exponents_past_one_machine_word(field):
    # keys are plain ints, so no width limit applies
    big = 1 << 70
    c = field.q - 1
    rows = [[1, c], [0, 1]]
    check(field, 2, rows, {(1, big): 1, (2, big + 5): 2})
    # Frobenius: (x1 + c x2)^(p^k) = x1^(p^k) + c^(p^k) x2^(p^k)
    e = field.p ** 45
    got = Polynomial._make(field, 2, {(e, 0): 1}).substitute_linear(rows)
    assert got.terms == {(e, 0): 1, (0, e): field.pow_(c, e)}


def test_lanes_wider_than_int64():
    # two rows with two entries each convolve row powers of degree up to
    # 5^13 over F125; the keys of the image still fit 31 bits a variable
    e, t = 5 ** 13, F125.p                      # t is the generator
    rows = [[t, 1], [1, t]]
    got = Polynomial._make(F125, 2, {(e, 0): 1, (0, 1): 2}).substitute_linear(rows)
    assert got.terms == {(e, 0): F125.pow_(t, e), (0, e): 1,
                         (1, 0): 2, (0, 1): F125.mul(2, t)}


def test_many_products_per_key_take_numpy(routes):
    # 300 terms of degree 150 in 4 variables over F27, under two rows with
    # two entries each: a key of the image can collect a product from
    # every monomial of degree 150, and numpy adds them all as digit sums
    rng = random.Random(20261019)
    t = F27.p                                   # the generator
    rows = [[1, t, 0, 0], [0, 1, 0, t], [0, 0, 1, 0], [0, 0, 0, 2]]
    terms = {}
    while len(terms) < 300:
        a, b, c = sorted(rng.randint(0, 150) for _ in range(3))
        terms[a, b - a, c - b, 150 - c] = rng.randrange(1, F27.q)
    check(F27, 4, rows, terms)
    assert routes == ["numpy"]


def test_routing_boundaries(routes):
    # keys exactly _INT64_BITS wide go to numpy and one bit wider to the
    # Python loop; only the key width decides, so even when every size
    # goes to numpy, exponents past one machine word stay on the Python
    # loop while the F125 row powers of degree 5^13 take numpy
    size, bits = algebra._NUMPY_MIN_PAIRS, algebra._INT64_BITS
    scale = [[2]]                               # x1 -> 2 x1, dx1 -> 2 dx1
    for width, route in ((bits, "numpy"), (bits + 1, "python")):
        terms = {((1 << width) - 1 - k,): 1 for k in range(size)}
        routes.clear()
        check(F3, 1, scale, terms)
        assert routes == [route], width
    # a tensor element's keys carry n more bits for its exterior word
    g = GroupMatrix.from_raw_rows(F3, scale)
    for width, route in ((bits - 1, ["tensor", "numpy"]), (bits, ["numpy"])):
        u = TensorElement._make(F3, 1, {(1,): Polynomial._make(
            F3, 1, {((1 << width) - 1 - k,): 1 for k in range(size)})})
        routes.clear()
        assert tensor_act(g, tensor_act(g.inverse(), u)) == u
        assert routes == route * 2, width
    routes.clear()
    with forced("numpy"):
        test_exponents_past_one_machine_word(F3)
    assert routes and set(routes) == {"python"}
    routes.clear()
    with forced("numpy"):
        test_lanes_wider_than_int64()
    assert routes == ["numpy"]
