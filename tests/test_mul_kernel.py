"""The packed-monomial multiplication kernel against the tuple-keyed
convolution it replaced, kept here as the oracle."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fqinv import Polynomial, TensorElement, algebra, tensor_act, transvection
from fqinv.errors import DegreeMismatch

from conftest import ALL_FIELDS, F5, F25, F125

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# the kernel's three routes: the Python loop, numpy with full chunks, and
# numpy with chunks so small that every product spans many of them
PATHS = ("python", "numpy", "numpy-small-chunks")


def reference_mul(field, a, b):
    """Product of two term dicts, one tuple-keyed pair at a time."""
    fadd, fmul = field.add, field.mul
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = fadd(out.get(exp, 0), fmul(ca, cb))
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
    return out


@contextmanager
def forced(path):
    saved = algebra._NUMPY_MIN_PAIRS, algebra._CHUNK_PAIRS
    algebra._NUMPY_MIN_PAIRS = 1 << 62 if path == "python" else 0
    if path == "numpy-small-chunks":
        algebra._CHUNK_PAIRS = 8
    try:
        yield
    finally:
        algebra._NUMPY_MIN_PAIRS, algebra._CHUNK_PAIRS = saved


def poly(field, n, terms):
    return Polynomial._make(field, n, dict(terms))


def check(field, n, a, b, path=None):
    """Kernel product equals the oracle's, term for term, both ways round."""
    want = reference_mul(field, a, b)
    for path in PATHS if path is None else (path,):
        with forced(path):
            assert (poly(field, n, a) * poly(field, n, b)).terms == want, path
            assert (poly(field, n, b) * poly(field, n, a)).terms == want, path
    return want


def term_dicts(field, n, max_terms=30, max_exp=12):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n),
        st.integers(1, field.q - 1),
        max_size=max_terms)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@seed(20261018)
@SETTINGS
@given(data=st.data())
def test_kernel_matches_reference(field, path, data):
    n = data.draw(st.integers(1, 4), label="n")
    a = data.draw(term_dicts(field, n), label="a")
    b = data.draw(term_dicts(field, n), label="b")
    check(field, n, a, b, path)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_zero_operand(field):
    f = {(2, 1): 1, (0, 3): field.q - 1}
    assert check(field, 2, {}, f) == {}
    assert check(field, 2, {}, {}) == {}


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_monomial_operand_with_non_unit_coefficient(field):
    c = field.q - 1 if field.e == 1 else field.p  # -1, or the generator t
    f = {(3, 0, 1): 1, (0, 2, 2): 2, (1, 1, 1): field.q - 1}
    got = check(field, 3, {(1, 2, 0): c}, f)
    assert got == {(4, 2, 1): c, (1, 4, 2): field.mul(2, c),
                   (2, 3, 1): field.mul(field.q - 1, c)}


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_cross_terms_cancel(field):
    minus = field.neg(1)
    got = check(field, 2, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): minus})
    assert got == {(2, 0): 1, (0, 2): minus}
    # in characteristic p, (x1 + x2)^(p-1) (x1 + x2) keeps only x1^p + x2^p
    x = Polynomial.variable(field, 2, 1) + Polynomial.variable(field, 2, 2)
    base = (x ** (field.p - 1)).terms
    assert check(field, 2, base, x.terms) == {(field.p, 0): 1, (0, field.p): 1}


def test_product_above_the_chunk_size():
    a = {(i, 7 - i % 8, i % 5): 1 + i % 4 for i in range(200)}
    b = {(j % 17, j, 3): 1 + j % 3 for j in range(300)}
    assert len(a) * len(b) > algebra._CHUNK_PAIRS
    check(F5, 3, a, b)
    # a factor longer than one chunk on its own
    long = {(j, 0): 1 + j % 4 for j in range(algebra._CHUNK_PAIRS + 5)}
    check(F5, 2, {(1, 0): 1, (0, 1): 2}, long, "numpy")


@pytest.mark.parametrize("field", (F5, F125), ids=repr)
def test_exponents_too_wide_for_int64_keys(field):
    a = {(1 << 40, 0): 1, (0, 1): 2}
    b = {(0, 1 << 30): 3, (1, 0): 1}
    got = check(field, 2, a, b)
    assert got[(1 << 40, 1 << 30)] == field.mul(1, 3)
    # past int64 altogether
    check(field, 2, {(1 << 70, 0): 1, (0, 1): 2}, b)
    with forced("python"):
        wide = Polynomial.variable(field, 2, 1, 1 << 40) * \
            Polynomial.variable(field, 2, 2, 1 << 30)
    assert wide.terms == {(1 << 40, 1 << 30): 1}


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_coordinate_lanes_at_their_extreme(field):
    # 125 terms of coefficient q-1 against 125 of coefficient 1: every
    # product has all its coordinates p-1, and 125 of them land on the
    # middle key (which p = 5 then cancels), so every route adds many
    # products of the largest digits into one key.
    a = {(i, 124 - i): field.q - 1 for i in range(125)}
    b = {exp: 1 for exp in a}
    got = check(field, 2, a, b)
    assert got.get((124, 124), 0) == field.mul(125 % field.p, field.q - 1)


# -- shared exponent objects -------------------------------------------------
#
# Every builder of a large term dict gives equal exponents above 256 one
# object.  The inputs are over F25 with exponents past 256, as the gl basis
# of Mui's theorem carries them.

BIG_A = {(300 + i, 2 * i, 7): 1 + i % 24 for i in range(12)}
BIG_B = {(i % 5, 300 + 3 * (i % 9), 500 - i): 1 + i % 23 for i in range(150)}
MONOMIAL = {(257, 0, 1000): 7}
# x1 -> x1 + x2, x2 -> 2 x2, x3 -> x3
ROWS = [[1, 1, 0], [0, 2, 0], [0, 0, 1]]
SMALL_B = dict(list(BIG_B.items())[:20])


def _todays_shift(exp, c, terms):
    fmul = F25.mul
    return {tuple(x + y for x, y in zip(e, exp)): fmul(v, c)
            for e, v in terms.items()}


def _by_packed_key(terms):
    """terms in the order of the numpy routes: ascending packed key, with
    x_1 in the lowest bits."""
    return dict(sorted(terms.items(), key=lambda t: t[0][::-1]))


def _substitute_by_python(terms):
    with forced("python"):
        return poly(F25, 3, terms).substitute_linear(ROWS).terms


BUILDERS = {
    # name: (route, the term dict it builds, the same dict as built before
    # exponents were shared, with the same keys, raws and order; None where
    # the same route unpacking without sharing shows it)
    "mul-numpy": ("numpy", lambda: poly(F25, 3, BIG_A) * poly(F25, 3, BIG_B),
                  lambda: _by_packed_key(reference_mul(F25, BIG_A, BIG_B))),
    "mul-python": ("python", lambda: poly(F25, 3, BIG_A) * poly(F25, 3, BIG_B),
                   lambda: reference_mul(F25, BIG_A, BIG_B)),
    "shift-numpy": (None, lambda: poly(F25, 3, MONOMIAL) * poly(F25, 3, BIG_B),
                    lambda: _todays_shift((257, 0, 1000), 7, BIG_B)),
    "q_power": (None, lambda: poly(F25, 3, BIG_B).q_power(),
                lambda: {tuple(e * 25 for e in exp): c
                         for exp, c in BIG_B.items()}),
    "substitute-numpy": ("numpy",
                         lambda: poly(F25, 3, BIG_B).substitute_linear(ROWS),
                         lambda: _by_packed_key(_substitute_by_python(BIG_B))),
    "substitute-python": ("python",
                          lambda: poly(F25, 3, SMALL_B).substitute_linear(ROWS),
                          None),
}


def build(name):
    path, make, _ = BUILDERS[name]
    if path is None:
        return make().terms
    with forced(path):
        return make().terms


@contextmanager
def unshared():
    """Unpack every column with plain tolist(), as before exponents were
    shared."""
    saved = algebra._SMALL_INT_MAX
    algebra._SMALL_INT_MAX = 1 << 63
    try:
        yield
    finally:
        algebra._SMALL_INT_MAX = saved


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_give_equal_exponents_one_object(name):
    terms = build(name)
    values = [e for exp in terms for e in exp]
    assert len({id(v) for v in values}) == len(set(values))
    # not vacuous: some exponent past 256 sits in more than one term
    big = [v for v in values if v > algebra._SMALL_INT_MAX]
    assert len(big) > len(set(big))


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_keep_keys_raws_and_order(name):
    got = build(name)
    todays = BUILDERS[name][2]
    if todays is None:
        with unshared():
            want = build(name)
        values = [e for exp in want for e in exp]
        assert len({id(v) for v in values}) > len(set(values))
    else:
        want = todays()
    assert list(got.items()) == list(want.items())


@pytest.fixture
def shift_routes(monkeypatch):
    """Names the route of each _shift_terms call: "numpy" when it builds
    its dict through _term_dict."""
    routes = []
    real_shift, real_term_dict = algebra._shift_terms, algebra._term_dict

    def shift(*args):
        routes.append("python")
        return real_shift(*args)

    def term_dict(cols, raws):
        routes[-1] = "numpy"
        return real_term_dict(cols, raws)

    monkeypatch.setattr(algebra, "_shift_terms", shift)
    monkeypatch.setattr(algebra, "_term_dict", term_dict)
    return routes


@pytest.mark.parametrize("c", [1, 7], ids=["one", "other"])
@pytest.mark.parametrize("size, top, exp, route", [
    (algebra._NUMPY_MIN_PAIRS - 1, 900, (300, 0, 2), "python"),
    (algebra._NUMPY_MIN_PAIRS, 900, (300, 0, 2), "numpy"),
    # exponents past int64: no int64 array holds the terms
    (algebra._NUMPY_MIN_PAIRS, 1 << 70, (300, 0, 2), "python"),
    # the terms fit int64 and the monomial does; their sums reach int64's
    # largest value, or pass it
    (algebra._NUMPY_MIN_PAIRS, 1 << 62, ((1 << 62) - 1, 0, 2), "numpy"),
    (algebra._NUMPY_MIN_PAIRS, 1 << 62, (1 << 62, 0, 2), "python"),
], ids=["127", "128", "past-int64", "sum-at-int64-max", "sum-past-int64"])
def test_shift_terms_matches_reference(shift_routes, c, size, top, exp, route):
    terms = {(top - i, i % 3, 5 * i): 1 + i % 24 for i in range(size)}
    got = poly(F25, 3, {exp: c}) * poly(F25, 3, terms)
    want = reference_mul(F25, {exp: c}, terms)
    assert list(got.terms.items()) == list(want.items())
    assert shift_routes == [route]



# -- packed results ----------------------------------------------------------
#
# Every numpy exit returns a Polynomial that holds the kernel's arrays until
# its terms are read.  Each is checked against its Python-loop route: the
# structure queries, answered from the arrays without building the dict; the
# terms once built; and their order, which is ascending packed key for the
# numpy routes and the input's order for a monomial shift and q_power.

def draw_terms(field, rng, size, top, homogeneous, n=3):
    """size terms in n variables of total degree top, or of any degree up
    to top, with random nonzero raws."""
    degrees = [top] if homogeneous else range(top + 1)
    pool = [e for d in degrees for e in algebra._compositions(d, n)]
    return {e: rng.randrange(1, field.q) for e in rng.sample(pool, size)}


def structure(p):
    """is_zero, degree and is_homogeneous of p, and is_homogeneous and
    coh_degree (None when it raises) of p as an element."""
    u = TensorElement.from_polynomial(p)
    try:
        coh = u.coh_degree()
    except DegreeMismatch:
        coh = None
    return p.is_zero(), p.degree(), p.is_homogeneous(), u.is_homogeneous(), coh


def python_route(make):
    with forced("python"):
        return make()


def packed_exits(field, rng, homogeneous):
    """name -> (a function that computes a Polynomial through one numpy
    exit, the same Polynomial from its Python loop, the order of its terms
    as a function of their dict)."""
    a = poly(field, 3, draw_terms(field, rng, 12, 9, homogeneous))
    b = poly(field, 3, draw_terms(field, rng, 15, 9, homogeneous))
    big = poly(field, 3, draw_terms(field, rng, algebra._NUMPY_MIN_PAIRS + 2,
                                    15, homogeneous))
    c = field.q - 1 if field.e == 1 else field.p
    monomial = poly(field, 3, {(2, 0, 5): c})
    rows = [[1, c, 0], [0, 1, 0], [0, 0, field.q - 1]]
    # x_1 -> 0 on terms that all hold x_1: the image is zero
    with_x1 = poly(field, 3, {(e[0] + 1, *e[1:]): v
                              for e, v in big.terms.items()})
    projection = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    exits = {
        "mul": (lambda: a * b, None, _by_packed_key),
        "shift": (lambda: monomial * big, None, dict),
        "q_power": (big.q_power, lambda: poly(field, 3, {
            tuple(e * field.q for e in exp): v
            for exp, v in big.terms.items()}), dict),
        "substitute": (lambda: big.substitute_linear(rows), None,
                       _by_packed_key),
        "substitute-to-zero": (lambda: with_x1.substitute_linear(projection),
                               None, _by_packed_key),
    }
    return {name: (make, python_route(oracle or make), order)
            for name, (make, oracle, order) in exits.items()}


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "mixed"])
@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_packed_exits_match_the_python_routes(field, homogeneous):
    rng = random.Random(field.q)
    for name, (make, want, order) in packed_exits(
            field, rng, homogeneous).items():
        got = make()
        assert got._arrays is not None, name
        assert structure(got) == structure(want), name
        assert got._arrays is not None, name     # the queries left it packed
        assert got.terms == want.terms, name
        assert list(got.terms) == list(order(want.terms)), name


def _word_mask(word):
    return sum(1 << (j - 1) for j in word)


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "mixed"])
@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_packed_tensor_act_matches_the_python_route(field, homogeneous):
    rng = random.Random(field.q)
    size = algebra._NUMPY_MIN_PAIRS // 2 + 1
    # 2|exp| + |word| is 30 on both words when homogeneous
    u = TensorElement._make(field, 3, {
        (): poly(field, 3, draw_terms(field, rng, size, 15, homogeneous)),
        (1, 2): poly(field, 3, draw_terms(field, rng, size, 14, homogeneous))})
    c = field.q - 1 if field.e == 1 else field.p
    g = transvection(field, 3, 1, 2, field.from_raw(c))
    got = tensor_act(g, u)
    want = python_route(lambda: tensor_act(g, u))
    assert all(p._arrays is not None for p in got.parts.values())
    try:
        coh = got.coh_degree()
    except DegreeMismatch:
        coh = None
    assert coh == (30 if homogeneous else None)
    assert got.is_homogeneous() == homogeneous
    assert [structure(p) for p in got.parts.values()] == \
        [structure(want.parts[word]) for word in got.parts]
    assert all(p._arrays is not None for p in got.parts.values())
    assert list(got.parts) == sorted(want.parts, key=_word_mask)
    for word, p in got.parts.items():
        assert list(p.terms.items()) == \
            list(_by_packed_key(want.parts[word].terms).items()), word
