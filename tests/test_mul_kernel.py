"""The packed-monomial multiplication kernel against the tuple-keyed
convolution it replaced, kept here as the oracle."""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from fqinv import Polynomial, algebra

from conftest import ALL_FIELDS, F5, F125

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
