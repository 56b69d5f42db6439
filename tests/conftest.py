"""Shared fixtures: fields of each supported shape and seeded random
builders for polynomials, tensor elements, and invertible matrices."""

import hashlib
import random

import pytest

from fqinv import Polynomial, TensorElement, make_field, to_json

F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(3, 2, [1, 0, 1])
F25 = make_field(5, 2, [3, 0, 1])
F27 = make_field(3, 3, [2, 2, 0, 1])
F125 = make_field(5, 3, [1, 1, 0, 1])

ALL_FIELDS = [F3, F5, F9, F25, F27, F125]


@pytest.fixture
def rng():
    return random.Random(20260822)


def random_polynomial(rng, field, n, max_terms=4, max_exp=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        terms[exp] = rng.randrange(field.q)
    return Polynomial(field, n, terms)


def random_tensor(rng, field, n, max_terms=4, max_exp=6, ext_parity=None):
    total = TensorElement.zero(field, n)
    for _ in range(rng.randrange(max_terms + 1)):
        sizes = range(n + 1) if ext_parity is None else \
            range(ext_parity & 1, n + 1, 2)
        r = rng.choice(list(sizes))
        ext = tuple(sorted(rng.sample(range(1, n + 1), r)))
        exp = tuple(rng.randrange(max_exp + 1) for _ in range(n))
        c = rng.randrange(field.q)
        part = Polynomial(field, n, {exp: c}) if field.e == 1 else \
            Polynomial(field, n, {exp: field.from_raw(c)})
        total = total + TensorElement(field, n, {ext: part})
    return total


def random_invertible(rng, field, n, steps=6):
    """Random product of transvections and invertible diagonals."""
    from fqinv import diagonal, transvection

    g = diagonal(field, [1] * n)
    for _ in range(steps):
        if n > 1 and rng.random() < 0.7:
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            while j == i:
                j = rng.randrange(1, n + 1)
            g = g * transvection(field, n, i, j, rng.randrange(1, field.p))
        else:
            entries = [field.from_raw(rng.randrange(1, field.q))
                       for _ in range(n)]
            g = g * diagonal(field, entries)
    return g


def elements_digest(ring, basis):
    """SHA-256 of the names and JSON forms of a case's elements, ring
    generators first, so that a refactor of the element builders can be
    checked for byte-identical output."""
    h = hashlib.sha256()
    for part in (ring, basis):
        for name, el in part:
            h.update(f"{name}\t{to_json(el)}\n".encode())
        h.update(b"\n")
    return h.hexdigest()
