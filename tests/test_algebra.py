"""Polynomial and tensor algebra: arithmetic, grading, actions, JSON."""

import json
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from fqinv import (
    GroupMatrix,
    Polynomial,
    TensorElement,
    case_elements,
    diagonal,
    exact_divide,
    from_json,
    from_json_dict,
    milnor_composite,
    o_poly,
    pretty,
    pretty_polynomial,
    tensor_act,
    to_json,
    to_json_dict,
    top_form,
    wedge,
)
from fqinv.errors import (
    ArityMismatch,
    ArityTooSmall,
    BadIndexTuple,
    DegreeMismatch,
    FieldMismatch,
    FqinvError,
    IndexOutOfRange,
    NegativeDegree,
    NotAFieldValue,
    NotAnInteger,
    NotARawValue,
    NotDivisible,
    SerializationError,
)

from conftest import (
    ALL_FIELDS,
    F3,
    F9,
    random_invertible,
    random_polynomial,
    random_tensor,
)


def x(field, n, i, power=1):
    return Polynomial.variable(field, n, i, power)


def dx(field, n, *indices):
    return TensorElement.dx(field, n, indices)


# -- polynomial ring ---------------------------------------------------------

def test_polynomial_constructor_merges_and_drops_zeros():
    f = Polynomial(F3, 2, {(1, 0): 2, (0, 0): 3})
    assert f.terms == {(1, 0): 2}
    assert Polynomial(F3, 2, {}).is_zero()
    assert Polynomial.zero(F3, 2).is_zero()


def test_polynomial_ring_laws(rng):
    for field in (F3, F9):
        for _ in range(50):
            f = random_polynomial(rng, field, 3)
            g = random_polynomial(rng, field, 3)
            h = random_polynomial(rng, field, 3)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + (-f) == Polynomial.zero(field, 3)
            assert f - g == f + (-g)
            assert f * Polynomial.one(field, 3) == f


def test_polynomial_power_and_frobenius(rng):
    for _ in range(20):
        f = random_polynomial(rng, F9, 2)
        assert f ** 0 == Polynomial.one(F9, 2)
        assert f ** 3 == f * f * f
        assert f.q_power() == f ** F9.q


def test_no_variable_constants_keep_their_term():
    c = Polynomial.constant(F3, 0, 2)
    assert c.substitute_linear([]) == c
    assert c.q_power() == c and (c * c).terms == {(): 1}


def test_q_power_past_int64_exponents():
    f = x(F9, 2, 1, 1 << 61) + x(F9, 2, 2, 3)
    assert f.q_power().terms == {(9 << 61, 0): 1, (0, 27): 1}


def test_negative_power_raises_negative_degree():
    with pytest.raises(NegativeDegree):
        x(F3, 2, 1) ** -1


def test_polynomial_degree_and_homogeneity():
    f = x(F3, 2, 1, 3) * x(F3, 2, 2)  # x1^3 x2
    assert f.degree() == 4  # total degree in the variables
    assert f.is_homogeneous()
    assert not (f + x(F3, 2, 1)).is_homogeneous()
    assert Polynomial.zero(F3, 2).degree() == -1


def test_polynomial_project_and_map_variables():
    f = x(F3, 2, 1) * x(F3, 2, 2) + x(F3, 2, 1, 2)
    assert f.project(2) == x(F3, 2, 1, 2)
    g = f.map_variables(3, {1: 2, 2: 3})
    assert g == x(F3, 3, 2) * x(F3, 3, 3) + x(F3, 3, 2, 2)
    # non injective target: substitution x1 -> y, x2 -> y
    h = f.map_variables(1, {1: 1, 2: 1})
    assert h == x(F3, 1, 1, 2).scale_raw(2)


def test_exact_divide_roundtrip(rng):
    for _ in range(40):
        f = random_polynomial(rng, F3, 2, max_terms=3)
        g = random_polynomial(rng, F3, 2, max_terms=3)
        if g.is_zero():
            continue
        assert exact_divide(f * g, g) == f
    with pytest.raises(NotDivisible):
        exact_divide(x(F3, 2, 1), x(F3, 2, 2))


def test_mixed_arity_or_field_is_rejected():
    with pytest.raises(ArityMismatch):
        x(F3, 2, 1) + x(F3, 3, 1)
    with pytest.raises(FieldMismatch):
        x(F3, 2, 1) + x(F9, 2, 1)


# -- exterior part -----------------------------------------------------------

def test_wedge_squares_to_zero_and_anticommutes():
    u1, u2 = dx(F3, 3, 1), dx(F3, 3, 2)
    assert wedge(u1, u1).is_zero()
    assert wedge(u1, u2) == -wedge(u2, u1)
    assert wedge(wedge(u1, u2), dx(F3, 3, 3)) == dx(F3, 3, 1, 2, 3)


def test_dx_requires_increasing_indices():
    with pytest.raises(ValueError):
        TensorElement.dx(F3, 3, (2, 1))
    with pytest.raises(ValueError):
        TensorElement.dx(F3, 3, (1, 1))
    # reordering happens through the wedge, with the sign
    assert wedge(dx(F3, 3, 2), dx(F3, 3, 1)) == -dx(F3, 3, 1, 2)
    assert wedge(dx(F3, 3, 3), dx(F3, 3, 1, 2)) == dx(F3, 3, 1, 2, 3)


def test_tensor_product_koszul_sign(rng):
    # odd factors anticommute, odd times even commutes
    a = dx(F3, 3, 1)
    b = dx(F3, 3, 2)
    assert a * b == -(b * a)
    c = TensorElement.from_polynomial(x(F3, 3, 1))
    assert a * c == c * a
    for _ in range(30):
        u = random_tensor(rng, F3, 3, ext_parity=0)
        v = random_tensor(rng, F3, 3, ext_parity=0)
        assert u * v == v * u


def test_tensor_grading():
    u = TensorElement.from_polynomial(x(F3, 3, 1)) * dx(F3, 3, 2, 3)
    assert u.coh_degree() == 4
    assert list(u.exterior_degrees()) == [2]
    assert u.is_homogeneous()
    parts = dict(u.coh_components())
    assert set(parts) == {4}


def test_inhomogeneous_tensor_has_no_degree():
    # x1 dx2 has degree 3 and dx2 degree 1
    u = TensorElement.from_polynomial(x(F3, 3, 1)) * dx(F3, 3, 2) + dx(F3, 3, 2)
    assert not u.is_homogeneous()
    with pytest.raises(DegreeMismatch) as info:
        u.coh_degree()
    assert isinstance(info.value, ValueError)
    # x1 has degree 2 and dx1 dx2 dx3 degree 3
    v = TensorElement.from_polynomial(x(F3, 3, 1)) + dx(F3, 3, 1, 2, 3)
    assert not v.is_homogeneous()
    with pytest.raises(DegreeMismatch):
        v.coh_degree()
    zero = TensorElement.zero(F3, 3)
    assert zero.is_homogeneous() and zero.coh_degree() == 0


@pytest.mark.parametrize("exp, error", [
    ((1,), ArityMismatch), ((1, 2, 0), ArityMismatch), ((1, -1), NegativeDegree),
], ids=str)
def test_bad_exponent_tuples_raise_typed_errors(exp, error):
    with pytest.raises(error) as info:
        Polynomial(F3, 2, {exp: 1})
    assert isinstance(info.value, FqinvError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("ext", [(2, 1), (1, 1), (0,), (4,), (1, 4)], ids=str)
def test_bad_exterior_words_raise_bad_index_tuple(ext):
    with pytest.raises(BadIndexTuple) as info:
        TensorElement(F3, 3, {ext: Polynomial.one(F3, 3)})
    assert isinstance(info.value, ValueError)
    with pytest.raises(BadIndexTuple):
        TensorElement.dx(F3, 3, ext)


def test_map_variables_not_injective_on_words_raises_bad_index_tuple():
    u = dx(F3, 3, 1, 2)
    with pytest.raises(BadIndexTuple) as info:
        u.map_variables(3, {1: 2, 2: 2, 3: 3})
    assert isinstance(info.value, ValueError)
    # exponents may still merge: x1 dx3 and x2 dx3 map to x1 dx2 twice
    v = TensorElement(F3, 3, {(3,): x(F3, 3, 1) + x(F3, 3, 2)})
    assert v.map_variables(2, {1: 1, 2: 1, 3: 2}) == TensorElement(
        F3, 2, {(2,): x(F3, 2, 1).scale_raw(2)})


# -- group action ------------------------------------------------------------

def test_action_on_variables_uses_inverse_rows():
    # g: x1 -> x2, x2 -> 2 x1; entries of the inverse drive the action
    g = GroupMatrix(F3, [[0, 1], [2, 0]])
    u = TensorElement.from_polynomial(x(F3, 2, 1))
    got = tensor_act(g, u)
    inv = g.inverse_rows()
    expect = TensorElement.from_polynomial(
        x(F3, 2, 1).scale_raw(inv[0][0]) + x(F3, 2, 2).scale_raw(inv[0][1]))
    assert got == expect


def test_substitution_takes_raw_entries_unreduced():
    # raw 3 is t in F9 = F3[t]/(t^2 + 1); reducing it mod 3 would give 0
    t = F9.from_raw(3)
    f = x(F9, 2, 1) * x(F9, 2, 1)
    expect = x(F9, 2, 2).scale(t * t) * x(F9, 2, 2)
    assert f.substitute_linear([[0, 3], [0, 1]]) == expect
    assert f.substitute_linear([[0, t], [0, 1]]) == expect
    for bad in (-1, 9):
        with pytest.raises(ValueError):
            f.substitute_linear([[0, bad], [0, 1]])
    with pytest.raises(ArityMismatch):
        f.substitute_linear([[0, 1]])


@pytest.mark.parametrize("bad", [-1, 9, 3.0])
def test_entry_outside_the_raw_range_is_typed(bad):
    with pytest.raises(NotARawValue):
        x(F9, 2, 1).substitute_linear([[0, bad], [0, 1]])


@pytest.mark.parametrize("build", [
    lambda: Polynomial.constant(F3, 2, 1.5),
    lambda: Polynomial(F9, 1, {(1,): "a"}),
    lambda: x(F3, 2, 1).scale(None),
    lambda: TensorElement.one(F9, 2).scale([1]),
])
def test_non_field_value_is_typed(build):
    with pytest.raises(NotAFieldValue) as info:
        build()
    assert isinstance(info.value, TypeError)


def test_variable_reads_index_and_power_as_integers():
    assert x(F3, 2, np.int64(1), np.int64(2)).terms == {(2, 0): 1}
    assert type(next(iter(x(F3, 2, 1, np.int64(2)).terms))[0]) is int
    with pytest.raises(NegativeDegree):
        x(F3, 2, 1, -2)
    for i, power in ((1, 1.5), (1, 2.0), (1.0, 1), ("1", 1)):
        with pytest.raises(NotAnInteger) as info:
            x(F3, 2, i, power)
        assert isinstance(info.value, FqinvError)


@pytest.mark.parametrize("build", [
    lambda n: Polynomial(F3, n, {}),
    lambda n: Polynomial.zero(F3, n),
    lambda n: Polynomial.one(F3, n),
    lambda n: Polynomial.constant(F3, n, 2),
    lambda n: Polynomial.variable(F3, n, 1),
    lambda n: TensorElement(F3, n),
    lambda n: TensorElement.zero(F3, n),
    lambda n: TensorElement.one(F3, n),
    lambda n: TensorElement.dx(F3, n, (1,)),
], ids=["Polynomial", "Polynomial.zero", "Polynomial.one", "Polynomial.constant",
        "Polynomial.variable", "TensorElement", "TensorElement.zero",
        "TensorElement.one", "TensorElement.dx"])
def test_element_sizes_are_non_negative_integers(build):
    u = build(np.int64(2))
    assert u.n == 2 and type(u.n) is int
    for n in (2.0, 1.5, "2", None):
        with pytest.raises(NotAnInteger):
            build(n)
    with pytest.raises(ArityTooSmall) as info:
        build(-2)
    assert isinstance(info.value, FqinvError)


def test_coefficient_reads_its_exponent_as_integers():
    f = x(F3, 2, 1).scale(2)
    assert f.coefficient((np.int64(1), 0)) == 2
    assert f.coefficient([0, 1]) == 0
    for exp in ((1.0, 0), ("1", 0), 1):
        with pytest.raises(NotAnInteger):
            f.coefficient(exp)
    for exp in ((1,), (1, 0, 0)):
        with pytest.raises(ArityMismatch):
            f.coefficient(exp)


def test_polynomial_reads_exponents_as_integers():
    f = Polynomial(F3, 2, {(np.int64(1), np.int32(0)): 1})
    assert f == x(F3, 2, 1) and type(next(iter(f.terms))[0]) is int
    for exp in ((1.7, 0), (1.0, 0), ("1", 0)):
        with pytest.raises(NotAnInteger):
            Polynomial(F3, 2, {exp: 1})


def test_dx_reads_indices_as_integers():
    assert dx(F3, 3, np.int64(1), 2) == dx(F3, 3, 1, 2)
    for indices in ([1.9], [1, 2.0], ["1"]):
        with pytest.raises(NotAnInteger):
            TensorElement.dx(F3, 3, indices)


def test_tensor_reads_exterior_words_as_integers():
    one = Polynomial.one(F3, 2)
    assert TensorElement(F3, 2, {(np.int64(2),): one}) == dx(F3, 2, 2)
    for word in ((2.2,), (1, 2.0)):
        with pytest.raises(NotAnInteger):
            TensorElement(F3, 2, {word: one})


@pytest.mark.parametrize("call, numpy_ints, want, floats", [
    (lambda f, a, b: f ** a, (np.int64(2), None), x(F3, 2, 1, 2),
     [(1.5, None), (2.0, None)]),
    (lambda f, a, b: f.project(a), (np.int64(1), None), Polynomial.zero(F3, 2),
     [(1.5, None), (1.0, None)]),
    (lambda f, a, b: f.map_variables(a, {1: b}), (np.int64(2), np.int64(2)),
     x(F3, 2, 2), [(2, 1.5), (2.0, 2)]),
], ids=["pow", "project", "map_variables"])
def test_integer_arguments_reject_floats(call, numpy_ints, want, floats):
    f = x(F3, 2, 1)
    assert call(f, *numpy_ints) == want
    for args in floats:
        with pytest.raises(NotAnInteger):
            call(f, *args)


def test_tensor_map_variables_reads_integers_on_a_zero_element():
    # a zero element has no word to check, but its size and targets are
    # still read as integers
    zero = TensorElement.zero(F3, 2)
    moved = zero.map_variables(np.int64(3), {1: np.int64(2)})
    assert moved.is_zero() and moved.n == 3 and type(moved.n) is int
    with pytest.raises(NotAnInteger):
        zero.map_variables(2.0, {1: 1.5})


def test_tensor_map_variables_needs_a_target_for_every_exterior_index():
    with pytest.raises(IndexOutOfRange):
        dx(F3, 2, 1).map_variables(2, {})


def test_tensor_map_variables_keeps_exterior_targets_in_range():
    assert dx(F3, 2, 1).map_variables(2, {1: 2}) == dx(F3, 2, 2)
    for target in (7, 0, -1):
        with pytest.raises(IndexOutOfRange):
            dx(F3, 2, 1).map_variables(2, {1: target})


def test_action_composition_and_identity(rng):
    ident = diagonal(F3, [1, 1, 1])
    for _ in range(25):
        u = random_tensor(rng, F3, 3)
        g = random_invertible(rng, F3, 3)
        h = random_invertible(rng, F3, 3)
        assert tensor_act(ident, u) == u
        assert tensor_act(g * h, u) == tensor_act(g, tensor_act(h, u))


def test_action_is_multiplicative(rng):
    for _ in range(25):
        u = random_tensor(rng, F3, 2)
        v = random_tensor(rng, F3, 2)
        g = random_invertible(rng, F3, 2)
        assert tensor_act(g, u * v) == tensor_act(g, u) * tensor_act(g, v)


def test_action_twists_top_class_by_inverse_determinant():
    swap = GroupMatrix(F3, [[0, 1], [1, 0]])     # det -1
    rot = GroupMatrix(F3, [[0, 1], [2, 0]])      # det 1
    u2 = dx(F3, 2, 1, 2)
    assert tensor_act(swap, u2) == -u2
    assert tensor_act(rot, u2) == u2


# -- serialization and rendering --------------------------------------------

GOLDEN_JSON = ('{"field":{"p":3,"e":1,"modulus":null},"n":2,'
               '"terms":[{"c":[2],"exp":[0,1],"ext":[1]},'
               '{"c":[1],"exp":[1,0],"ext":[2]}]}')


def test_json_golden_string():
    u = TensorElement(F3, 2, {
        (1,): x(F3, 2, 2).scale_raw(2),
        (2,): x(F3, 2, 1),
    })
    assert to_json(u) == GOLDEN_JSON
    assert from_json(GOLDEN_JSON) == u


def test_json_roundtrip_random(rng):
    for field in (F3, F9):
        for _ in range(50):
            u = random_tensor(rng, field, 3)
            text = to_json(u)
            assert from_json(text) == u
            assert to_json(from_json(text)) == text


def test_json_rejects_malformed_input():
    with pytest.raises(SerializationError):
        from_json("not json at all {")
    with pytest.raises(SerializationError):
        from_json('{"field":{"p":3,"e":1,"modulus":null},"n":1,"terms":0}')
    data = json.loads(GOLDEN_JSON)
    data["terms"].append(dict(data["terms"][0]))  # duplicate term
    with pytest.raises(SerializationError):
        from_json(json.dumps(data))
    bad = json.loads(GOLDEN_JSON)
    bad["terms"][0]["c"] = [1, 2]  # wrong coordinate count for e = 1
    with pytest.raises(SerializationError):
        from_json(json.dumps(bad))


@pytest.mark.parametrize("key, value", [
    ("c", [1.5]), ("c", [2.0]), ("c", ["2"]), ("c", [True]),
    ("exp", [1.7, 0]), ("exp", [1.0, 0]), ("exp", ["1", 0]), ("exp", [True, 0]),
    ("ext", [1.9]), ("ext", [1.0]), ("ext", ["1"]), ("ext", [True]),
    ("n", True), ("n", 2.0), ("n", "2"),
    ("p", 3.0), ("p", "3"), ("p", True),
    ("e", 2.0), ("e", "2"), ("e", True),
    ("modulus", [1.0, 0, 1]), ("modulus", ["1", 0, 1]),
    ("modulus", [True, False, True]), ("modulus", [1, 0, 1.5]),
])
def test_json_rejects_non_integer_values(key, value):
    # a JSON float, string or boolean is no integer, even where it
    # equals one
    if key in ("p", "e", "modulus"):
        u = TensorElement(F9, 2, {(1,): x(F9, 2, 2).scale_raw(5)})
        data = json.loads(to_json(u))
        assert from_json(json.dumps(data)) == u
        data["field"][key] = value
    else:
        data = json.loads(GOLDEN_JSON)
    if key == "n":
        data["n"] = value
    elif key in ("c", "exp", "ext"):
        data["terms"][1][key] = value
    with pytest.raises(SerializationError):
        from_json(json.dumps(data))


X1_TERM = {"c": [1], "exp": [1, 0], "ext": []}


def _element(*terms):
    return json.dumps({"field": {"p": 3, "e": 1, "modulus": None}, "n": 2,
                       "terms": list(terms)}, separators=(",", ":"))


@pytest.mark.parametrize("zero_term", [
    {"c": [0], "exp": [-1, 0], "ext": []},  # negative exponent
    {"c": [0], "exp": [1, 0], "ext": []},   # a second copy of x1's exponent
], ids=["negative-exponent", "duplicate"])
def test_json_checks_zero_coefficient_terms(zero_term):
    with pytest.raises(SerializationError):
        from_json(_element(X1_TERM, zero_term))
    with pytest.raises(SerializationError):
        from_json(_element(zero_term, X1_TERM))


def test_json_leaves_out_valid_zero_terms():
    # a zero term beside x1, and one alone in the word dx1
    text = _element(X1_TERM, {"c": [0], "exp": [0, 2], "ext": []},
                    {"c": [0], "exp": [1, 1], "ext": [1]})
    u = from_json(text)
    assert u == TensorElement.from_polynomial(x(F3, 2, 1))
    assert list(u.parts) == [()]
    assert to_json(u) == _element(X1_TERM)


def test_json_reads_the_extension_degree_as_an_integer():
    # "e": true equals 1, so without the exact-int rule it names F3
    data = json.loads(GOLDEN_JSON)
    data["field"]["e"] = True
    with pytest.raises(SerializationError):
        from_json(json.dumps(data))


def _random_json_elements(rng):
    """Random elements over every conftest field, the zero element and an
    element with only the empty word."""
    for field in ALL_FIELDS:
        for _ in range(20):
            yield random_tensor(rng, field, 3, max_terms=8)
        yield TensorElement.zero(field, 2)
        yield TensorElement.from_polynomial(random_polynomial(rng, field, 2) + 1)


def _e8_5a_elements():
    ring, basis = case_elements("e8_5a")
    return [el for _, el in ring + basis]


def test_to_json_is_the_dump_of_to_json_dict(rng):
    for u in chain(_random_json_elements(rng), _e8_5a_elements()):
        assert to_json(u) == json.dumps(to_json_dict(u), separators=(",", ":"))


def _same_element(u, v):
    assert u == v
    assert list(u.parts) == list(v.parts)
    for word, poly in u.parts.items():
        assert list(poly.terms.items()) == list(v.parts[word].terms.items())


def test_from_json_reads_as_from_json_dict(rng):
    texts = []
    for u in _random_json_elements(rng):
        # a shuffled term list makes the order of the parts and of the
        # terms in each part differ from the canonical one
        data = json.loads(to_json(u))
        rng.shuffle(data["terms"])
        texts.append((u, json.dumps(data)))
    texts += [(u, to_json(u)) for u in _e8_5a_elements()]
    for u, text in texts:
        got = from_json(text)
        _same_element(got, from_json_dict(json.loads(text)))
        assert got == u


def test_json_reads_term_objects_in_any_key_order():
    data = json.loads(to_json(TensorElement(F9, 2, {
        (): x(F9, 2, 1).scale_raw(5) + x(F9, 2, 2),
        (1, 2): x(F9, 2, 1, 3),
    })))
    want = from_json_dict(data)
    terms = data["terms"]
    terms[0] = {"ext": terms[0]["ext"], "c": terms[0]["c"], "exp": terms[0]["exp"]}
    terms[1] = {**terms[1], "note": "kept out"}
    terms[2] = {"exp": terms[2]["exp"], "ext": terms[2]["ext"], "c": terms[2]["c"]}
    text = json.dumps(data)
    _same_element(from_json(text), want)
    _same_element(from_json_dict(json.loads(text)), want)


@pytest.mark.parametrize("where", ["top", "field", "terms", "terms of terms"])
def test_json_rejects_documents_shaped_like_a_term(where):
    term = {"c": [1], "exp": [1, 0], "ext": []}
    data = json.loads(GOLDEN_JSON)
    if where == "top":
        data = term
    elif where == "field":
        data["field"] = {"c": [3], "exp": [1], "ext": []}
    elif where == "terms":
        data["terms"] = {"c": [], "exp": [], "ext": []}
    else:
        # each member of the terms object a list of three term objects
        data["terms"] = {key: [term] * 3 for key in ("c", "exp", "ext")}
    with pytest.raises(SerializationError):
        from_json(json.dumps(data))
    with pytest.raises(SerializationError):
        from_json_dict(json.loads(json.dumps(data)))


def test_json_maps_decoder_failures_to_serialization_error():
    with pytest.raises(SerializationError):
        from_json("[" * 100000)
    with pytest.raises(SerializationError):
        from_json('{"field":' * 100000)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of memory traced while it ran."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_json_memory_follows_the_text():
    # x5*O(x1)*Q_{1,2}(dx1..dx5) over F3: 22 228 terms, about 1 MB of
    # text.  A dict and three lists per term took 13.8x the text's
    # length in each direction.
    orbit = Polynomial.variable(F3, 5, 5) * o_poly(F3, 5, 1)
    u = orbit * milnor_composite((1, 2), top_form(F3, 5))
    text, written = _traced_peak(to_json, u)
    assert written <= 6 * len(text)
    v, read = _traced_peak(from_json, text)
    assert read <= 9 * len(text)
    assert v == u


def test_pretty_rendering():
    f = x(F3, 2, 1, 3) * x(F3, 2, 2) + (x(F3, 2, 1) * x(F3, 2, 2, 3)).scale_raw(2)
    assert pretty_polynomial(f) == "x1^3*x2 + 2*x1*x2^3"
    u = TensorElement.from_polynomial(x(F3, 2, 1)) * dx(F3, 2, 2)
    assert pretty(u) == "x1*dx2"
    assert pretty(u, var="t") == "t1*dt2"
    assert pretty(TensorElement.zero(F3, 2)) == "0"
