"""Dickson-type invariants, orbit products and determinant bases.

The top class and the determinant bases are composites of the Milnor
derivations on the top exterior class dx_1...dx_n; the coefficient
invariants and orbit products come from one additive polynomial:

  * dickson_e(n): the product of one linear form per line through the
    origin, obtained as Q_0...Q_{n-1}(dx_1...dx_n); the fundamental
    degree-(q^n - 1)/(q - 1) invariant.
  * f_poly(n): the monic additive polynomial whose roots are exactly the
    F_q-span of x_1..x_n, with X encoded as an extra last variable; it is
    sum_i (-1)^(n-i) c_{n,i} X^(q^i).
  * dickson_c(n, i): coefficient invariants, read off f_poly(n).
  * o_poly(n, i): the orbit product of x_i over the span of x_2..x_n,
    which is f_poly(n - 1) evaluated at X = x_i.
  * mui_det / mui_bracket: determinant and shuffle-sum forms of the same
    classes, used to cross-check the operator route sign by sign.

The brute "product" routes (f_poly, o_poly, o_prev) multiply their linear
factors coset by coset: q at a time (a line), then q of those (a
2-dimensional subspace), and so on.  A coset product P_W(x) - P_W(v) stays
sparse where one running product goes dense; no additivity is used, so it
stays an independent oracle.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations, product

from .algebra import Polynomial, TensorElement, _ints, _sort_sign
from .errors import (
    ArityTooSmall,
    DegreeMismatch,
    IndexOutOfRange,
    ProductTooLarge,
    UnknownCase,
    UnknownMethod,
)
from .field import FieldSpec
from .milnor import milnor_composite

_PRODUCT_CAP = 243


def top_form(field: FieldSpec, n: int) -> TensorElement:
    """dx_1 ^ ... ^ dx_n."""
    (n,) = _ints((n,), "n")
    return TensorElement.dx(field, n, range(1, n + 1))


def index_subsets(n: int, max_size=None):
    """Subsets of {0..n-1} ordered by (size, lex); max_size trims large ones."""
    n, max_size = _ints((n, n if max_size is None else max_size),
                        "n and max_size")
    out = []
    for r in range(max_size + 1):
        out.extend(combinations(range(n), r))
    return out


@lru_cache(maxsize=None, typed=True)   # a float misses the int's entry
def dickson_e(field: FieldSpec, n: int) -> Polynomial:
    (n,) = _ints((n,), "n")
    if n < 1:
        raise ArityTooSmall("need n >= 1")
    full = milnor_composite(tuple(range(n)), top_form(field, n))
    poly = full.polynomial_part()
    assert not poly.is_zero()
    return poly


def dickson_c(field: FieldSpec, n: int, i: int) -> Polynomial:
    """(-1)^(n-i) times the X^(q^i) coefficient of f_poly(n)."""
    n, i = _ints((n, i), "n and coefficient index")
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"coefficient index {i} not in 0..{n}")
    top = field.q ** i
    c = Polynomial._make(field, n, {
        exp[:-1]: raw for exp, raw in f_poly(field, n).terms.items()
        if exp[-1] == top})
    return -c if (n - i) & 1 else c


def _span_product(field, N, lead, span) -> Polynomial:
    """Product of x_lead + sum_t a_t x_{span[t]} over all raw vectors a,
    q factors (one coset) at a time; see the module docstring."""
    q, head = field.q, Polynomial.variable(field, N, lead)
    xs = [Polynomial.variable(field, N, t) for t in span]
    level = [sum((x.scale_raw(a) for x, a in zip(xs, vec) if a), head)
             for vec in product(range(q), repeat=len(xs))]
    while len(level) > 1:
        level = [reduce(Polynomial.__mul__, level[k:k + q])
                 for k in range(0, len(level), q)]
    return level[0]


@lru_cache(maxsize=None, typed=True)   # a float misses the int's entry
def f_poly(field: FieldSpec, n: int, method: str = "recursive") -> Polynomial:
    """Product of (X + v) over the q^n span vectors v, as a polynomial in
    n + 1 variables with X last.

    The recursive method starts from f_0 = X and extends the span by x_k
    at each step: f_k = f_{k-1}^q - f_{k-1} * f_{k-1}(x_k)^(q-1), one
    Frobenius and one scaled product per step.  The brute product
    multiplies the q^n factors coset by coset; it is kept as an
    independent oracle and refuses to run past q^n = 243 factors.
    """
    (n,) = _ints((n,), "n")
    if n < 1:
        raise ArityTooSmall("need n >= 1")
    q = field.q
    N = n + 1
    X = N                                     # the adjoined variable, last
    if method == "product":
        if q ** n > _PRODUCT_CAP:
            raise ProductTooLarge(f"q^n = {q ** n} exceeds {_PRODUCT_CAP}")
        return _span_product(field, N, X, range(1, n + 1))
    if method != "recursive":
        raise UnknownMethod(f"unknown method {method!r}")
    f = Polynomial.variable(field, N, X)
    ident = {i: i for i in range(1, N + 1)}
    for k in range(1, n + 1):
        at_xk = f.map_variables(N, {**ident, X: k})
        f = f.q_power() - f * (at_xk ** (q - 1))
    return f


def delta_poly(field: FieldSpec, n: int) -> Polynomial:
    """(-1)^n Q_0...Q_n (dx_1...dx_n dX) in n + 1 variables; this equals
    dickson_e(n) * f_poly(n)."""
    (n,) = _ints((n,), "n")
    if n < 1:
        raise ArityTooSmall("need n >= 1")
    N = n + 1
    w = TensorElement.dx(field, N, range(1, N + 1))
    out = milnor_composite(tuple(range(N)), w).polynomial_part()
    return -out if n & 1 else out


def o_poly(field: FieldSpec, n: int, i: int, method: str = "product") -> Polynomial:
    """Orbit product of x_i over the span of x_2..x_n, in n variables.

    For i >= 2 the product hits the factor x_i - x_i and collapses to 0.
    The product route multiplies the q^{n-1} factors coset by coset;
    dickson_sum evaluates f_poly(n - 1), whose coefficients are the
    signed Dickson invariants of x_2..x_n, at X = x_i.
    """
    n, i = _ints((n, i), "n and variable index")
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"variable index {i} not in 1..{n}")
    q = field.q
    if method == "product":
        if q ** (n - 1) > _PRODUCT_CAP:
            raise ProductTooLarge(f"q^(n-1) = {q ** (n - 1)} exceeds {_PRODUCT_CAP}")
        return _span_product(field, n, i, range(2, n + 1))
    if method != "dickson_sum":
        raise UnknownMethod(f"unknown method {method!r}")
    if n == 1:
        return Polynomial.variable(field, n, i)
    shift = {t: t + 1 for t in range(1, n)}
    return f_poly(field, n - 1).map_variables(n, {**shift, n: i})


def o_prev(field: FieldSpec, n: int, i: int) -> Polynomial:
    """Orbit product of x_i over the span of x_2..x_{n-1} only, still in
    n variables; for n = 2 the span is zero and this is x_i."""
    n, i = _ints((n, i), "n and variable index")
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"variable index {i} not in 1..{n}")
    q = field.q
    if q ** max(n - 2, 0) > _PRODUCT_CAP:
        raise ProductTooLarge(f"q^(n-2) = {q ** (n - 2)} exceeds {_PRODUCT_CAP}")
    return _span_product(field, n, i, range(2, n))


def mui_det(field: FieldSpec, i_list, k: int = None) -> Polynomial:
    """det of the k x k matrix with (l, j) entry x_j^(q^(i_l)), in k vars."""
    i_list = _ints(i_list, "row exponents")
    (k,) = _ints((len(i_list) if k is None else k,), "k")
    if k != len(i_list):
        raise DegreeMismatch("k must equal the number of row exponents")
    if any(i < 0 for i in i_list):
        raise IndexOutOfRange(f"negative exponent index in {i_list}")
    return _det_on_columns(field, k, i_list, range(1, k + 1))


def _det_on_columns(field, n, i_list, cols) -> Polynomial:
    q = field.q
    k = len(cols)
    total = Polynomial.zero(field, n)
    for perm in permutations(range(k)):
        term = Polynomial.one(field, n)
        for row in range(k):
            term = term * Polynomial.variable(field, n, cols[perm[row]],
                                              q ** i_list[row])
        total = total + (-term if _sort_sign(perm) < 0 else term)
    return total


def mui_bracket(field: FieldSpec, r: int, i_list, n: int) -> TensorElement:
    """Shuffle sum of dx_{j_1}...dx_{j_r} times the determinant class on
    the complementary variables, signed by the shuffle parity."""
    i_list = _ints(i_list, "row exponents")
    r, n = _ints((r, n), "exterior degree and n")
    if not 0 <= r <= n:
        raise IndexOutOfRange(f"exterior degree {r} not in 0..{n}")
    if len(i_list) != n - r:
        raise DegreeMismatch(f"need {n - r} row exponents, got {len(i_list)}")
    total = TensorElement.zero(field, n)
    for J1 in combinations(range(1, n + 1), r):
        J2 = tuple(j for j in range(1, n + 1) if j not in J1)
        # parity of the shuffle (1..n) -> (J1, J2), both halves ascending
        inv = sum(j - (t + 1) for t, j in enumerate(J1))
        det = _det_on_columns(field, n, i_list, J2)
        term = det * TensorElement.dx(field, n, J1)
        total = total + (-term if inv & 1 else term)
    return total


def mui_q(field: FieldSpec, I, n: int) -> TensorElement:
    """Q_I applied to the top exterior class dx_1...dx_n."""
    I = _ints(I, "operator index tuple")
    (n,) = _ints((n,), "n")
    if any(not 0 <= i < n for i in I):
        raise IndexOutOfRange(f"index tuple {I} not inside 0..{n - 1}")
    return milnor_composite(I, top_form(field, n))


def theorem_basis(field: FieldSpec, case: str, n: int):
    """Module basis over the invariant polynomial ring.

    case "sl": 1 together with Q_I(dx_1...dx_n) for every proper subset I
    of {0..n-1}.  case "gl": the same classes multiplied by e_n^(q-2).
    Ordered by (|I|, lex), with the constant 1 first.
    """
    if case not in ("sl", "gl"):
        raise UnknownCase(f"case must be 'sl' or 'gl', got {case!r}")
    (n,) = _ints((n,), "n")
    out = [TensorElement.one(field, n)]
    extra = None
    if case == "gl":
        extra = dickson_e(field, n) ** (field.q - 2)
    for I in index_subsets(n, n - 1):
        v = mui_q(field, I, n)
        if extra is not None:
            v = extra * v
        out.append(v)
    return out
