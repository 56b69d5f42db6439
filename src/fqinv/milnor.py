"""Milnor-type derivations Q_j on P_n (x) E_n.

Q_j is the P_n-linear odd derivation determined by

    Q_j(x_i)  = 0,
    Q_j(dx_i) = x_i^(q^j),
    Q_j(uv)   = Q_j(u) v + (-1)^(deg u) u Q_j(v).

The operators square to zero and anticommute, so a composite over a
strictly increasing index tuple I determines Q_I up to the recorded
convention: Q_I = Q_{i_1} ... Q_{i_r} applied right to left (the largest
index acts first on the argument).
"""

from __future__ import annotations

from .algebra import (
    Polynomial,
    TensorElement,
    _add_part,
    _ints,
    _sort_sign,
    exact_divide,
)
from .errors import (
    ArityTooSmall,
    BadIndexTuple,
    DegreeMismatch,
    IndexOutOfRange,
    NotDivisible,
)


def _check_index_tuple(I):
    I = _ints(I, "operator index tuple")
    if any(i < 0 for i in I):
        raise IndexOutOfRange(f"negative operator index in {I}")
    if list(I) != sorted(set(I)):
        raise BadIndexTuple(f"index tuple must be strictly increasing: {I}")
    return I


def milnor_q(j: int, u: TensorElement) -> TensorElement:
    """Apply Q_j.  Exterior-degree-0 elements are annihilated."""
    (j,) = _ints((j,), "operator index")
    if j < 0:
        raise IndexOutOfRange(f"operator index {j} is negative")
    field, n = u.field, u.n
    power = field.q ** j
    out = {}
    for ext, poly in u.parts.items():
        for pos, var in enumerate(ext):
            rest = ext[:pos] + ext[pos + 1:]
            xq = Polynomial.variable(field, n, var, power)
            contrib = poly * xq
            _add_part(out, rest, -contrib if pos & 1 else contrib)
    return TensorElement._make(field, n, out)


def apply_sequence(seq, u: TensorElement) -> TensorElement:
    """Q_{s_1} Q_{s_2} ... Q_{s_k} applied as operator composition:
    the last entry of seq hits u first."""
    for j in reversed(list(seq)):
        u = milnor_q(j, u)
    return u


def milnor_composite(I, u: TensorElement) -> TensorElement:
    """Q_I for a strictly increasing index tuple, rightmost factor first."""
    I = _check_index_tuple(I)
    return apply_sequence(I, u)


def sign(I, J) -> int:
    """Sign of merging I and J into one increasing tuple; 0 on overlap.

    This is the coefficient in Q_I Q_J = sign(I, J) Q_{I u J}.
    """
    I = _check_index_tuple(I)
    J = _check_index_tuple(J)
    if set(I) & set(J):
        return 0
    return _sort_sign(I + J)


def script_d(u: TensorElement) -> TensorElement:
    """The Dickson-weighted combination sum_j (-1)^(n-1-j) c_{n-1,j} Q_j u,
    with the coefficients taken in the variables x_2..x_n.

    It reproduces the orbit product of x_1 when fed dx_1, kills dx_2..dx_n,
    and commutes with block matrices fixing x_1.
    """
    from . import dickson  # local import, dickson also uses this module

    field, n = u.field, u.n
    if n < 2:
        raise ArityTooSmall("need at least 2 variables")
    shift = {i: i + 1 for i in range(1, n)}
    total = TensorElement.zero(field, n)
    for j in range(n):
        c = dickson.dickson_c(field, n - 1, j).map_variables(n, shift)
        term = c * milnor_q(j, u)
        if (n - 1 - j) & 1:
            term = -term
        total = total + term
    return total


def extract_basis_coefficient(a: TensorElement, I):
    """Read off the coefficient of Q_I(dx_1...dx_n) in an element of pure
    exterior degree n - |I|.

    Returns a fraction (numerator, denominator) of Polynomials: applying
    the complementary composite Q_J turns the target basis vector into
    sign(J, I) * e_n, so the coefficient is [sign(J, I) * Q_J(a)] / e_n.
    When the division is exact the reduced pair (quotient, 1) comes back.
    """
    from . import dickson

    field, n = a.field, a.n
    I = _check_index_tuple(I)
    if any(i >= n for i in I):
        raise IndexOutOfRange(f"index tuple {I} not inside 0..{n - 1}")
    degrees = {len(ext) for ext in a.parts}
    if len(degrees) > 1:
        raise DegreeMismatch("element mixes exterior degrees")
    r = degrees.pop() if degrees else n - len(I)
    if len(I) != n - r:
        raise DegreeMismatch(
            f"index tuple size {len(I)} does not complement exterior degree {r}")
    J = tuple(sorted(set(range(n)) - set(I)))
    s = sign(J, I)
    applied = milnor_composite(J, a) if J else a
    num = applied.polynomial_part()
    if s < 0:
        num = -num
    den = dickson.dickson_e(field, n)
    try:
        quot = exact_divide(num, den)
        return quot, Polynomial.one(field, n)
    except NotDivisible:
        return num, den
