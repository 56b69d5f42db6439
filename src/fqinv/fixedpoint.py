"""Degreewise invariant subspaces, Hilbert series, and case verification.

The solver computes the fixed subspace of a finite matrix group degree by
degree: each cohomological degree splits into blocks (polynomial degree,
exterior word length) preserved by every linear substitution, and on each
block the fixed vectors form the kernel of the stacked operators
(action of g) - 1.  The monomial generators (each variable to a scalar
multiple of one variable) permute the block's monomials up to scalars, so
their common fixed vectors are the orbit sums whose scalars agree, one
column per such orbit (the permutation-module basis of Derksen & Kemper,
Computational Invariant Theory, section 3).  The other generators cut
that kernel down one at a time by an exact dense elimination, from action
columns built per block: the image of x^a dx_J is the product of the
images of x^a and of dx_J, each computed once.  Every elimination runs
over F_p on the base-p digits of F_q-vectors.

The case table has one row per case kind.  A row ties the kind's group
presentation to the free-module shape of its invariant ring (polynomial
generator degrees plus module basis degrees, by formula), to explicitly
constructed generator and basis elements, to a degree cap, and to whether
the degree-product criterion and the integrality witness apply.  Named
kinds that are a family case under another name (f4_3 is sl(3,3), e6_4
shares the degrees and elements of parabolic(4,3)) reuse that row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from . import algebra
from .algebra import Polynomial, TensorElement
from .dickson import dickson_c, dickson_e, index_subsets, o_poly, theorem_basis
from .errors import (
    ArityTooSmall,
    FeasibilityCapExceeded,
    InvalidModuleDescription,
    NegativeDegree,
    NotApplicable,
    NotInvariant,
    UnknownCase,
)
from .field import FieldSpec, make_field
from .groups import (
    GroupPresentation,
    _parabolic,
    _translations,
    _weyl,
    gens_standard,
    is_invariant,
)
from .milnor import milnor_composite

BASIS_CAP = 2 * 10 ** 5


# -- degree-d monomial basis of P_n (x) E_n ---------------------------------

def _monomials(n, k):
    """Exponent tuples summing to k, descending lexicographic order."""
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _monomials(n - 1, k - first):
            yield (first,) + rest


def _block_shapes(n, d):
    """(polynomial degree, exterior length) pairs making up degree d."""
    return [((d - r) // 2, r) for r in range(d % 2, min(n, d) + 1, 2)]


def _block_size(n, k, r):
    return math.comb(k + n - 1, n - 1) * math.comb(n, r)


def monomial_basis(field: FieldSpec, n: int, d: int):
    """Ordered basis of the degree-d component: (exponent tuple, dx index
    tuple) pairs with 2*sum(exp) + len(ext) = d, sorted by exterior length,
    then exterior indices, then exponents (descending lexicographic)."""
    if d < 0:
        raise NegativeDegree("need d >= 0")
    out = []
    for k, r in _block_shapes(n, d):
        for ext in combinations(range(1, n + 1), r):
            for exp in _monomials(n, k):
                out.append((exp, ext))
    return out


# -- exact linear algebra over F_p ------------------------------------------
#
# Every array the solver eliminates holds F_p values.  An F_q-vector of
# length N is the vector of its N*e base-p digits, digit k of entry j at
# j*e + k, and an F_q-subspace is the F_p-span of the digits of t^i * v,
# i < e, for v in it: the restriction of scalars that group_order_bfs takes
# too.  So an F_p-dimension is e times the F_q-dimension.

_MATMUL_ROWS = 1024
_MOVE_ROWS = 64


def _expand(field, a):
    """The digit form of the span of the raw columns of a: column c*e + i
    of the (N*e, m*e) result holds the digits of t^i times column c."""
    if field.e == 1:
        return a
    (n, m), e = a.shape, field.e
    return algebra._digit_table(field)[a].transpose(0, 3, 1, 2).reshape(
        n * e, m * e)


def _eliminate(a, p):
    """Reduced row echelon form of the int64 array a over F_p, computed in
    a itself; returns the pivot columns, one per leading nonzero row."""
    m, k = a.shape
    pivots = []
    for col in range(k):
        row = len(pivots)
        if row == m:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        r0 = row + nz[0]
        if r0 != row:
            a[[row, r0]] = a[[r0, row]]
        a[row] = (a[row] * pow(int(a[row, col]), p - 2, p)) % p
        factors = a[:, col].copy()
        factors[row] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(factors[hit], a[row])) % p
        pivots.append(col)
    return pivots


def _nullspace(a, p):
    """Kernel basis of the int64 array a over F_p; columns of the result,
    int64.  Eliminates in a itself, which it overwrites, after moving its
    nonzero rows to the top _MOVE_ROWS at a time (row j comes from a row
    at or below j, so no row is overwritten before it is read)."""
    live = np.nonzero(a.any(axis=1))[0]
    for lo in range(0, len(live), _MOVE_ROWS):
        rows = live[lo:lo + _MOVE_ROWS]
        a[lo:lo + len(rows)] = a[rows]
    a = a[:len(live)]
    pivots = _eliminate(a, p)
    free = np.delete(np.arange(a.shape[1]), pivots)
    out = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    out[free, np.arange(len(free))] = 1
    out[pivots] = (-a[:len(pivots), free]) % p
    return out


def _matmul_mod(x, y, p):
    """Exact x @ y over F_p by float64 BLAS, on the nonzero rows of x
    only, _MATMUL_ROWS of them at a time so that no float copy of all of
    x is held."""
    yf = y.astype(np.float64)
    out = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    live = np.nonzero(x.any(axis=1))[0]
    for i in range(0, len(live), _MATMUL_ROWS):
        rows = live[i:i + _MATMUL_ROWS]
        prod = np.rint(x[rows].astype(np.float64) @ yf)
        out[rows] = prod.astype(np.int64) % p
    return out


def _canonical_rows(a, field):
    """Reduced row echelon form over F_q, as raw rows sorted by pivot
    position, of the F_q-stable span of the digit rows of a, which it
    overwrites.  Over F_p each F_q pivot position holds e pivots, one per
    digit, and the row whose pivot is digit 0 is the digits of the F_q
    row."""
    e = field.e
    pivots = np.array(_eliminate(a, field.p), dtype=np.int64)
    rows = a[:len(pivots)][pivots % e == 0]
    return rows.reshape(-1, a.shape[1] // e, e) @ field.p ** np.arange(e)


def _rref_rows(rows, field):
    """Reduced row echelon form over F_q of raw rows; rows sorted by pivot
    position."""
    a = np.array(rows, dtype=np.int64)
    if a.size == 0:
        return a
    return _canonical_rows(np.ascontiguousarray(_expand(field, a.T).T), field)


# -- per-block solver --------------------------------------------------------

def _split_generators(gens):
    """(targets, scalars) of each monomial generator, one that maps every
    variable to a scalar multiple of a single variable, and the other
    generators, sparsest first."""
    monomial, general = [], []
    for pos, g in enumerate(gens):
        rows = g.inverse_rows()
        live = [[j for j, v in enumerate(r) if v] for r in rows]
        if all(len(js) == 1 for js in live):
            monomial.append((tuple(js[0] + 1 for js in live),
                             tuple(r[js[0]] for r, js in zip(rows, live))))
        else:
            nnz_off = sum(j != i for i, js in enumerate(live) for j in js)
            general.append((nnz_off, pos, g))
    general.sort(key=lambda item: item[:2])
    return monomial, [g for _, _, g in general]


@lru_cache(maxsize=None)
def _product_array(field):
    """algebra._product_table as a read-only q x q array, for gathers."""
    table = np.array(algebra._product_table(field), np.int64)
    table.flags.writeable = False
    return table.reshape(field.q, field.q)


def _monomial_permutation(field, exps, words, targets, scalars):
    """Index permutation and scalar twist of a monomial substitution on a
    block whose position w*len(exps) + e holds x^exps[e] dx_words[w]: the
    image of each exponent and of each word is computed once."""
    n = len(targets)
    exp_rank = {exp: e for e, exp in enumerate(exps)}
    word_rank = {word: w for w, word in enumerate(words)}
    eperm, escale = [], []
    for exp in exps:
        new_exp = [0] * n
        s = field.one
        for i, e in enumerate(exp):
            if e:
                new_exp[targets[i] - 1] += e
                s = field.mul(s, field.pow_(scalars[i], e))
        eperm.append(exp_rank[tuple(new_exp)])
        escale.append(s)
    wperm, wscale = [], []
    for word in words:
        images = [targets[i - 1] for i in word]
        s = field.one
        for i in word:
            s = field.mul(s, scalars[i - 1])
        if algebra._sort_sign(images) < 0:
            s = field.neg(s)
        wperm.append(word_rank[tuple(sorted(images))])
        wscale.append(s)
    eperm, escale = np.array(eperm, np.int64), np.array(escale, np.int64)
    wperm, wscale = np.array(wperm, np.int64), np.array(wscale, np.int64)
    perm = (wperm[:, None] * len(exps) + eperm).ravel()
    scale = _product_array(field)[wscale[:, None], escale].ravel()
    return perm, scale


def _orbit_kernel(field, moves):
    """Fixed vectors of the group generated by scaled index permutations;
    (perm, scale) in `moves` sends basis vector i to scale[i] times basis
    vector perm[i].  A fixed vector v has v[perm[i]] = scale[i] * v[i], so
    on each orbit it is one multiple of the values those edges propagate
    from the orbit's first index.  An orbit gives a column when every edge
    agrees with them and drops out otherwise."""
    size = len(moves[0][0])
    moves = [(perm.tolist(), scale.tolist()) for perm, scale in moves]
    prod, q = algebra._product_table(field), field.q
    value = [0] * size                        # 0: not reached yet
    orbits = []
    for start in range(size):
        if value[start]:
            continue
        value[start] = field.one
        orbit = [start]
        agree = True
        for i in orbit:                       # grows while it is walked
            at = value[i]
            for perm, scale in moves:
                j, v = perm[i], prod[scale[i] * q + at]
                if not value[j]:
                    value[j] = v
                    orbit.append(j)
                elif value[j] != v:
                    agree = False
        if agree:
            orbits.append(orbit)
    out = np.zeros((size, len(orbits)), dtype=np.int64)
    for col, orbit in enumerate(orbits):
        out[orbit, col] = [value[i] for i in orbit]
    return out


def _general_columns(field, g, exps, words, needed):
    """Sparse action columns of g, as (row indices, raw values), at the
    requested positions of a block whose position w*len(exps) + e holds
    x^exps[e] dx_words[w].  Its image is the product of the images of
    x^exps[e] and of dx_words[w], and each of those is computed once."""
    rows = algebra._raw_rows(field, len(exps[0]), g.inverse_rows())
    mul = _product_array(field)
    width = len(exps)
    exp_rank = {exp: e for e, exp in enumerate(exps)}
    word_rank = {word: w * width for w, word in enumerate(words)}
    polys, ext_images = {}, {}
    cols = {}
    for pos in needed:
        w, e = divmod(pos, width)
        poly = polys.get(e)
        if poly is None:
            poly = polys[e] = _ranked(exp_rank, algebra._substitute_terms(
                field, rows, {exps[e]: field.one}))
        word = ext_images.get(w)
        if word is None:
            word = ext_images[w] = _ranked(word_rank, algebra._exterior_image(
                field, rows, words[w]))
        cols[pos] = ((word[0][:, None] + poly[0]).ravel(),
                     mul[word[1][:, None], poly[1]].ravel())
    return cols


def _ranked(rank, image):
    """(rank of each key, raw) int64 arrays of a {key: raw} image."""
    size = len(image)
    return (np.fromiter(map(rank.__getitem__, image), np.int64, size),
            np.fromiter(image.values(), np.int64, size))


def _image_product(field, cols, kernel):
    """g applied to the digit kernel columns, from the sparse action
    columns of the positions where the kernel is nonzero; the dense action
    matrix is never formed.  Digit i of position pos moves to digit k of
    row r by R[vals[r], i, k], R the digit table."""
    e, digits = field.e, algebra._digit_table(field)
    moved = np.zeros((kernel.shape[0] // e, e, kernel.shape[1]), np.int64)
    for pos, (rows, vals) in cols.items():
        block = digits[vals]
        part = kernel[pos * e:(pos + 1) * e]
        image = block[:, 0, :, None] * part[0]
        for i in range(1, e):
            image += block[:, i, :, None] * part[i]
        # at most e*len(cols) products below p^2 per entry: no overflow
        moved[rows] += image
    moved %= field.p
    return moved.reshape(kernel.shape)


def _apply_generator(field, exps, words, kernel, g):
    """Digit columns of the fixed vectors of g inside the span of the
    kernel columns, or inside the whole block when kernel is None."""
    size, e, p = len(exps) * len(words), field.e, field.p
    if kernel is None:
        needed = range(size)
    else:
        needed = np.nonzero(kernel.reshape(size, -1).any(axis=1))[0].tolist()
    cols = _general_columns(field, g, exps, words, needed)
    if kernel is None:
        # the action matrix minus the identity, eliminated in place
        mat = np.zeros((size, e, size * e), dtype=np.int64)
        digits = algebra._digit_table(field)
        for pos, (rows, vals) in cols.items():
            block = digits[vals].transpose(0, 2, 1)
            mat[rows, :, pos * e:(pos + 1) * e] = block
        mat = mat.reshape(size * e, size * e)
        diag = np.arange(size * e)
        mat[diag, diag] = (mat[diag, diag] - 1) % p
        return _nullspace(mat, p)
    moved = _image_product(field, cols, kernel)
    moved -= kernel
    moved %= p
    reduction = _nullspace(moved, p)
    del moved
    return _matmul_mod(kernel, reduction, p)


def _block_kernel(field, n, gens, k, r):
    """Basis and fixed vectors, as digit columns, of the (poly degree, ext
    length) block: the orbit kernel of the monomial generators, cut down
    by the others one at a time."""
    exps = list(_monomials(n, k))
    words = list(combinations(range(1, n + 1), r))
    basis = [(exp, ext) for ext in words for exp in exps]
    monomial, general = _split_generators(gens)
    kernel = None
    if monomial:
        kernel = _expand(field, _orbit_kernel(field, [
            _monomial_permutation(field, exps, words, targets, scalars)
            for targets, scalars in monomial]))
    for g in general:
        if kernel is not None and kernel.shape[1] == 0:
            break
        kernel = _apply_generator(field, exps, words, kernel, g)
    if kernel is None:
        kernel = np.eye(len(basis) * field.e, dtype=np.int64)
    return basis, kernel


def _resolve_group(group):
    if isinstance(group, GroupPresentation):
        return group.field, group.n, list(group.generators)
    gens = list(group)
    if not gens:
        raise ArityTooSmall("need a GroupPresentation or a nonempty matrix list")
    return gens[0].field, gens[0].n, gens


def _check_cap(n, d):
    total = sum(_block_size(n, k, r) for k, r in _block_shapes(n, d))
    if total > BASIS_CAP:
        raise FeasibilityCapExceeded(
            f"degree {d} basis has {total} elements, cap is {BASIS_CAP}")
    return total


def fixed_dim(group, d: int, exterior_degree=None) -> int:
    """Dimension of the degree-d fixed subspace; optionally one exterior
    word length only."""
    field, n, gens = _resolve_group(group)
    if d < 0:
        raise NegativeDegree("need d >= 0")
    _check_cap(n, d)
    total = 0
    for k, r in _block_shapes(n, d):
        if exterior_degree is not None and r != exterior_degree:
            continue
        _, kernel = _block_kernel(field, n, gens, k, r)
        total += kernel.shape[1] // field.e
    return total


def fixed_basis(group, d: int):
    """Canonical basis of the degree-d fixed subspace as TensorElements.

    Vectors are the reduced row echelon form of the kernel with pivots in
    monomial_basis order; every element is checked against the generators
    before it is returned."""
    field, n, gens = _resolve_group(group)
    if d < 0:
        raise NegativeDegree("need d >= 0")
    _check_cap(n, d)
    blocks = []
    offset = 0
    full_basis = []
    dims = 0
    for k, r in _block_shapes(n, d):
        basis, kernel = _block_kernel(field, n, gens, k, r)
        blocks.append((offset * field.e, kernel))
        offset += len(basis)
        full_basis.extend(basis)
        dims += kernel.shape[1]
    if dims == 0:
        return []
    rows = np.zeros((dims, offset * field.e), dtype=np.int64)
    at = 0
    for start, kernel in blocks:
        size, width = kernel.shape
        rows[at:at + width, start:start + size] = kernel.T
        at += width
    rows = _canonical_rows(rows, field)
    out = []
    for vec in rows:
        parts = {}
        for pos in np.nonzero(vec)[0]:
            exp, ext = full_basis[pos]
            parts.setdefault(ext, {})[exp] = int(vec[pos])
        # the entries are raw field values: the coercing Polynomial
        # constructor would fold them into the prime subfield
        el = TensorElement(field, n,
                           {ext: Polynomial._make(field, n, terms)
                            for ext, terms in parts.items()})
        if not is_invariant(el, gens):
            raise NotInvariant("kernel vector failed the invariance check")
        out.append(el)
    return out


# -- Hilbert series ----------------------------------------------------------

@dataclass(frozen=True)
class FreeModuleDescription:
    """Degrees of a free module over a graded polynomial ring: generator
    degrees of the ring, degrees of the module basis."""

    algebra_gen_degrees: tuple
    basis_degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "algebra_gen_degrees",
                           tuple(self.algebra_gen_degrees))
        object.__setattr__(self, "basis_degrees", tuple(self.basis_degrees))
        if any(a <= 0 for a in self.algebra_gen_degrees):
            raise InvalidModuleDescription(
                "algebra generator degrees must be positive")
        if not self.basis_degrees:
            raise InvalidModuleDescription(
                "basis degree list must be nonempty")
        if any(b < 0 for b in self.basis_degrees):
            raise InvalidModuleDescription(
                "basis degrees must be nonnegative")
        if sum(1 for b in self.basis_degrees if b == 0) > 1:
            raise InvalidModuleDescription(
                "basis degree 0 may appear at most once")


def hilbert_coeff(desc: FreeModuleDescription, d: int) -> int:
    """Coefficient of t^d in (sum of t^basis) / prod(1 - t^generator)."""
    if d < 0:
        raise NegativeDegree("need d >= 0")
    ring = [0] * (d + 1)
    ring[0] = 1
    for a in desc.algebra_gen_degrees:
        for i in range(a, d + 1):
            ring[i] += ring[i - a]
    return sum(ring[d - b] for b in desc.basis_degrees if b <= d)


# -- case table --------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """A registered verification target: group plus module bookkeeping."""

    label: str
    kind: str
    field: FieldSpec
    n: int


def _deg_e(n, q):
    return 2 * (q ** n - 1) // (q - 1)


def _deg_c(n, i, q):
    return 2 * (q ** n - q ** i)


def _q_degrees(q, length, subsets):
    """Degrees of the classes Q_I(w), I in subsets, of a word of degree
    `length`."""
    return [length + sum(2 * q ** i - 1 for i in I) for I in subsets]


def _poly_el(poly):
    return TensorElement.from_polynomial(poly)


def _shift(poly, n, offset):
    mapping = {i: i + offset for i in range(1, poly.n + 1)}
    return poly.map_variables(n, mapping)


def _block_ring(field, size, n):
    """e and c_i, i = 1..size-1, of the block variables x_2..x_{size+1},
    named, as polynomials in n variables."""
    on = f"(x2..x{size + 1})"
    ring = [(f"e{size}{on}", dickson_e(field, size))]
    ring += [(f"c{size},{i}{on}", dickson_c(field, size, i))
             for i in range(1, size)]
    return [(name, _poly_el(_shift(poly, n, 1))) for name, poly in ring]


def _q_names(indices, subsets):
    tag = "".join(f"dx{i}" for i in indices)
    return [f"Q[{','.join(map(str, I))}]({tag})" if I else tag for I in subsets]


def _q_basis(field, n, indices, subsets):
    """Named Q-composites of the wedge of the listed dx indices."""
    word = TensorElement.dx(field, n, indices)
    return [(name, milnor_composite(I, word))
            for name, I in zip(_q_names(indices, subsets), subsets)]


def _mui_basis(field, n, kind, prefix):
    """theorem_basis, named: 1, then prefix + Q_I(dx1..dxn)."""
    names = _q_names(range(1, n + 1), index_subsets(n, n - 1))
    return list(zip(["1"] + [prefix + name for name in names],
                    theorem_basis(field, kind, n)))


def _sl_elements(field, n):
    ring = [(f"e{n}", _poly_el(dickson_e(field, n)))]
    ring += [(f"c{n},{i}", _poly_el(dickson_c(field, n, i)))
             for i in range(1, n)]
    return ring, _mui_basis(field, n, "sl", "")


def _gl_elements(field, n):
    ring = [(f"c{n},{i}", _poly_el(dickson_c(field, n, i))) for i in range(n)]
    return ring, _mui_basis(field, n, "gl", f"e{n}^{field.q - 2}*")


def _g0_elements(field, n):
    ring = [("O(x1)", _poly_el(o_poly(field, n, 1, "dickson_sum")))]
    ring += [(f"x{i}", _poly_el(Polynomial.variable(field, n, i)))
             for i in range(2, n + 1)]
    basis = _q_basis(field, n, tuple(range(1, n + 1)), index_subsets(n - 1))
    for J in index_subsets(n - 1):
        indices = tuple(j + 2 for j in J)
        name = "".join(f"dx{i}" for i in indices) if indices else "1"
        basis.append((name, TensorElement.dx(field, n, indices)))
    return ring, basis


def _parabolic_elements(field, n):
    ring = [("O(x1)", _poly_el(o_poly(field, n, 1, "dickson_sum")))]
    ring += _block_ring(field, n - 1, n)
    basis = [("1", TensorElement.one(field, n))]
    basis += _q_basis(field, n, tuple(range(2, n + 1)),
                      index_subsets(n - 1, n - 2))
    basis += _q_basis(field, n, tuple(range(1, n + 1)), index_subsets(n - 1))
    return ring, basis


def _e7_4_elements(field, n):
    """e6_4's elements with O(x1)^2 in place of O(x1), and O(x1) times
    each class Q_I(dx1..dx4)."""
    ring, basis = _KINDS["e6_4"].elements(field, n)
    orb = ring[-1][1]
    top = len(index_subsets(n - 1))
    return (ring[:-1] + [("O(x1)^2", orb * orb)],
            basis[:-top] + [(f"O(x1)*{name}", orb * el)
                            for name, el in basis[-top:]])


def _e8_5a_elements(field, n):
    orb = o_poly(field, n, 1, "dickson_sum")
    x5 = Polynomial.variable(field, n, 5)
    e3, c31, c32 = _block_ring(field, 3, n)
    ring = [("x5^2", _poly_el(x5 * x5)), e3, c32, c31,
            ("O(x1)^2", _poly_el(orb * orb))]
    w5 = x5 * TensorElement.dx(field, n, (5,))
    basis = [("1", TensorElement.one(field, n))]
    inner = _q_basis(field, n, (2, 3, 4), index_subsets(3, 2))
    basis += inner
    basis.append(("x5*dx5", w5))
    basis += [(f"{name}*x5*dx5", el * w5) for name, el in inner]
    for name, el in _q_basis(field, n, (1, 2, 3, 4, 5), index_subsets(4)):
        basis.append((f"x5*O(x1)*{name}", (x5 * orb) * el))
    return ring, basis


@dataclass(frozen=True)
class _Kind:
    """One row of the case table.  A family row (q is None) takes its field
    and size from the label kind(n,q); a named row fixes both.  Every entry
    is a function or a constant, so the table builds nothing at import."""

    gens: Callable          # (field, n) -> GroupPresentation
    degrees: Callable       # (q, n) -> (ring degrees, module basis degrees)
    elements: Callable      # (field, n) -> (ring, basis) named elements
    cap: Callable           # n -> largest degree verify_module attempts
    q: int | None = None
    n: int | None = None
    min_n: int = 1
    standard: bool = False  # built by gens_standard, not by gens_case
    witness: bool = False   # integrality witness of the orbit product
    product: bool = True    # degree-product criterion applies
    var: str = "x"          # variable name of `act --pretty`


def _reordered(base, order, **row):
    """A named kind that is the family `base` at one (q, n) with its ring
    generators listed in `order`; `row` sets q, n and what else differs."""
    def pick(pair):
        ring, basis = pair
        return [ring[i] for i in order], basis

    inherited = dict(gens=base.gens, cap=base.cap, witness=base.witness,
                     degrees=lambda q, n: pick(base.degrees(q, n)),
                     elements=lambda field, n: pick(base.elements(field, n)))
    return _Kind(**(inherited | row))


# Rows are entered in the order the --case help lists them.
_KINDS = {}
_KINDS["sl"] = _Kind(
    gens=lambda field, n: gens_standard("sl", n, field),
    degrees=lambda q, n: (
        [_deg_e(n, q)] + [_deg_c(n, i, q) for i in range(1, n)],
        [0] + _q_degrees(q, n, index_subsets(n, n - 1))),
    elements=_sl_elements,
    cap=lambda n: 40 if n <= 2 else (30 if n == 3 else 12), standard=True)
_KINDS["gl"] = replace(
    _KINDS["sl"], gens=lambda field, n: gens_standard("gl", n, field),
    degrees=lambda q, n: (
        [_deg_c(n, i, q) for i in range(n)],
        [0] + _q_degrees(q, (q - 2) * _deg_e(n, q) + n,
                         index_subsets(n, n - 1))),
    elements=_gl_elements)
_KINDS["g0"] = _Kind(
    gens=_translations,
    degrees=lambda q, n: (
        [2 * q ** (n - 1)] + [2] * (n - 1),
        _q_degrees(q, n, index_subsets(n - 1))
        + [len(J) for J in index_subsets(n - 1)]),
    elements=_g0_elements,
    cap=lambda n: 20 if n <= 3 else 12, min_n=2, witness=True)
_KINDS["parabolic"] = replace(
    _KINDS["g0"], gens=_parabolic,
    degrees=lambda q, n: (
        [2 * q ** (n - 1), _deg_e(n - 1, q)]
        + [_deg_c(n - 1, i, q) for i in range(1, n - 1)],
        [0] + _q_degrees(q, n - 1, index_subsets(n - 1, n - 2))
        + _q_degrees(q, n, index_subsets(n - 1))),
    elements=_parabolic_elements)
_KINDS["f4_3"] = _reordered(_KINDS["sl"], (0, 2, 1), q=3, n=3, var="t")
_KINDS["e6_4"] = _reordered(
    _KINDS["parabolic"], (1, 3, 2, 0), q=3, n=4, var="t",
    gens=lambda field, n: _weyl(field, n, ()), cap=lambda n: 27)
_KINDS["e7_4"] = _Kind(
    gens=lambda field, n: _weyl(field, n, (1,)),
    degrees=lambda q, n: (
        [_deg_e(3, 3), _deg_c(3, 2, 3), _deg_c(3, 1, 3), 108],
        [0] + _q_degrees(3, 3, index_subsets(3, 2))
        + _q_degrees(3, 58, index_subsets(3))),
    elements=_e7_4_elements, cap=lambda n: 24, q=3, n=4, var="t")
_KINDS["e8_5a"] = _Kind(
    gens=lambda field, n: _weyl(field, n, (1, 5)),
    degrees=lambda q, n: (
        [4, _deg_e(3, 3), _deg_c(3, 2, 3), _deg_c(3, 1, 3), 324],
        [0] + _q_degrees(3, 3, index_subsets(3, 2))
        + [3] + _q_degrees(3, 6, index_subsets(3, 2))
        + _q_degrees(3, 169, index_subsets(4))),
    elements=_e8_5a_elements, cap=lambda n: 12, q=3, n=5, product=False,
    var="t")
_KINDS["e8_p5_3"] = _reordered(_KINDS["sl"], (0, 2, 1), q=5, n=3, var="t",
                               cap=lambda n: 61)

_LABEL_RE = re.compile(r"^(\w+)\((\d+),(\d+)\)$")


def _kind(kind) -> _Kind:
    row = _KINDS.get(kind)
    if row is None:
        raise UnknownCase(f"unknown case kind {kind!r}")
    return row


def parse_case(text: str) -> Case:
    """Parse a case label: kind(n,q) with prime q for a family row of the
    case table, or the name of a named row."""
    label = text.strip().replace(" ", "")
    m = _LABEL_RE.match(label)
    kind = m.group(1) if m else label
    row = _KINDS.get(kind)
    if row is None or (row.q is None) != bool(m):
        raise UnknownCase(f"unknown case {text!r}")
    if row.q is not None:
        return Case(label, kind, make_field(row.q), row.n)
    n, q = int(m.group(2)), int(m.group(3))
    try:
        field = make_field(q)
    except Exception as exc:
        raise UnknownCase(
            f"case labels take a prime q, got {q}; build extension-field "
            f"presentations with gens_standard") from exc
    if n < row.min_n:
        raise UnknownCase(f"case {text!r}: size out of range")
    return Case(label, kind, field, n)


def _as_case(case) -> Case:
    return case if isinstance(case, Case) else parse_case(case)


def case_group(case) -> GroupPresentation:
    """The case's generators and order, labelled by its kind."""
    c = _as_case(case)
    return replace(_kind(c.kind).gens(c.field, c.n), label=c.kind)


def module_description(case) -> FreeModuleDescription:
    """Free-module shape of the invariant ring of a registered case."""
    c = _as_case(case)
    return FreeModuleDescription(*_kind(c.kind).degrees(c.field.q, c.n))


@lru_cache(maxsize=None)
def _case_elements_cached(case):
    c = _as_case(case)
    return _kind(c.kind).elements(c.field, c.n)


def case_elements(case):
    """Named ring generators and module basis elements of a case, over
    the case's own field."""
    return _case_elements_cached(_as_case(case))


def degree_cap(case) -> int:
    """Largest degree verify_module will attempt for the case."""
    c = _as_case(case)
    return _kind(c.kind).cap(c.n)


# -- degree-product criterion ------------------------------------------------

@dataclass(frozen=True)
class PhiWitness:
    """Integrality witness for the first variable over the orbit product:
    the orbit product of an indeterminate is monic with coefficients given
    by the Dickson invariants of the remaining variables, and it reproduces
    the orbit product of x_1 on substitution."""

    n: int
    q: int
    monic: bool
    coefficients_match: bool
    vanishes: bool

    @property
    def ok(self):
        return self.monic and self.coefficients_match and self.vanishes

    def to_json_dict(self):
        return {"n": self.n, "q": self.q, "monic": self.monic,
                "coefficients_match": self.coefficients_match,
                "vanishes": self.vanishes, "ok": self.ok}


def wilkerson_phi(field: FieldSpec, n: int) -> PhiWitness:
    """Check the integrality witness at size n over the given field."""
    q = field.q
    prod_form = o_poly(field, n, 1, "product")
    by_x1 = {}
    for exp, raw in prod_form.terms.items():
        rest = (0,) + exp[1:]
        by_x1.setdefault(exp[0], {})[rest] = raw
    expected_exps = {q ** j for j in range(n)}
    monic = (set(by_x1) == expected_exps
             and by_x1[q ** (n - 1)] == {(0,) * n: field.one})
    coeffs_ok = True
    for j in range(n - 1):
        want = _shift(dickson_c(field, n - 1, j), n, 1)
        if (n - 1 - j) % 2:
            want = -want
        got = Polynomial(field, n, by_x1.get(q ** j, {}))
        if got != want:
            coeffs_ok = False
    vanishes = prod_form == o_poly(field, n, 1, "dickson_sum")
    return PhiWitness(n, q, monic, coeffs_ok, vanishes)


@dataclass(frozen=True)
class WilkersonReport:
    """Degree-product check on the polynomial part of a case's invariants."""

    case: str
    half_degrees: tuple
    degree_product: int
    group_order: int
    phi: PhiWitness | None

    @property
    def product_matches(self):
        return self.degree_product == self.group_order

    @property
    def ok(self):
        return self.product_matches and (self.phi is None or self.phi.ok)

    def to_json_dict(self):
        data = {"case": self.case,
                "half_degrees": list(self.half_degrees),
                "degree_product": self.degree_product,
                "group_order": self.group_order,
                "product_matches": self.product_matches,
                "ok": self.ok}
        if self.phi is not None:
            data["phi"] = self.phi.to_json_dict()
        return data


def wilkerson_check(case) -> WilkersonReport:
    """Product of polynomial generator degrees against the group order,
    plus the integrality witness for cases generated by an orbit product."""
    c = _as_case(case)
    row = _kind(c.kind)
    if not row.product:
        raise NotApplicable(
            f"case {c.label} is outside the degree-product criterion; "
            "module_description carries its polynomial subring data")
    desc = module_description(c)
    half = []
    for deg in desc.algebra_gen_degrees:
        if deg % 2:
            raise NotApplicable(
                f"case {c.label}: generator degree {deg} is not even")
        half.append(deg // 2)
    product = math.prod(half)
    group = case_group(c)
    phi = wilkerson_phi(c.field, c.n) if row.witness else None
    return WilkersonReport(c.label, tuple(half), product, group.order, phi)


# -- verification ------------------------------------------------------------

@dataclass(frozen=True)
class DegreeRow:
    degree: int
    computed: int
    predicted: int

    @property
    def match(self):
        return self.computed == self.predicted


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a degreewise module verification for one case."""

    case: str
    rows: tuple
    invariance: tuple
    wilkerson: WilkersonReport | None

    @property
    def ok(self):
        return (all(r.match for r in self.rows)
                and all(flag for _, flag in self.invariance)
                and (self.wilkerson is None or self.wilkerson.ok))

    def to_json_dict(self):
        return {
            "case": self.case,
            "rows": [{"d": r.degree, "computed": r.computed,
                      "predicted": r.predicted, "match": r.match}
                     for r in self.rows],
            "invariance": [{"name": name, "invariant": flag}
                           for name, flag in self.invariance],
            "wilkerson": (self.wilkerson.to_json_dict()
                          if self.wilkerson is not None
                          else {"applicable": False}),
            "ok": self.ok,
        }


def verify_module(case, d_max=None) -> VerificationReport:
    """Compare computed fixed-space dimensions with the free-module series
    degree by degree, and check every listed element for invariance."""
    c = _as_case(case)
    cap = degree_cap(c)
    if d_max is None:
        d_max = cap
    if d_max < 0:
        raise NegativeDegree("need d_max >= 0")
    if d_max > cap:
        raise FeasibilityCapExceeded(
            f"case {c.label}: d_max {d_max} exceeds the schedule cap {cap}")
    group = case_group(c)
    desc = module_description(c)
    rows = tuple(DegreeRow(d, fixed_dim(group, d), hilbert_coeff(desc, d))
                 for d in range(d_max + 1))
    ring, basis = case_elements(c)
    invariance = tuple((name, is_invariant(el, group))
                       for name, el in ring + basis)
    try:
        wilk = wilkerson_check(c)
    except NotApplicable:
        wilk = None
    return VerificationReport(c.label, rows, invariance, wilk)
