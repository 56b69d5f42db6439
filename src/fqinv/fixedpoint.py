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
that kernel down one at a time, with the kernel kept factored as the
orbit kernel times a small matrix.  Each cut is a kernel over F_p taken
from sparse entries: rows with a single live entry are peeled first,
since their columns vanish on the kernel (structured Gaussian
elimination, LaMacchia & Odlyzko, CRYPTO '90), and only what is left is
made dense and eliminated exactly.  Each generator's action on a block
is one sparse matrix, the Kronecker product of its actions on the
exterior words and on the monomials; the action on the degree-k
monomials is built from that on degree k-1 in one vectorised step and
cached per generator.  Every elimination runs over F_p on the
base-p digits of F_q-vectors.

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

from .algebra import Polynomial, TensorElement, _compositions
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
            for exp in _compositions(k, n):
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


def _kernel(rows, cols, vals, width, p):
    """Kernel over F_p of the matrix with `width` columns whose nonzero
    entries are vals at the distinct positions (rows, cols); the reduced
    basis (the identity on the free columns) as the columns of an int64
    array.  A row with one live entry forces that entry's column to zero
    in every kernel vector, so such columns are peeled, round after round,
    until no row holds a single live entry (the first rule of structured
    Gaussian elimination, LaMacchia & Odlyzko, CRYPTO '90); only the rows
    and columns left are made dense and eliminated.  A peeled column is
    never free, so the free columns and the basis are those of the whole
    matrix."""
    live = np.ones(width, dtype=bool)
    while True:
        single = np.bincount(rows)[rows] == 1
        if not single.any():
            break
        live[cols[single]] = False
        keep = live[cols]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    kept = np.flatnonzero(live)
    at, rows = np.unique(rows, return_inverse=True)
    a = np.zeros((len(at), len(kept)), dtype=np.int64)
    a[rows, np.searchsorted(kept, cols)] = vals
    pivots = _eliminate(a, p)
    free = np.delete(np.arange(len(kept)), pivots)
    out = np.zeros((width, len(free)), dtype=np.int64)
    out[kept[free], np.arange(len(free))] = 1
    out[kept[pivots]] = (-a[:len(pivots), free]) % p
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


# -- per-block solver --------------------------------------------------------
#
# A block's fixed vectors are kept factored as K0 M: K0 the orbit kernel of
# the monomial generators, at most one entry per position, and M over F_p
# on K0's digit columns.  A general generator g takes M to M N, N the
# kernel of ((A_g - 1) K0) M with A_g sparse, so BLAS multiplies nothing
# with more rows than K0 has columns.

_SCATTER = 1 << 18          # output elements one scatter step forms
_STEP_TABLES = 256          # cached step tables, one per (n, degree)
_CACHED_ACTIONS = 512       # generator actions on words or monomials kept


def _split_generators(gens):
    """The monomial generators, which map every variable to a scalar
    multiple of a single variable, and the others, sparsest first."""
    monomial, general = [], []
    for pos, g in enumerate(gens):
        live = [[j for j, v in enumerate(r) if v] for r in g.inverse_rows()]
        if all(len(js) == 1 for js in live):
            monomial.append(g)
        else:
            nnz_off = sum(j != i for i, js in enumerate(live) for j in js)
            general.append((nnz_off, pos, g))
    general.sort(key=lambda item: item[:2])
    return monomial, [g for _, _, g in general]


def _orbit_kernel(field, moves):
    """Fixed vectors of the group generated by scaled index permutations;
    (perm, scale) in `moves` sends basis vector i to scale[i] times basis
    vector perm[i].  A fixed vector v has v[perm[i]] = scale[i] * v[i], so
    on each orbit it is one multiple of the values those edges propagate
    from the orbit's first index.  An orbit gives a column when every edge
    agrees with them and drops out otherwise.  Returns (column, value,
    width): of the width columns, position i holds value[i] in column
    column[i], or nothing where column[i] is -1."""
    size = len(moves[0][0])
    moves = [(perm.tolist(), scale.tolist()) for perm, scale in moves]
    prod, q = field.mul_table, field.q
    value = [0] * size                        # 0: not reached yet
    column = np.full(size, -1, dtype=np.int64)
    width = 0
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
            column[orbit] = width
            width += 1
    return column, np.array(value, dtype=np.int64), width


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _exponent_rows(n, k):
    """The degree-k exponents in n variables as the rows of an array, in
    block order (descending lexicographic, as algebra._compositions)."""
    rest, cols = np.array([k]), []
    for _ in range(n - 1):
        counts = rest + 1                     # the next exponent: rest..0
        parent = np.repeat(np.arange(len(rest)), counts)
        step = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
        cols = [c[parent] for c in cols] + [rest[parent] - step]
        rest = step
    return np.column_stack(cols + [rest])


@lru_cache(maxsize=_STEP_TABLES)
def _poly_steps(n, k):
    """x_j times the degree-(k-1) monomial b is the degree-k monomial
    up[j, b], in block order, with no sign (odd is False).  The rank of an
    exponent a counts, for each i < n-1, the exponents that agree with a
    before i and are larger at i; by stars and bars there are
    C(s + n-1-i - 1, n-1-i) of them, s the sum of a past i."""
    b = _exponent_rows(n, k - 1)
    parts = np.arange(n - 1, 0, -1)           # n-1-i for i < n-1
    comb = np.array([[math.comb(s + j - 1, j) if s else 0 for j in range(n)]
                     for s in range(k + 1)], dtype=np.int64)
    up = np.empty((n, len(b)), dtype=np.int64)
    for j in range(n):
        a = b.copy()
        a[:, j] += 1
        past = np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]
        up[j] = comb[past, parts].sum(axis=1)
    return _readonly(up, np.zeros(up.shape, dtype=bool))


@lru_cache(maxsize=_STEP_TABLES)
def _word_steps(n, r):
    """dx_j wedge the length-(r-1) word K (0-based indices) is
    (-1)^odd[j, K] times the word up[j, K], up -1 where K holds j."""
    prev = list(combinations(range(n), r - 1))
    rank = {word: i for i, word in enumerate(combinations(range(n), r))}
    up = np.array([[-1 if j in K else rank[tuple(sorted(K + (j,)))]
                    for K in prev] for j in range(n)])
    odd = np.array([[sum(i < j for i in K) % 2 for K in prev]
                    for j in range(n)], dtype=bool)
    return _readonly(up, odd)


def _sum_duplicates(field, keys, raws):
    """Distinct keys, ascending, and the F_q sums of their raws, zero sums
    dropped; F_q addition is base-p digit addition mod p."""
    if not len(keys):
        return keys, raws
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    digits = field.digit_table[raws[order], 0]
    sums = np.add.reduceat(digits, starts) % field.p @ field.p ** np.arange(
        field.e)
    return keys[starts][sums != 0], sums[sums != 0]


@lru_cache(maxsize=_CACHED_ACTIONS)
def _levels(field, rows, exterior):
    """The levels of one generator's action built so far, level 0 first;
    _level appends to the list."""
    one = np.ones(1, dtype=np.int64)
    return [_readonly(one - 1, one - 1, one)]


def _level(field, rows, k, exterior):
    """The action of x_i -> sum_j rows[i][j] x_j (raw rows) on the
    degree-k monomials, or of dx_i -> sum_j rows[i][j] dx_j on the
    length-k words, as read-only F_q entries (rows, cols, raws) sorted by
    column, then row, in block order.  For x^a = x_i x^b, i least, column
    a is (sum_j rows[i][j] x_j) times column b of level k-1, so each level
    is one vectorised step from the one below, built once per generator."""
    levels = _levels(field, rows, exterior)
    coef, mul = np.array(rows, dtype=np.int64), field.product_array
    while len(levels) <= k:
        up, odd = (_word_steps if exterior else _poly_steps)(len(rows),
                                                             len(levels))
        size = int(up.max()) + 1
        first, parent = np.empty(size, np.int64), np.empty(size, np.int64)
        for j in reversed(range(len(rows))):     # the least j stays
            b = np.flatnonzero(up[j] >= 0)
            first[up[j, b]], parent[up[j, b]] = j, b
        prev_rows, prev_cols, prev_raws = levels[-1]
        ptr = np.searchsorted(prev_cols, np.arange(up.shape[1] + 1))
        counts = ptr[parent + 1] - ptr[parent]
        col = np.repeat(np.arange(size), counts)
        at = np.arange(len(col)) + np.repeat(
            ptr[parent] - np.cumsum(counts) + counts, counts)
        b, v, lead = prev_rows[at], prev_raws[at], first[col]
        keys, raws = [], []
        for j in range(len(rows)):
            to, c = up[j, b], coef[lead, j]
            keep = (to >= 0) & (c != 0)
            prod = mul[c[keep], v[keep]]
            keys.append(col[keep] * size + to[keep])
            raws.append(np.where(odd[j, b[keep]], mul[field.p - 1, prod], prod))
        key, raw = _sum_duplicates(field, np.concatenate(keys),
                                   np.concatenate(raws))
        levels.append(_readonly(key % size, key // size, raw))
    return levels[k]


def _block_action(field, g, k, r):
    """g's action on the (k, r) block, whose position w*len(exps) + a holds
    x^exps[a] dx_words[w] (exps = _compositions(k, n), words the length-r
    words in order), as F_q entries (rows, cols, raws): the Kronecker
    product of its actions on the words and on the monomials."""
    poly_rows, poly_cols, poly_raws = _level(field, g.inverse_rows(), k, False)
    word_rows, word_cols, word_raws = _level(field, g.inverse_rows(), r, True)
    width = math.comb(k + g.n - 1, g.n - 1)
    return ((word_rows[:, None] * width + poly_rows).ravel(),
            (word_cols[:, None] * width + poly_cols).ravel(),
            field.product_array[word_raws[:, None], poly_raws].ravel())


def _monomial_permutation(field, g, k, r):
    """Index permutation and scalar twist of a monomial generator on the
    block: g sends position i to scale[i] times position perm[i]."""
    rows, cols, raws = _block_action(field, g, k, r)
    perm, scale = np.empty_like(rows), np.empty_like(raws)
    perm[cols], scale[cols] = rows, raws
    return perm, scale


def _moved(field, g, k, r, k0):
    """(A_g - 1) K0 as F_q entries (rows, cols, raws), for g's block action
    A_g and the orbit kernel K0 = (column, value, width)."""
    column, value, width = k0
    rows, cols, raws = _block_action(field, g, k, r)
    diag = np.arange(len(column))
    rows, cols = np.concatenate((rows, diag)), np.concatenate((cols, diag))
    raws = np.concatenate((raws, np.full(len(diag), field.p - 1)))  # -1
    keep = column[cols] >= 0
    rows, cols, raws = rows[keep], cols[keep], raws[keep]
    key, raws = _sum_duplicates(field, rows * width + column[cols],
                                field.product_array[raws, value[cols]])
    return key // width, key % width, raws


def _digits(field, rows, cols, raws):
    """The F_q entries (rows, cols, raws) in digit form: F_p entries
    (rows, cols, vals), vals nonzero, at distinct positions if the F_q
    entries are."""
    digits = field.digit_table[raws]   # entry, i, k: t^i -> k
    entry, i, k = np.nonzero(digits)
    return (rows[entry] * field.e + k, cols[entry] * field.e + i,
            digits[entry, i, k])


def _sparse_product(field, rows, cols, raws, m, width):
    """The F_q entries (rows, cols, raws) in digit form, times the F_p
    array m (None: the identity on `width` columns), on the digit rows
    that hold an entry; returns those rows and the product.  Entries of
    one rank within their row hit distinct rows, so a fancy += over them
    is exact; it forms _SCATTER output elements at a time."""
    rows, cols, vals = _digits(field, rows, cols, raws)
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.diff(rows, prepend=-1) != 0
    slot = np.cumsum(new) - 1
    out = np.zeros((np.count_nonzero(new),
                    width if m is None else m.shape[1]), dtype=np.int64)
    if m is None:
        out[slot, cols] = vals
        return rows[new], out
    rank = np.arange(len(rows)) - np.flatnonzero(new)[slot]
    order = np.argsort(rank, kind="stable")
    cuts = np.sort(np.concatenate((np.cumsum(np.bincount(rank)), np.arange(
        0, len(rank), _SCATTER // max(1, out.shape[1]) + 1))))
    for lo, hi in zip(cuts[:-1], cuts[1:]):     # each within one rank
        pick = order[lo:hi]
        # at most len(rows) products below p^2 per entry: no overflow
        out[slot[pick]] += vals[pick, None] * m[cols[pick]]
    out %= field.p
    return rows[new], out


def _block_kernel(field, n, gens, k, r):
    """Fixed vectors of the (poly degree, ext length) block, as (K0, M):
    K0 = (column, value, width) the orbit kernel of the monomial
    generators (the identity if there is none), M the digit columns, over
    those of K0, left after the other generators cut the kernel down one
    at a time (None until one has).  The first of them peels the digits
    of the sparse (A_g - 1) K0; a later one peels the nonzero entries of
    the product (A_g - 1) K0 M."""
    size = _block_size(n, k, r)
    monomial, general = _split_generators(gens)
    k0 = (np.arange(size), np.ones(size, np.int64), size)
    if monomial:
        k0 = _orbit_kernel(field, [_monomial_permutation(field, g, k, r)
                                   for g in monomial])
    m = None
    for g in general:
        width = k0[2] * field.e if m is None else m.shape[1]
        if width == 0:
            break
        moved = _moved(field, g, k, r, k0)
        if m is None:
            entries = _digits(field, *moved)
        else:
            _, product = _sparse_product(field, *moved, m, width)
            at = np.nonzero(product)
            entries = (*at, product[at])
            del product
        reduction = _kernel(*entries, width, field.p)
        del moved, entries
        if m is None:
            m = reduction
        elif reduction.shape[1] < width:      # else g fixes all of M
            m = _matmul_mod(m, reduction, field.p)
    return k0, m


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
        k0, m = _block_kernel(field, n, gens, k, r)
        total += k0[2] if m is None else m.shape[1] // field.e
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
    dims = 0
    for k, r in _block_shapes(n, d):
        (column, value, width), m = _block_kernel(field, n, gens, k, r)
        pos = np.flatnonzero(column >= 0)
        # the digit kernel K0 M, on the digit rows where K0 has an entry
        at, kernel = _sparse_product(field, pos, column[pos], value[pos], m,
                                     width * field.e)
        blocks.append((offset * field.e + at, kernel))
        offset += len(column)
        dims += kernel.shape[1]
    if dims == 0:
        return []
    rows = np.zeros((dims, offset * field.e), dtype=np.int64)
    at = 0
    for digit_rows, kernel in blocks:
        width = kernel.shape[1]
        rows[at:at + width, digit_rows] = kernel.T
        at += width
    rows = _canonical_rows(rows, field)
    full_basis = monomial_basis(field, n, d)
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
