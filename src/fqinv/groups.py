"""Finite matrix groups acting on P_n (x) E_n.

A GroupMatrix stores its entries (raw field values, row tuples) plus the
lazily computed inverse, which is what the contragredient action needs.
gens_standard lists every elementary transvection of the special/general
linear families; the rows of the case table in fixedpoint take small
generating sets, whose builders live here.  Breadth-first closure provides
an independent order count for everything of modest size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import (
    ArityMismatch,
    ArityTooSmall,
    BadIndexTuple,
    CapExceeded,
    CaseFieldMismatch,
    FieldMismatch,
    InvalidCap,
    SingularMatrix,
    UnknownCase,
)
from .field import FieldSpec, make_field

# a key word holds values below 2**62, so the int64 arithmetic on it
# cannot overflow
_WORD = 2 ** 62
# group_order_bfs counts on a bit set while it is no larger than the sorted
# int64 keys at the cap, 64 bits each
_BITS_PER_CAP = 64
# frontier elements stepped at once by _count_on_bits
_CHUNK = 1 << 13


class GroupMatrix:
    """Invertible n x n matrix over a FieldSpec; immutable."""

    __slots__ = ("field", "n", "rows", "_inv_rows")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        rows = tuple(
            tuple(algebra._coerce_raw(field, c) for c in row) for row in rows
        )
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ArityMismatch("matrix must be square")
        self.n = n
        self.rows = rows
        self._inv_rows = None

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_raw_rows(cls, field, rows):
        """Build from entries that are already raw field values."""
        m = object.__new__(cls)
        m.field = field
        m.rows = tuple(tuple(row) for row in rows)
        m.n = len(m.rows)
        m._inv_rows = None
        return m

    def __mul__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        b_cols = list(zip(*other.rows))
        return GroupMatrix.from_raw_rows(self.field, [
            [_dot(self.field, row, col) for col in b_cols] for row in self.rows])

    def inverse_rows(self):
        """Rows of the inverse matrix as raw tuples (cached)."""
        if self._inv_rows is None:
            self._inv_rows = _invert(self.field, self.rows)
        return self._inv_rows

    def inverse(self) -> "GroupMatrix":
        return GroupMatrix.from_raw_rows(self.field, self.inverse_rows())

    def __eq__(self, other):
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"GroupMatrix({self.field}, {[list(r) for r in self.rows]})"


def _dot(field, row, col):
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _invert(field, rows):
    n = len(rows)
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            raise SingularMatrix("matrix is not invertible")
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
        inv = field.inv(work[c][c])
        work[c] = [field.mul(v, inv) for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [
                    field.sub(v, field.mul(f, w)) for v, w in zip(work[r], work[c])
                ]
    return tuple(tuple(row[n:]) for row in work)


@dataclass(frozen=True)
class GroupPresentation:
    label: str
    n: int
    field: FieldSpec
    generators: tuple
    order: int


def transvection(field, n, i, j, c=1) -> GroupMatrix:
    """Identity plus c in position (i, j), i != j, 1-based."""
    n, i, j = algebra._ints((n, i, j), "size and indices")
    if i == j:
        raise BadIndexTuple("transvection needs i != j")
    rows = [[int(a == b) for b in range(1, n + 1)] for a in range(1, n + 1)]
    rows[i - 1][j - 1] = c
    return GroupMatrix(field, rows)


def diagonal(field, entries) -> GroupMatrix:
    return GroupMatrix(field, [[c if a == b else 0 for b in range(len(entries))]
                               for a, c in enumerate(entries)])


def gl_order(n: int, q: int) -> int:
    n, q = algebra._ints((n, q), "size and field order")
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def _omega_powers(field):
    """The power-basis scalars 1, t, t^2, ... spanning F_q over F_p."""
    return [field.from_raw(field.p ** k) for k in range(field.e)]


def gens_standard(kind: str, n: int, field: FieldSpec) -> GroupPresentation:
    """Standard generator lists: every elementary transvection with each
    power-basis scalar for sl; the same plus one primitive diagonal for gl."""
    (n,) = algebra._ints((n,), "size")
    return _linear(kind, n, field, [
        transvection(field, n, i, j, w) for i in range(1, n + 1)
        for j in range(1, n + 1) if i != j for w in _omega_powers(field)])


def _linear(kind, n, field, gens):
    """The sl or gl presentation on gens, which generate SL_n(F_q): sl(1, q)
    lists the identity, and gl adds one primitive diagonal."""
    if kind not in ("sl", "gl"):
        raise UnknownCase(f"kind must be 'sl' or 'gl', got {kind!r}")
    if n < 1:
        raise ArityTooSmall("need n >= 1")
    if kind == "sl":
        return GroupPresentation(kind, n, field, tuple(gens) or (
            GroupMatrix.identity(field, 1),), sl_order(n, field.q))
    diag = diagonal(field, [field.from_raw(field.primitive)] + [1] * (n - 1))
    return GroupPresentation(kind, n, field, (*gens, diag), gl_order(n, field.q))


def _sl_small(field, n):
    """x1 -> x1 + w x2 for each power-basis scalar w and an n-cycle of
    determinant 1, which generate SL_n(F_q) for n > 1: conjugates by the
    cycle give every e_{i,i+1}(w), and their commutators every elementary
    transvection (Taylor, The Geometry of the Classical Groups, 1992)."""
    if n < 2:
        return ()
    cycle = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
    cycle[0][n - 1] = (-1) ** (n + 1)       # an n-cycle's sign is (-1)^(n+1)
    return (*(transvection(field, n, 1, 2, w) for w in _omega_powers(field)),
            GroupMatrix(field, cycle))


def _embed(field, n, offset, block: GroupMatrix) -> GroupMatrix:
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    for a, row in enumerate(block.rows, offset):
        rows[a][offset:offset + block.n] = row
    return GroupMatrix.from_raw_rows(field, rows)


def _translations(field, n):
    """g0: the upper-row translations by span(x_2..x_n)."""
    gens = [transvection(field, n, 1, j, w)
            for j in range(2, n + 1) for w in _omega_powers(field)]
    return GroupPresentation("g0", n, field, tuple(gens), field.q ** (n - 1))


def _affine(field, n, size, reflections=()):
    """The translations of x1 by span(x_2..x_n) under a special linear
    block on x_2..x_{size+1}, then one diagonal reflection x_i -> -x_i for
    each listed i.  A block of size 2 or more conjugates x1 -> x1 + x2 to
    every translation by its span, so of those only x1 -> x1 + x2 is
    listed; the translations by x_{size+2}..x_n all are."""
    g0 = _translations(field, n)
    block = _linear("sl", size, field, _sl_small(field, size))
    gens = (g0.generators[:1 if size > 1 else field.e]
            + g0.generators[size * field.e:])
    gens += tuple(_embed(field, n, 1, g) for g in block.generators)
    gens += tuple(diagonal(field, [-1 if j == i else 1 for j in range(1, n + 1)])
                  for i in reflections)
    order = g0.order * block.order * 2 ** len(reflections)
    return GroupPresentation("affine", n, field, gens, order)


def gens_case(label: str, field: FieldSpec = None, n: int = None) -> GroupPresentation:
    """Presentation of a case kind other than the gens_standard families.

    g0 and parabolic are parameterized by n (upper-row translations, and
    translations extended by a special linear block); the five reflection
    group cases come with their field and size built in.
    """
    # the case table lives with the module descriptions, which import this
    from .fixedpoint import _KINDS, Case, case_group

    row = _KINDS.get(label)
    if row is None or row.standard:
        raise UnknownCase(f"unknown case {label!r}")
    if n is not None:
        (n,) = algebra._ints((n,), "size")
    if row.q is None:
        if field is None or n is None:
            raise CaseFieldMismatch(f"case {label!r} needs both field and n")
        if n < row.min_n:
            raise ArityTooSmall(f"need n >= {row.min_n}")
    else:
        want = make_field(row.q)
        if field is not None and field != want:
            raise CaseFieldMismatch(f"case {label} lives over {want}, got {field}")
        if n is not None and n != row.n:
            raise CaseFieldMismatch(f"case {label} has n = {row.n}")
        field, n = want, row.n
    return case_group(Case(label, label, field, n))


def act(g: GroupMatrix, u):
    return algebra.tensor_act(g, u)


def _common_shape(group):
    """(field, n, generators) of a presentation, or of a matrix list with
    the field and size of its first matrix (None for an empty list);
    raises FieldMismatch or ArityMismatch unless every generator has
    that field and size."""
    if isinstance(group, GroupPresentation):
        field, n, gens = group.field, group.n, list(group.generators)
    else:
        gens = list(group)
        field, n = (gens[0].field, gens[0].n) if gens else (None, None)
    for g in gens:
        if g.field != field:
            raise FieldMismatch(f"{field} vs {g.field}")
        if g.n != n:
            raise ArityMismatch(f"{n} x {n} vs {g.n} x {g.n} generators")
    return field, n, gens


def is_invariant(u, group) -> bool:
    """True when every listed generator fixes u."""
    gens = group.generators if isinstance(group, GroupPresentation) else group
    return algebra._is_fixed(gens, u)


def group_order_bfs(group, cap: int = 10 ** 6) -> int:
    """Count the closure of the generators by breadth-first products.

    Row i of M*g is (row i of M)*g, so an element is the tuple of the
    indices of its rows, row i's in the orbit O_i of the identity's row i,
    and each generator acts on those indices by one table per row.  Every
    field runs the same vectorised closure: over F_{p^e} a row is its n*e
    base-p digits, and g acts on them by its regular representation over
    F_p.  The elements are counted on a bit set over the mixed-radix keys
    of their index tuples when that key space, of prod |O_i| keys, has at
    most _BITS_PER_CAP * cap bits (the size of cap sorted int64 keys) and
    fits one int64 word; else _closure collects the tuples' sorted keys.
    Raises CapExceeded exactly when the order exceeds cap, and InvalidCap
    for a cap below 1, which no group order can meet.
    """
    (cap,) = algebra._ints((cap,), "cap")
    if cap < 1:
        raise InvalidCap(f"cap must be at least 1, got {cap}")
    field, n, gens = _common_shape(group)
    if not gens:
        return 1
    p, width = field.p, n * field.e
    act = np.concatenate([_regular(field, g) for g in gens], axis=1)

    def move_rows(rows):
        return (rows @ act % p).reshape(-1, width)

    ident = np.zeros((n, width), dtype=np.int64)
    ident[np.arange(n), np.arange(0, width, field.e)] = 1
    orbits = [_closure(ident[i:i + 1], move_rows, p, cap) for i in range(n)]
    sizes = [len(orbit) for orbit in orbits]
    # tables[k, i, j]: the index in O_i of row j of O_i times gens[k], in
    # the narrowest int type that holds an index (each step gathers
    # len(gens) * n entries per frontier element from it)
    tables = np.zeros((len(gens), n, max(sizes)),
                      dtype=np.min_scalar_type(max(sizes)))
    for i, orbit in enumerate(orbits):
        images = _keys(move_rows(_rows(orbit, p, width)), p)
        tables[:, i, :sizes[i]] = np.searchsorted(orbit, images).reshape(
            sizes[i], -1).T
    tables = tables.reshape(len(gens), -1)
    offsets = np.arange(n) * max(sizes)

    def move_elements(elements):
        return np.take(tables, elements + offsets, axis=1).reshape(-1, n)

    ident_keys = _keys(ident, p)
    start = np.array([[np.searchsorted(orbit, ident_keys[i:i + 1])[0]
                       for i, orbit in enumerate(orbits)]])
    if math.prod(sizes) > min(_BITS_PER_CAP * cap, _WORD):
        return len(_closure(start, move_elements, sizes, cap))
    return _count_on_bits(start, move_elements, sizes, cap)


def _closure(start, step, base, cap):
    """Sorted keys of every row reachable from the one row of start by
    step, which maps a frontier of rows (column j's ints in range(base[j]),
    or range(base) for an int) to their images under every generator.  The
    orbit of a row has at most the group order, so more than cap rows
    prove that it exceeds cap."""
    width = start.shape[1]
    visited = _keys(start, base)
    frontier = start
    while len(frontier):
        keys = np.sort(_keys(step(frontier), base))
        pos = np.searchsorted(visited, keys)
        new = visited[np.minimum(pos, len(visited) - 1)] != keys
        new[1:] &= keys[1:] != keys[:-1]
        visited = np.insert(visited, pos[new], keys[new])
        if len(visited) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = _rows(keys[new], base, width)
    return visited


def _count_on_bits(start, step, sizes, cap):
    """The number of index tuples reachable from the one tuple of start by
    step (as for _closure), column i's in range(sizes[i]): each frontier
    chunk's images are keyed, those whose bit is set are dropped, and the
    bits of the unique rest are set."""
    width = start.shape[1]
    frontier = _keys(start, sizes)
    seen = np.zeros(-(-math.prod(sizes) // 8), dtype=np.uint8)
    seen[frontier >> 3] = 1 << (frontier & 7)
    count = 1
    while len(frontier):
        fresh = []
        for lo in range(0, len(frontier), _CHUNK):
            keys = _keys(step(_rows(frontier[lo:lo + _CHUNK], sizes, width)),
                         sizes)
            keys = np.sort(keys[(seen[keys >> 3] >> (keys & 7) & 1) == 0])
            keys = keys[np.diff(keys, prepend=-1) != 0]
            np.bitwise_or.at(seen, keys >> 3,
                             (1 << (keys & 7)).astype(np.uint8))
            count += len(keys)
            if count > cap:
                raise CapExceeded(f"closure exceeded cap {cap}")
            fresh.append(keys)
        frontier = np.concatenate(fresh)
    return count


def _regular(field, g):
    """The (n*e) x (n*e) matrix over F_p by which g acts on base-p digit
    rows: digits(v*g) = digits(v) @ _regular(field, g) mod p.  Its e x e
    block (i, j) is the digit table's matrix of g[i][j]."""
    width = g.n * field.e
    blocks = field.digit_table[np.array(g.rows, dtype=np.int64)]
    return blocks.transpose(0, 2, 1, 3).reshape(width, width)


def _radices(base, width):
    return np.broadcast_to(base, (width,)).tolist()


def _word_spans(radices):
    """(lo, hi) column ranges, one per int64 word of a key: each word packs
    as many columns as keep its range of values within _WORD."""
    spans, lo, size = [], 0, 1
    for col, radix in enumerate(radices):
        if col > lo and size * radix > _WORD:
            spans.append((lo, col))
            lo, size = col, 1
        size *= radix
    return spans + [(lo, len(radices))]


def _keys(rows, base):
    """One key per row of a matrix of ints, column j's in range(base[j]) (or
    range(base) for an int), equal exactly when the rows are: the row's
    mixed-radix int64 when the product of the radices is at most _WORD,
    else its big-endian int64 words viewed as one raw-bytes value."""
    radices = _radices(base, rows.shape[1])
    words = []
    for lo, hi in _word_spans(radices):
        word = np.zeros(len(rows), dtype=np.int64)
        for col in range(lo, hi):
            word = word * radices[col] + rows[:, col]
        words.append(word)
    if len(words) == 1:
        return words[0]
    return np.stack(words, axis=1).astype(">i8").view(f"V{8 * len(words)}").ravel()


def _rows(keys, base, width):
    """The rows whose _keys are keys."""
    radices = _radices(base, width)
    spans = _word_spans(radices)
    words = (keys.view(">i8") if len(spans) > 1 else keys).reshape(
        len(keys), len(spans))
    out = np.empty((len(keys), width), dtype=np.int64)
    for w, (lo, hi) in enumerate(spans):
        word = words[:, w].astype(np.int64)
        for col in reversed(range(lo, hi)):
            word, out[:, col] = np.divmod(word, radices[col])
    return out
