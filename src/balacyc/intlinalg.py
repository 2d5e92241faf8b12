"""Arbitrary-precision integer matrix algebra.

Smith and Hermite normal forms, integer kernels, lattice membership and
integral linear solving, all over Python's native big integers. Every
lattice question goes through a canonical Hermite form, so two column
lattices are equal exactly when hermite_normal_form gives equal forms,
and one contains a vector when HermiteForm.contains says so: membership
and solving by forward substitution over its echelon columns, kernels
from the Hermite form of m stacked on the identity, and cokernels from
sparse_invariant_factors. One Smith loop, _smith_reduce, reduces both
the dense core of sparse_invariant_factors and, with identity blocks
that end as u and v, the public reference smith_normal_form. No program
path reads u or v.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add, mul, neg, sub


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> IntMatrix:
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("row count required for an empty column list")
            rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ValueError("ragged columns")
        return cls(rows, len(columns), tuple(columns[j][i] for i in range(rows) for j in range(len(columns))))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def select_rows(self, indices) -> IntMatrix:
        indices = list(indices)
        picked = []
        for i in indices:
            picked.extend(self.row(i))
        return IntMatrix(len(indices), self.cols, tuple(picked))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ocols = [other.column(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for c in ocols:
                out.append(sum(a * b for a, b in zip(r, c)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple[int, ...]:
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(self.row(i), vec)) for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [str(x) for x in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> IntMatrix:
        return cls(data["rows"], data["cols"], tuple(int(x) for x in data["entries"]))


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization u @ m @ v = d with unimodular u, v.

    The diagonal of d holds the invariant factors, nonnegative and each
    dividing the next; `rank` counts the nonzero ones.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    rank: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.d.at(i, i) for i in range(self.rank))


@dataclass(frozen=True)
class HermiteForm:
    """Canonical column basis of an integer column lattice.

    `h` keeps the ambient row count and exactly `rank` columns: pivot rows
    strictly increase left to right, pivots are positive, and within each
    pivot row the entries left of the pivot are reduced into [0, pivot).
    Equal lattices produce equal forms, so `==` decides lattice equality.
    """

    h: IntMatrix

    @property
    def rank(self) -> int:
        return self.h.cols

    def contains(self, vec) -> bool:
        """Whether vec lies in the lattice.

        >>> even_sum = hermite_normal_form(IntMatrix.from_columns([(1, 1), (2, 0)]))
        >>> even_sum.contains([3, 1]), even_sum.contains([1, 0])
        (True, False)
        """
        vec = list(vec)
        if len(vec) != self.h.rows:
            raise ValueError("vector length does not match row count")
        return _echelon_solve(self._echelon, vec) is not None

    @cached_property
    def _echelon(self) -> list[list[tuple[int, int]]]:
        # pivots and column supports, found once per form and not per query
        return _echelon_columns(self.h.column(j) for j in range(self.h.cols))


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finitely generated abelian group: free rank plus torsion divisors.

    Torsion entries are > 1 and each divides the next; unit factors are
    dropped and a zero divisor counts as one free factor.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion divisors must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a divisibility chain")

    @classmethod
    def from_parts(cls, free_rank: int, divisors=()) -> AbelianGroupStructure:
        """Normalize raw divisors: 0 becomes a free factor, units vanish.

        >>> AbelianGroupStructure.from_parts(1, (0, -6, 1))
        AbelianGroupStructure(free_rank=2, torsion=(6,))
        """
        torsion = []
        for d in divisors:
            if d == 0:
                free_rank += 1
            elif abs(d) > 1:
                torsion.append(abs(d))
        return cls(free_rank, tuple(sorted(torsion)))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


def _find_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    """Position of a smallest-magnitude nonzero entry of a[t:, t:], or None."""
    best = None
    best_abs = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                ax = abs(x)
                if best_abs is None or ax < best_abs:
                    best, best_abs = (i, j), ax
                    if ax == 1:
                        return best
    return best


def _smith_reduce(a: list[list[int]], rows: int, cols: int) -> int:
    """Diagonalize the leading rows x cols block of the row lists a in place
    to Smith form; return the rank.

    Row and column reductions use smallest-magnitude pivoting to limit
    entry growth; a final divisibility pass at each pivot guarantees the
    chain d1 | d2 | ... . Pivot search and divisibility read only the
    block; row operations act on whole rows and column operations on every
    row of a, which carries the transforms of smith_normal_form along.
    """
    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _find_pivot(a, t, rows, cols)
        if pos is None:
            break
        if pos[0] != t:
            a[pos[0]], a[t] = a[t], a[pos[0]]
        if pos[1] != t:
            for r in a:
                r[pos[1]], r[t] = r[t], r[pos[1]]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            dirty = False
            i = t + 1
            while i < rows:
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        # remainder in (0, pivot): promote it and restart
                        a[i], a[t] = a[t], a[i]
                        dirty = True
                        continue
                i += 1
            j = t + 1
            while j < cols:
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[j], r[t] = r[t], r[j]
                        dirty = True
                        continue
                j += 1
            if not dirty:
                break
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            ai = a[i]
            for j in range(t + 1, cols):
                if ai[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    return t


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form with accumulated unimodular transforms.

    The public reference form. _smith_reduce diagonalizes the m block of
    [m | I] stacked on [I | 0]; row operations turn the top identity into
    u and column operations the bottom one into v, so u @ m @ v = d
    exactly. No program path reads u or v.
    """
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) + [int(i == j) for j in range(rows)] for i in range(rows)]
    a += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    rank = _smith_reduce(a, rows, cols)
    d = IntMatrix(rows, cols, tuple(x for r in a[:rows] for x in r[:cols]))
    u = IntMatrix(rows, rows, tuple(x for r in a[:rows] for x in r[cols:]))
    v = IntMatrix(cols, cols, tuple(x for r in a[rows:] for x in r[:cols]))
    return SmithForm(d, u, v, rank)


def sparse_invariant_factors(rows, transpose=None) -> tuple[int, ...]:
    """Nonzero invariant factors of a sparse integer matrix; no transforms.

    `rows` holds one {column index: entry} mapping per row and is not
    modified. A caller that already holds the matrix's columns may pass
    them as `transpose`, one {row index: entry} mapping per column index,
    also not modified. It must be the exact transpose of `rows`, and
    neither may hold a zero entry: they are then copied as they are, one
    dict and one set per line, with no filtering. Without it the columns
    are collected from the rows, and zero entries are dropped. Either way
    the elimination below is the same. Entries of absolute value 1 are
    eliminated first, in two steps, and each such unit pivot contributes
    the factor 1.

    The singleton pass does no arithmetic. A row whose only entry is a unit
    is a pivot whose row operations only clear its column, so the row and
    its column are dropped and the other rows just lose their entry there.
    Likewise a column whose only entry is a unit is dropped with its row,
    since its column operations only clear that row. Rows and columns whose
    count falls to 1 are queued, so the pass cascades. Dropping a singleton
    row shortens only rows, and dropping a singleton column only columns,
    so the row cascade and the column cascade run one after the other. A
    lone non-unit entry stays.

    The rest goes through a heap of rows keyed by their length. The
    shortest row is popped, skipped if its length changed since it was
    queued, and pivots on its unit entry whose column is shortest, so
    fill-in stays small; clearing that column by row operations leaves the
    pivot alone in its column, and the pivot row is then dropped, since
    column operations would clear it without touching the rest. Every
    updated row is pushed again at its new length. A row without a unit
    leaves the heap until an update touches it, so every unit entry stays
    reachable and only the pivot order depends on the heap.

    What is left, a core without unit entries, is diagonalized densely by
    _smith_reduce on the core alone: no transforms, whose entries would
    outgrow the diagonal's by far. The result equals
    smith_normal_form(m).invariant_factors for the dense m, and the rank is
    its length.

    >>> sparse_invariant_factors([{0: 2, 1: 4}, {0: 6, 1: 8}])
    (2, 4)
    >>> sparse_invariant_factors([{0: 1, 2: 1}, {1: 3}, {}])
    (1, 3)
    >>> sparse_invariant_factors([{0: 1, 2: 1}, {1: 3}, {}], [{0: 1}, {1: 3}, {0: 1}])
    (1, 3)
    """
    work = {}
    cols: dict[int, set[int]] = {}
    if transpose is None:
        for r, row in enumerate(rows):
            row = {c: x for c, x in row.items() if x}
            if row:
                work[r] = row
                for c in row:
                    cols.setdefault(c, set()).add(r)
    else:
        work = {r: dict(row) for r, row in enumerate(rows) if row}
        cols = {c: set(column) for c, column in enumerate(transpose) if column}
    units = 0

    queue = [r for r, row in work.items() if len(row) == 1]
    while queue:
        r = queue.pop()
        row = work.get(r)
        if row is None or len(row) != 1:
            continue
        ((c, x),) = row.items()
        if x != 1 and x != -1:
            continue
        units += 1
        del work[r]
        for i in cols.pop(c):
            if i != r:
                row = work[i]
                del row[c]
                if len(row) == 1:
                    queue.append(i)
                elif not row:
                    del work[i]
    queue = [c for c, members in cols.items() if len(members) == 1]
    while queue:
        c = queue.pop()
        members = cols.get(c)
        if members is None or len(members) != 1:
            continue
        (r,) = members
        x = work[r][c]
        if x != 1 and x != -1:
            continue
        units += 1
        del cols[c]
        for j in work.pop(r):
            if j != c:
                members = cols[j]
                members.discard(r)
                if len(members) == 1:
                    queue.append(j)
                elif not members:
                    del cols[j]

    heap = [(len(row), r) for r, row in work.items()]
    heapq.heapify(heap)
    while heap:
        length, r = heapq.heappop(heap)
        prow = work.get(r)
        if prow is None or len(prow) != length:
            continue
        c, shortest = None, None
        for j, x in prow.items():
            if (x == 1 or x == -1) and (shortest is None or len(cols[j]) < shortest):
                c, shortest = j, len(cols[j])
        if c is None:
            continue
        units += 1
        del work[r]
        for j in prow:
            cols[j].discard(r)
        pivot = prow.pop(c)
        for i in cols.pop(c):
            row = work[i]
            f = row.pop(c) * pivot
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del work[i]
    if not work:
        return (1,) * units
    core_cols = {c: k for k, c in enumerate(sorted(c for c, members in cols.items() if members))}
    core = []
    for r in sorted(work):
        dense = [0] * len(core_cols)
        for c, x in work[r].items():
            dense[core_cols[c]] = x
        core.append(dense)
    rank = _smith_reduce(core, len(core), len(core_cols))
    return (1,) * units + tuple(core[i][i] for i in range(rank))


def hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Column-style Hermite normal form of the column lattice of m.

    Column operations only (right-unimodular), so the column lattice is
    preserved; zero columns are dropped from the result. The output is the
    unique canonical basis described on HermiteForm.

    Two passes. The echelon pass takes, row by row, a smallest-magnitude
    nonzero entry among the columns not yet used as its pivot and runs
    Euclid's algorithm on that row; the columns from the pivot on are zero
    above the row, so each update touches only the rows from it down. The
    back-reduction pass then goes right to left: column i is reduced at
    each later pivot row r_l, in increasing order, against the finished
    column l. That column is zero above r_l, so the step changes only rows
    from r_l down and leaves the earlier pivot rows reduced; column i ends
    with 0 <= h_i[r_l] < p_l for every l > i, which fixes the unique form.
    The finished columns are sparse, so each step visits only the rows
    where column l is nonzero.
    """
    rows, cols = m.rows, m.cols
    # work column-major
    c = [list(m.column(j)) for j in range(cols)]
    pivot_rows = []
    piv = 0
    for r in range(rows):
        if piv == cols:
            break
        best = None
        for j in range(piv, cols):
            x = c[j][r]
            if x and (best is None or abs(x) < best_abs):
                best, best_abs = j, abs(x)
                if best_abs == 1:
                    break
        if best is None:
            continue
        c[piv], c[best] = c[best], c[piv]
        while True:
            tail = c[piv][r:]
            p = tail[0]
            nxt = None
            for j in range(piv + 1, cols):
                col = c[j]
                x = col[r]
                if x:
                    q = x // p
                    if q == 1:
                        col[r:] = map(sub, col[r:], tail)
                    elif q == -1:
                        col[r:] = map(add, col[r:], tail)
                    else:
                        col[r:] = map(sub, col[r:], map(mul, tail, repeat(q)))
                    x = col[r]
                    if x and (nxt is None or abs(x) < nxt_abs):
                        nxt, nxt_abs = j, abs(x)
            if nxt is None:
                break
            c[piv], c[nxt] = c[nxt], c[piv]
        if p < 0:
            c[piv][r:] = map(neg, tail)
        pivot_rows.append(r)
        piv += 1
    # support[l]: the rows where the finished column l is nonzero
    support = [None] * piv
    for i in range(piv - 1, -1, -1):
        col = c[i]
        for l in range(i + 1, piv):
            r = pivot_rows[l]
            done = c[l]
            q = col[r] // done[r]
            if q:
                for k in support[l]:
                    col[k] -= q * done[k]
        support[i] = [k for k in range(pivot_rows[i], rows) if col[k]]
    return HermiteForm(IntMatrix(rows, piv, tuple(chain.from_iterable(zip(*c[:piv])))))


def _echelon_columns(columns) -> list[list[tuple[int, int]]]:
    """The nonzero entries of each column as (row, entry) pairs, top down;
    for a column of a column-echelon form the first pair is its pivot."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in columns]


def _echelon_solve(echelon, b) -> list[int] | None:
    """Coefficients y with sum(y[j] * column j) == b, or None.

    `echelon` holds columns in column-echelon form, as _echelon_columns
    gives them: each is zero above its pivot, and the pivot rows strictly
    increase. Forward substitution: at each pivot row the residual is
    divided by the pivot and that multiple of the column subtracted, which
    leaves the remainder there for good, since later columns are zero in
    that row. b lies in the span exactly when the residual ends at zero.
    """
    residual = list(b)
    y = []
    for support in echelon:
        p, pivot = support[0]
        q = residual[p] // pivot
        if q:
            for i, x in support:
                residual[i] -= q * x
        y.append(q)
    return None if any(residual) else y


def _stacked_hermite(m: IntMatrix) -> tuple[list, list]:
    """Hermite form of m stacked on the identity, split by its top blocks.

    The form is [m; I] @ V for a unimodular V, so its top block is m @ V
    and its bottom block is V itself. Columns are returned as (top, bottom)
    pairs: first those with a nonzero top, in column-echelon form, then
    those with a zero top, whose bottoms span the kernel of m.
    """
    stacked = IntMatrix(m.rows + m.cols, m.cols, m.entries + IntMatrix.identity(m.cols).entries)
    h = hermite_normal_form(stacked).h
    image, kernel = [], []
    for j in range(h.cols):
        col = h.column(j)
        top, bottom = col[: m.rows], col[m.rows :]
        (image if any(top) else kernel).append((top, bottom))
    return image, kernel


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice {x : m @ x = 0}.

    The bottom blocks of the columns of the Hermite form of [m; I] whose
    top block is zero. Those bottoms are columns of a unimodular matrix, so
    the basis is saturated: every integer kernel vector is an integer
    combination of the columns returned.
    """
    _, kernel = _stacked_hermite(m)
    return IntMatrix.from_columns([bottom for _, bottom in kernel], rows=m.cols)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i] = [(akk * x - aik * y) // prev for x, y in zip(a[i], a[k])]
        prev = akk
    return sign * a[n - 1][n - 1]


def solve_in_lattice(m: IntMatrix, b) -> tuple[int, ...] | None:
    """An integer x with m @ x = b, or None when b is outside the lattice.

    Forward substitution of b over the echelon top blocks of the Hermite
    form of [m; I] gives y with (m @ V) y = b; then x = V y.

    >>> solve_in_lattice(IntMatrix.from_rows([[2]]), [3]) is None
    True
    >>> solve_in_lattice(IntMatrix.from_rows([[1, 1], [1, -1]]), [2, 0])
    (1, 1)
    """
    b = list(b)
    if len(b) != m.rows:
        raise ValueError("vector length does not match row count")
    image, _ = _stacked_hermite(m)
    y = _echelon_solve(_echelon_columns(top for top, _ in image), b)
    if y is None:
        return None
    x = [0] * m.cols
    for q, (_, bottom) in zip(y, image):
        if q:
            x = [a + q * v for a, v in zip(x, bottom)]
    return tuple(x)


def cokernel_structure(m: IntMatrix) -> AbelianGroupStructure:
    """Isomorphism type of Z**rows divided by the column lattice of m.

    Free rank rows - rank and torsion from the invariant factors, both read
    off sparse_invariant_factors.

    >>> print(cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3]])))
    C6
    >>> print(cokernel_structure(IntMatrix.zero(3, 0)))
    Z^3
    """
    factors = sparse_invariant_factors([{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)])
    return AbelianGroupStructure.from_parts(m.rows - len(factors), factors)
