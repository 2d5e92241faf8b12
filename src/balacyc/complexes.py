"""Balanced simplicial complexes over joins of finite abelian groups.

The vertex set is the disjoint union of the groups G_0, ..., G_k (one
"color" per group); a cell picks at most one vertex per color, written
with colors increasing. A complex here is the full (k-1)-skeleton of the
join together with a chosen set of top cells. Boundary and coboundary
matrices, integral (co)homology, and the per-tuple certificate that the
two competing descriptions of the restricted top-coboundary lattice
agree live here; the two lattices themselves, compared set by set, are
the test oracles in tests/oracles.py.

(Co)homology does not eliminate any boundary map. The join J has reduced
homology only in its top dimension k, where the cycles Z_k(J) have the
Z-basis of products (e_{h_0} - e_0) x ... x (e_{h_k} - e_0) with every
h_i nonzero (Kunneth for the augmented chain complexes Z^{G_i} -> Z).
Since X shares every chain group of J below the top, H_i(X) = 0 for
i < k - 1, H_{k-1}(X) is the cokernel of the restriction P of that basis
to the free points, those outside the top cells, and H_k(X) is its
kernel. P is one sparse matrix of entries +-1, assembled row by row from
the sorted free points (_assemble_cycles), with work per free point and
per entry of P. _cycle_groups takes P's rows, reads its columns off
them once, and eliminates P over its rows for homology and over its
columns for cohomology, two separate runs with different pivot orders,
each handed the other side as its transpose, so the universal-coefficient
check (uct_holds) cross-checks them. It reads only the top dimension and
P, so the cyclotomic family calls it without building a complex: there
every P is cut from one cached matrix per n (cyclo_family._family_cycles).

A complex therefore stores only its colors and its top cells: the
skeleton below the top is implied by the colors, and its cells are
enumerated on demand, for boundary_matrix. Its (co)homology is computed
once, on first use, from the complement of its top cells.

Sets of top cells come in one way, _checked_points: the arities, and each
color's vertices against that color's elements, are checked as sets, and
no copy of the join is built. Only a set that fails is walked point by
point, which words the error. normalize_top_cells sorts the checked
points, coboundary_restriction keeps their order, and
coboundary_matches_fourier only checks them.

The two lattice descriptions are compared once per color tuple, on the
full join (_fourier_certificate): when the top coboundary image equals
the transform-vanishing lattice there, every restriction to a set of top
cells agrees too. The peel (_peel) writes any function on the join as a
top coboundary plus a remainder on the points with no coordinate 0; the
CRT pullback in cyclo_family uses it as well. Both certificates and the
two coboundary matrices read the top coboundary's sparse columns from one
function, _coboundary_columns, over any distinct points of the join.
Inside these routes a point is its index in nested_elements order, a
mixed-radix number (_radix), and no point tuple is built; tuples become
indices (_point_indices) only where they come in: coboundary_restriction
and a complex's (co)homology.

Cells are plain pairs (support, vertices): `support` is the increasing
tuple of color indices, `vertices[j]` the element of the support[j]-th
group. Tuple comparison on these pairs is exactly the documented cell
order (support first, then vertex coordinates), so sorted() gives the
canonical basis everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import add, itemgetter

from .cyclotomic import _power_columns, vanishes_at_root
from .groups import FiniteAbelianGroup, _exponent_row, positive_dual_block, product_group
from .intlinalg import AbelianGroupStructure, IntMatrix, sparse_invariant_factors

Cell = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class BalancedComplex:
    colors: tuple[FiniteAbelianGroup, ...]
    # canonically sorted points of G_0 x ... x G_k, one per top cell
    top_cells: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def top_dim(self) -> int:
        return len(self.colors) - 1

    def f_vector(self) -> tuple[int, ...]:
        """Cell counts by dimension: f_i = e_(i+1)(|G_0|, ..., |G_k|) below the top, |T| at it."""
        e = [1] + [0] * self.top_dim  # e_0 ... e_k of the color orders
        for g in self.colors:
            for j in range(self.top_dim, 0, -1):
                e[j] += g.order * e[j - 1]
        return tuple(e[1:]) + (len(self.top_cells),)

    def cells(self, dim: int) -> tuple[Cell, ...]:
        """The cells of dimension dim, 0 <= dim <= top_dim, in canonical order.

        Below the top they are enumerated from the colors; nothing is kept.
        """
        k = self.top_dim
        if dim == k:
            full = tuple(range(k + 1))
            return tuple((full, a) for a in self.top_cells)
        return tuple(
            (support, vertices)
            for support in itertools.combinations(range(k + 1), dim + 1)
            for vertices in itertools.product(*(self.colors[i].elements() for i in support))
        )

    @cached_property
    def _groups(self) -> tuple[dict[int, AbelianGroupStructure], dict[int, AbelianGroupStructure]]:
        # not a field: outside equality, hashing and repr, and released with the complex
        taken = set(_point_indices(self.colors, self.top_cells))
        free = [f for f in range(prod(g.order for g in self.colors)) if f not in taken]
        width = prod(g.order - 1 for g in self.colors)
        return _cycle_groups(self.top_dim, _assemble_cycles(self.colors, free), width)


def nested_elements(colors) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All points of G_0 x ... x G_k as per-color tuples, in lex order."""
    return tuple(itertools.product(*(g.elements() for g in colors)))


def _checked_points(colors, points) -> list[tuple[tuple[int, ...], ...]]:
    """The points as per-color tuples, in the order given; ValueError
    unless each picks one vertex of each color and no point repeats.

    The arities are one set, and each slot's vertices one set checked
    against its color's elements, all in C-level passes. Only a set that
    fails is walked point by point, which words the error.
    """
    cells = [tuple(map(tuple, a)) for a in points]
    if (
        set(map(len, cells)) <= {len(colors)}
        and all(set(map(itemgetter(i), cells)).issubset(g.elements()) for i, g in enumerate(colors))
        and len(set(cells)) == len(cells)
    ):
        return cells
    for a in cells:
        if len(a) != len(colors):
            raise ValueError("top cell must pick one vertex per color")
        for g, v in zip(colors, a):
            if not g.contains(v):
                raise ValueError(f"vertex {v} is outside its color group")
    raise ValueError("duplicate top cells")


def normalize_top_cells(colors, top_cells) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Validate (_checked_points) and canonically sort a set of product-group points."""
    return tuple(sorted(_checked_points(tuple(colors), top_cells)))


def check_colors(colors) -> tuple[FiniteAbelianGroup, ...]:
    """The colors as a tuple; ValueError unless there is at least one and each is nontrivial."""
    colors = tuple(colors)
    if not colors:
        raise ValueError("at least one color group required")
    if any(g.order < 2 for g in colors):
        raise ValueError("color groups must be nontrivial")
    return colors


def build_complex(colors, top_cells) -> BalancedComplex:
    """Full (k-1)-skeleton of the join plus the given set of top cells.

    >>> z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    >>> build_complex((z2, z3), nested_elements((z2, z3))).f_vector()
    (5, 6)
    >>> build_complex((z2, z3), ()).f_vector()
    (5, 0)
    """
    colors = check_colors(colors)
    return BalancedComplex(colors, normalize_top_cells(colors, top_cells))


def _boundary_columns(x: BalancedComplex, i: int):
    """(row count, columns) of the boundary map of boundary_matrix.

    columns[c] maps row indices to the nonzero entries of column c. The
    cells are enumerated afresh and nothing is kept on the complex.
    (Co)homology does not use it.
    """
    if not 0 <= i <= x.top_dim:
        raise ValueError("dimension out of range")
    if i == 0:
        return 1, tuple({0: 1} for _ in x.cells(0))
    index = {cell: r for r, cell in enumerate(x.cells(i - 1))}
    columns = tuple(
        {
            index[(support[:j] + support[j + 1 :], vertices[:j] + vertices[j + 1 :])]: -1 if j % 2 else 1
            for j in range(len(support))
        }
        for support, vertices in x.cells(i)
    )
    return len(index), columns


def boundary_matrix(x: BalancedComplex, i: int) -> IntMatrix:
    """Matrix of the boundary map from i-chains to (i-1)-chains.

    Densified from the sparse columns of _boundary_columns.
    Dimension 0 yields the augmentation row of ones (reduced complex).
    Signs alternate with the position of the dropped color in the
    increasing support, so consecutive boundaries compose to zero.
    """
    return _dense(*_boundary_columns(x, i))


def _dense(n_rows: int, columns) -> IntMatrix:
    """The matrix with the given sparse {row: entry} columns."""
    width = len(columns)
    entries = [0] * (n_rows * width)
    for c, column in enumerate(columns):
        for r, entry in column.items():
            entries[r * width + c] = entry
    return IntMatrix(n_rows, width, tuple(entries))


def _assemble_cycles(colors, free) -> tuple[dict[int, int], ...]:
    """The rows of the top cycles of the join, restricted to the free points.

    Rows are the m free points, the points of G_0 x ... x G_k outside the
    top cells, given by their sorted indices (_radix). Columns are the z
    points h with every h_i nonzero, in lex order, 0 being the first
    element of each color. Column h is the cycle
    (e_{h_0} - e_0) x ... x (e_{h_k} - e_0): the entry (-1)**#{i : g_i = 0}
    at each point g with every g_i in {0, h_i}, at most 2**(k+1) of them.
    rows[r] maps column indices to the entries of row r, keys increasing;
    _transpose gives the columns.

    With S the slots where a free point g is 0, row g holds (-1)**|S| at
    every column h that agrees with g off S, where digit i of g's index is
    0. A column's index is a mixed radix over each color's nonzero
    elements, so the row's columns are g's share of that index off S, a
    digit d adding d - 1 times the slot's stride, plus one offset per
    choice of h on S. The offsets are computed once per S, one slot of S
    at a time: one step per free point and one per entry of P.
    """
    strides = [prod(g.order - 1 for g in colors[i + 1 :]) for i in range(len(colors))]
    steps = [range(0, (g.order - 1) * s, s) for g, s in zip(colors, strides)]
    slots = [(low, block, s, 1 << i) for i, ((_, low, block), s) in enumerate(zip(_radix(colors), strides))]
    spans = {}
    rows = []
    for f in free:
        mask = base = 0
        for low, block, s, bit in slots:
            d = f % block // low
            if d:
                base += (d - 1) * s
            else:
                mask |= bit
        if mask not in spans:
            offsets = [0]
            for i, step in enumerate(steps):
                if mask >> i & 1:
                    offsets = [o + t for o in offsets for t in step]
            spans[mask] = -1 if mask.bit_count() % 2 else 1, offsets
        sign, offsets = spans[mask]
        rows.append({base + o: sign for o in offsets})
    return tuple(rows)


def _transpose(rows, width: int) -> tuple[dict[int, int], ...]:
    """The columns 0..width-1 of the sparse rows, {row index: entry} each,
    keys increasing: one pass over the entries."""
    columns = tuple({} for _ in range(width))
    for r, row in enumerate(rows):
        for c, x in row.items():
            columns[c][r] = x
    return columns


def _cycle_groups(k: int, rows, width: int) -> tuple[dict[int, AbelianGroupStructure], dict[int, AbelianGroupStructure]]:
    """Reduced homology and cohomology, dimension -> group for 0..k, of a
    complex of top dimension k whose restricted top cycles P, m x z with
    z = width, have these rows (_assemble_cycles).

    The columns are read off the rows once (_transpose), and P is
    eliminated twice, each run handed the other side as its transpose.
    Over its rows, with r nonzero invariant factors:
    H_k = Z^(z - r), the cycles of the join supported on the top cells,
    and H_(k-1) = coker P, that is Z^(m - r) plus the torsion of the
    factors. Over its columns, the transpose's own run with its own pivot
    order, with r' factors: H^k = Z^(z - r') plus the torsion of the
    factors, and H^(k-1) = Z^(m - r'). Every lower dimension vanishes,
    because the complex contains the full (k-1)-skeleton of the join,
    whose reduced homology is concentrated in dimension k.
    """
    zero = AbelianGroupStructure(0)
    columns = _transpose(rows, width)
    groups = []
    for cohomology in (False, True):
        lines, transpose = (columns, rows) if cohomology else (rows, columns)
        factors = sparse_invariant_factors(lines, transpose)
        # the torsion sits in the cokernel: H_(k-1) for homology, H^k for cohomology
        below = AbelianGroupStructure.from_parts(len(rows) - len(factors), () if cohomology else factors)
        top = AbelianGroupStructure.from_parts(len(columns) - len(factors), factors if cohomology else ())
        groups.append({i: top if i == k else below if i == k - 1 else zero for i in range(k + 1)})
    return groups[0], groups[1]


def reduced_homology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral homology in dimension i, from the join's top cycles.

    Read off _cycle_groups: H_k is the kernel and H_(k-1) the cokernel of
    the top cycles restricted to the points outside the top cells, and
    every lower dimension vanishes.

    >>> z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    >>> xg = build_complex((z2, z3), nested_elements((z2, z3)))
    >>> print(reduced_homology(xg, 1))
    Z^2
    >>> print(reduced_homology(xg, 0))
    0
    """
    if not 0 <= i <= x.top_dim:
        raise ValueError("dimension out of range")
    return x._groups[0][i]


def reduced_cohomology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral cohomology in dimension i, from the transposed top cycles.

    Computed from the coboundary side rather than by dualizing homology:
    _cycle_groups eliminates the transpose of the restricted top cycles in
    a separate run with its own pivot order, so universal-coefficient
    consistency with reduced_homology cross-checks two eliminations.
    """
    if not 0 <= i <= x.top_dim:
        raise ValueError("dimension out of range")
    return x._groups[1][i]


def homology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    return dict(x._groups[0])


def cohomology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    return dict(x._groups[1])


def uct_holds(homology, cohomology) -> bool:
    """Universal-coefficient bookkeeping between computed profiles.

    Both arguments map dimensions 0..k to groups. Over Z the cohomology in
    dimension i must carry the free rank of homology in dimension i and
    the torsion of dimension i - 1.
    """
    for i, c_i in cohomology.items():
        if c_i.free_rank != homology[i].free_rank:
            return False
        below = homology[i - 1].torsion if i >= 1 else ()
        if c_i.torsion != below:
            return False
    return True


def _radix(colors) -> list[tuple[int, int, int]]:
    """Per slot i, (start_i, low_i, block_i): how a point's index places
    the point, and its columns in the top coboundary.

    A point's index f is its position in nested_elements order, the
    mixed-radix number whose digit i, f % block_i // low_i, is the
    position of g_i in colors[i].elements(); low_i is the product of the
    orders after color i, and block_i = low_i * |G_i|. Column (i, t), t a
    point of the other colors in lex order, sits at start_i, the number of
    columns of the slots before i, plus t's index, so the column through f
    along slot i is start_i + f // block_i * low_i + f % low_i: the digits
    above slot i shift down one place. No label tuple is built or hashed.
    """
    total = prod(g.order for g in colors)
    radix = []
    start, low = 0, total
    for g in colors:
        low //= g.order
        radix.append((start, low, low * g.order))
        start += total // g.order
    return radix


def _point_indices(colors, points) -> list[int]:
    """Each point's index (_radix), from its per-color tuple, summed slot
    by slot in C-level passes; only where points come in as tuples."""
    index = [0] * len(points)
    for i, (g, (_, low, _)) in enumerate(zip(colors, _radix(colors))):
        share = {v: j * low for j, v in enumerate(g.elements())}
        index = list(map(add, index, map(share.__getitem__, map(itemgetter(i), points))))
    return index


def _coboundary_columns(colors: tuple[FiniteAbelianGroup, ...], index) -> tuple[dict[int, int], ...]:
    """The sparse columns of the top coboundary, labelled (i, t) in the
    order of _radix.

    Row r is the point of index index[r] (nested_elements order); the
    indices are any distinct points of the join, in any order. Point g
    gets (-1)**i in column (i, g without slot i) for each slot i, so
    column (i, t) is the fibre of slot i through t, cut to the given
    points. That column's index is read off g's index, slot by slot.
    """
    total = prod(g.order for g in colors)
    columns = tuple({} for _ in range(sum(total // g.order for g in colors)))
    rows = list(range(len(index)))  # one int object per row, shared by its k + 1 columns
    for i, (start, low, block) in enumerate(_radix(colors)):
        sign = -1 if i % 2 else 1
        for r, f in zip(rows, index):
            columns[start + f // block * low + f % low][r] = sign
    return columns


def coboundary_top_matrix(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    """Matrix of the top coboundary map on the full join.

    Rows are indexed by the points of G_0 x ... x G_k in lex order,
    columns by the labels (i, t) of _radix: slot i in order, t a point of
    the other colors in lex order. The entry in row (g_0, ..., g_k) and
    column (i, t) is (-1)**i when t equals the row with slot i removed,
    else 0: _coboundary_columns, densified. No command reads it; it is
    the dense reference of coboundary_restriction in the tests.
    """
    colors = check_colors(colors)
    total = prod(g.order for g in colors)
    return _dense(total, _coboundary_columns(colors, range(total)))


def coboundary_restriction(colors, points_in_order) -> IntMatrix:
    """Rows of the top coboundary matrix for the given points, in order.

    The sparse columns of _coboundary_columns over the given points'
    indices alone, densified. ValueError unless the colors pass
    check_colors and the points pass _checked_points, with its messages.
    """
    colors = check_colors(colors)
    chosen = _checked_points(colors, points_in_order)
    return _dense(len(chosen), _coboundary_columns(colors, _point_indices(colors, chosen)))


def _orbit_representatives(colors) -> list[tuple[int, ...]]:
    """One character per Galois orbit chi -> u * chi, u a unit mod the
    exponent N of the product, among the characters nontrivial in every
    slot: the first of each orbit in the lexicographic order of
    positive_dual_block. For an integer function f the transform at u * chi
    is the Galois conjugate sigma_u of the transform at chi, so it vanishes
    exactly when that one does. On Z3 * Z5 * Z7 the 48 characters form one
    orbit.
    """
    g = product_group(colors)
    n = g.exponent
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    seen = set()
    representatives = []
    for chi in positive_dual_block(colors):
        if chi not in seen:
            seen.update(tuple(u * a % m for a, m in zip(chi, g.orders)) for u in units)
            representatives.append(chi)
    return representatives


@lru_cache(maxsize=8)
def fourier_vanishing_matrix(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    """Integer matrix whose kernel is cut out by transform vanishing.

    A function vector lies in the kernel exactly when its transform
    vanishes on every character nontrivial in every slot. The conditions
    are constant on Galois orbits, so each orbit representative
    (_orbit_representatives) contributes phi(N) rows, the power-basis
    coordinates of its transform value in Z[zeta_N]: coordinate t at the
    point x is entry e of column t of _power_columns(N), e the exponent of
    chi(x) in chi's exponent row (groups._exponent_row). On Z3 * Z5 * Z7
    its 48 characters form one orbit, so it has 48 rows.

    Check (c) of _fourier_certificate reads it for one color at a time, in
    that color's own conductor. No verdict reads it for several colors:
    there only the test oracles in tests/oracles.py do: the per-set
    transform-vanishing lattice and the dense containment check. It is
    dense, 5760 x 15015 entries on Z3 * Z5 * Z7 * Z11 * Z13.
    """
    colors = tuple(colors)
    g = product_group(colors)
    columns = _power_columns(g.exponent)
    rows = []
    for chi in _orbit_representatives(colors):
        row = _exponent_row(g, chi)
        rows.extend([col[e] for e in row] for col in columns)
    if not rows:
        return IntMatrix.zero(0, g.order)
    return IntMatrix.from_rows(rows)


def coboundary_matches_fourier(colors, top_cells) -> bool:
    """Whether the two lattice descriptions agree for this set of top cells.

    The restricted coboundary image and the restricted transform-vanishing
    lattice agree for every set of top cells once they agree on the full
    join, so the colors and the cells are only validated (check_colors and
    _checked_points, ValueError as in build_complex; the cells are not
    sorted), and every set of top cells over these colors shares the
    verdict of _fourier_certificate. The per-set Hermite comparison of the
    two restricted lattices is the test oracle (tests/oracles.py).
    """
    colors = check_colors(colors)
    _checked_points(colors, top_cells)
    return _fourier_certificate(colors)


def _peel_order(colors, index) -> tuple[list[int], list[tuple[int, int]]]:
    """Each point's level, and the peel's steps.

    Row x is the point of index index[x] (_radix). The level of a point g
    is the last slot i with g_i = 0 (0 being the first element of each
    color), or -1 when no coordinate is 0: on N. The steps are (row,
    column) for every point off N by decreasing level, rows increasing
    within a level: the row of g and the index of column
    (i, g without slot i), i the level of g. Both are read off g's index:
    digit i is 0 exactly when f % block_i < low_i.
    """
    radix = _radix(colors)
    level = [-1] * len(index)
    for i, (_, low, block) in enumerate(radix):
        level = [i if f % block < low else v for f, v in zip(index, level)]
    steps = []
    for i in reversed(range(len(radix))):
        start, low, block = radix[i]
        steps += [(x, start + f // block * low + f % low) for x, (f, v) in enumerate(zip(index, level)) if v == i]
    return level, steps


def _peel(colors, index, columns, f) -> tuple[dict[int, int], dict[int, int]]:
    """A cochain c and a remainder r with f = columns @ c + r, r on N.

    `columns` are sparse top coboundary columns in the order of
    _coboundary_columns, `index[x]` is the index of the point of row x,
    and `f` maps rows to integers. For i = k, ..., 0 (_peel_order), each
    point g with g_i = 0 and every later coordinate nonzero is cleared by
    the column (i, g without slot i): its value there is divided exactly
    by the column's entry at g, or, if it does not divide, left in the
    remainder. In the top coboundary that column is the fibre of slot i
    through g, whose other points have g_i nonzero and the same later
    coordinates: they are cleared later or lie in N. Returns c and r as
    {column: value} and {row: value}. Nothing here is trusted: callers
    apply the columns to c again (_coboundary_of).
    """
    rest = {x: v for x, v in f.items() if v}
    cochain = {}
    for x, c in _peel_order(colors, index)[1]:
        v = rest.get(x)
        e = columns[c].get(x)
        if not v or not e or v % e:
            continue
        cochain[c] = q = v // e
        for y, w in columns[c].items():
            z = rest.get(y, 0) - q * w
            if z:
                rest[y] = z
            else:
                rest.pop(y, None)
    return cochain, rest


def _coboundary_of(columns, cochain) -> dict[int, int]:
    """The sparse columns applied to a {column: value} cochain, as {row: value}."""
    out: dict[int, int] = {}
    for c, q in cochain.items():
        for y, w in columns[c].items():
            out[y] = out.get(y, 0) + q * w
    return {y: v for y, v in out.items() if v}


@lru_cache(maxsize=8)
def _fourier_certificate(colors: tuple[FiniteAbelianGroup, ...]) -> bool:
    """Whether the full join's top coboundary image im delta_J equals K, the
    functions whose transform vanishes at every character nontrivial in
    every slot (the kernel of fourier_vanishing_matrix): then their
    restrictions to any set of top cells agree too.

    Three exact checks on the sparse columns of delta_J (_coboundary_columns
    over every index), N being the points with no coordinate 0.
    (a) im delta_J lies in K (_fourier_contained). (b) Z^G = im delta_J +
    Z^N: each peel step's column has entry +-1 at its point and its other
    points at a lower level (_peel_order), so the peel writes any f as
    delta_J c + r with r on N. (c) K meets Z^N only in 0: per color,
    [chi(g)] over chi nontrivial and g nonzero, in g's own conductor, has
    full column rank (_injective_off_zero), and on N the transform at the
    characters nontrivial in every slot is the tensor product of these.
    Then f in K gives r = f - delta_J c in K on N, so r = 0.
    """
    index = range(prod(g.order for g in colors))
    columns = _coboundary_columns(colors, index)
    level, steps = _peel_order(colors, index)
    peels = all(
        columns[c].get(x) in (1, -1) and all(level[y] < level[x] for y in columns[c] if y != x) for x, c in steps
    )
    return _fourier_contained(colors, columns) and peels and all(_injective_off_zero(g) for g in colors)


def _fourier_contained(colors, columns) -> bool:
    """Check (a) of _fourier_certificate: every sparse column of the top
    coboundary, rows in nested_elements order, has a transform vanishing
    at every orbit representative chi (_orbit_representatives), decided
    without a power table and without reading every column's sums.

    Per chi, with e its exponent row (_exponent_row) and N the exponent:
    (a1) e is a homomorphism: e(x + g_j) = e(x) + e(g_j) mod N at every
    point x, for each generator g_j (_generator_moves); (a2) each base
    column, through the point 0, vanishes at chi: sum_x c(x) z**e(x) is a
    multiple of Phi_N (cyclotomic.vanishes_at_root). Then (a3): the
    columns are closed under translation by each generator, up to sign
    (_translation_closed). By (a1), translating f by a multiplies its
    transform at chi by zeta_N**e(a), so the functions vanishing at chi are
    translation invariant. By (a3), a column through x, translated by -x,
    is +-a column through 0, which vanishes by (a2); so every column does.
    """
    g = product_group(colors)
    n = g.exponent
    moves = _generator_moves(g)
    base = [column for column in columns if 0 in column]
    for chi in _orbit_representatives(colors):
        e = _exponent_row(g, chi)
        if not _homomorphic(e, moves, n):
            return False
        if not all(vanishes_at_root([(e[x], v) for x, v in column.items()], n) for column in base):
            return False
    return _translation_closed(columns, moves)


def _homomorphic(e, moves, n: int) -> bool:
    """Whether e(x + g_j) = e(x) + e(g_j) mod n at every index x, for each
    move x -> x + g_j of _generator_moves (move[0] is the index of g_j)."""
    return all((e[x] + e[move[0]] - e[y]) % n == 0 for move in moves for x, y in enumerate(move))


def _generator_moves(g: FiniteAbelianGroup) -> list[list[int]]:
    """For each generator g_j of g (1 in cyclic factor j, 0 elsewhere), the
    index of x + g_j for each index x, in g.elements() order: the mixed
    radix digit of factor j steps by one, and wraps from m_j - 1 to 0."""
    moves = []
    stride = g.order
    for m in g.orders:
        stride //= m
        moves.append([x - (m - 1) * stride if x // stride % m == m - 1 else x + stride for x in range(g.order)])
    return moves


def _translation_closed(columns, moves) -> bool:
    """Whether each sparse column, every row x moved to move[x], is again a
    column up to sign, for each move: the group analogue of a shift."""
    shapes = {frozenset(column.items()) for column in columns}
    return all(
        frozenset((move[x], e) for x, e in column.items()) in shapes
        or frozenset((move[x], -e) for x, e in column.items()) in shapes
        for move in moves
        for column in columns
    )


def _injective_off_zero(g: FiniteAbelianGroup) -> bool:
    """Whether no nonzero integer function on the nonzero elements of g has
    a transform vanishing at every nontrivial character: check (c) of
    _fourier_certificate for one color.

    That is full column rank of fourier_vanishing_matrix((g,)), in g's
    own conductor, without its column at 0. Its rows are one character
    per Galois orbit, so full rank over Q rules out a complex kernel too.
    """
    rows = [{j: v for j, v in enumerate(row[1:]) if v} for row in fourier_vanishing_matrix((g,)).to_rows()]
    return len(sparse_invariant_factors(rows)) == g.order - 1


def complex_json(x: BalancedComplex) -> dict:
    """Homology report for a complex, JSON-ready."""
    homology, cohomology = x._groups
    return {
        "colors": [g.to_json() for g in x.colors],
        "A": [[list(v) for v in a] for a in x.top_cells],
        "homology": {str(i): g.to_json_dict() for i, g in homology.items()},
        "cohomology": {str(i): g.to_json_dict() for i, g in cohomology.items()},
    }
