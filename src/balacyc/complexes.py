"""Balanced simplicial complexes over joins of finite abelian groups.

The vertex set is the disjoint union of the groups G_0, ..., G_k (one
"color" per group); a cell picks at most one vertex per color, written
with colors increasing. A complex here is the full (k-1)-skeleton of the
join together with a chosen set of top cells. Boundary and coboundary
matrices, integral (co)homology, and the two competing descriptions of
the restricted top-coboundary lattice all live here.

(Co)homology does not eliminate any boundary map. The join J has reduced
homology only in its top dimension k, where the cycles Z_k(J) have the
Z-basis of products (e_{h_0} - e_0) x ... x (e_{h_k} - e_0) with every
h_i nonzero (Kunneth for the augmented chain complexes Z^{G_i} -> Z).
Since X shares every chain group of J below the top, H_i(X) = 0 for
i < k - 1, H_{k-1}(X) is the cokernel of the restriction P of that basis
to the points outside the top cells, and H_k(X) is its kernel. P is one
sparse matrix of entries +-1 per complex, assembled once; homology
eliminates it over its rows and cohomology over its columns, two separate
runs with different pivot orders, so the universal-coefficient check
(uct_holds) cross-checks them.

A complex therefore stores only its colors and its top cells: the
skeleton below the top is implied by the colors, and its cells are
enumerated on demand, for boundary_matrix.

Cells are plain pairs (support, vertices): `support` is the increasing
tuple of color indices, `vertices[j]` the element of the support[j]-th
group. Tuple comparison on these pairs is exactly the documented cell
order (support first, then vertex coordinates), so sorted() gives the
canonical basis everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .cyclotomic import euler_phi, root_power
from .groups import FiniteAbelianGroup, positive_dual_block, product_group
from .intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    hermite_normal_form,
    kernel_basis,
    sparse_invariant_factors,
)

Cell = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class BalancedComplex:
    colors: tuple[FiniteAbelianGroup, ...]
    # canonically sorted points of G_0 x ... x G_k, one per top cell
    top_cells: tuple[tuple[tuple[int, ...], ...], ...]
    # The cycle matrix and its invariant factors computed for this complex.
    # Outside equality, hashing and repr; it lives and dies with the complex.
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

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


def nested_elements(colors) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All points of G_0 x ... x G_k as per-color tuples, in lex order."""
    return tuple(itertools.product(*(g.elements() for g in colors)))


@lru_cache(maxsize=8)
def _point_set(colors: tuple[FiniteAbelianGroup, ...]) -> frozenset:
    return frozenset(nested_elements(colors))


def normalize_top_cells(colors, top_cells) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Validate and canonically sort a set of product-group points.

    A cell that is a point of the product passes with one lookup in the
    product's point set; any other is checked vertex by vertex, which words
    the error.
    """
    colors = tuple(colors)
    points = _point_set(colors)
    seen = []
    for a in top_cells:
        a = tuple(tuple(v) for v in a)
        if a not in points:
            if len(a) != len(colors):
                raise ValueError("top cell must pick one vertex per color")
            for g, v in zip(colors, a):
                if not g.contains(v):
                    raise ValueError(f"vertex {v} is outside its color group")
        seen.append(a)
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate top cells")
    return tuple(sorted(seen))


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


def _with_rows(n_rows: int, columns):
    """(rows, columns) of the sparse matrix with the given {row: entry} columns."""
    rows = tuple({} for _ in range(n_rows))
    for c, column in enumerate(columns):
        for r, entry in column.items():
            rows[r][c] = entry
    return rows, tuple(columns)


def boundary_matrix(x: BalancedComplex, i: int) -> IntMatrix:
    """Matrix of the boundary map from i-chains to (i-1)-chains.

    Densified from the sparse columns of _boundary_columns.
    Dimension 0 yields the augmentation row of ones (reduced complex).
    Signs alternate with the position of the dropped color in the
    increasing support, so consecutive boundaries compose to zero.
    """
    n_rows, columns = _boundary_columns(x, i)
    width = len(columns)
    entries = [0] * (n_rows * width)
    for c, column in enumerate(columns):
        for r, entry in column.items():
            entries[r * width + c] = entry
    return IntMatrix(n_rows, width, tuple(entries))


def _cycle_matrix(x: BalancedComplex):
    """The top cycles of the join, restricted to the points outside the top cells.

    Rows are the m points of G_0 x ... x G_k that are not top cells, in
    nested_elements order; columns are the z points h with every h_i
    nonzero, 0 being the first element of each color. Column h is the
    cycle (e_{h_0} - e_0) x ... x (e_{h_k} - e_0): the entry
    (-1)**#{i : g_i = 0} at each point g with every g_i in {0, h_i}, at
    most 2**(k+1) of them. Returned as (rows, columns) in the layout of
    _with_rows; assembled once per complex and kept on it, so
    homology and cohomology share it; the result must not be modified.
    """
    if "cycles" not in x._memo:
        x._memo["cycles"] = _assemble_cycles(x)
    return x._memo["cycles"]


def _assemble_cycles(x: BalancedComplex):
    zeros = tuple(g.elements()[0] for g in x.colors)
    tops = set(x.top_cells)
    index = {g: r for r, g in enumerate(g for g in nested_elements(x.colors) if g not in tops)}
    columns = []
    for h in itertools.product(*(g.elements()[1:] for g in x.colors)):
        column = {}
        for g in itertools.product(*zip(zeros, h)):
            r = index.get(g)
            if r is not None:
                column[r] = -1 if sum(a == b for a, b in zip(g, zeros)) % 2 else 1
        columns.append(column)
    return _with_rows(len(index), columns)


def _cycle_factors(x: BalancedComplex, over_columns: bool) -> tuple[int, ...]:
    """Invariant factors of _cycle_matrix, eliminated over its rows or its columns.

    Kept on the complex, like the matrix.
    """
    key = ("cycle factors", over_columns)
    if key not in x._memo:
        rows, columns = _cycle_matrix(x)
        x._memo[key] = sparse_invariant_factors(columns if over_columns else rows)
    return x._memo[key]


def reduced_homology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral homology in dimension i, from the join's top cycles.

    With P = _cycle_matrix(x), m x z, and r its number of nonzero
    invariant factors (P eliminated over its rows): H_k = Z^(z - r), the
    cycles of the join supported on the top cells; H_(k-1) = coker P, that
    is Z^(m - r) plus the torsion of the factors; every lower dimension
    vanishes, because X contains the full (k-1)-skeleton of the join,
    whose reduced homology is concentrated in dimension k.

    >>> z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    >>> xg = build_complex((z2, z3), nested_elements((z2, z3)))
    >>> print(reduced_homology(xg, 1))
    Z^2
    >>> print(reduced_homology(xg, 0))
    0
    """
    return _from_cycles(x, i, False)


def reduced_cohomology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral cohomology in dimension i, from the transposed top cycles.

    Computed from the coboundary side rather than by dualizing homology:
    the transpose of P = _cycle_matrix(x) is eliminated over its rows, a
    separate run with its own pivot order, so universal-coefficient
    consistency with reduced_homology cross-checks two eliminations. With
    r' its number of nonzero invariant factors: H^k = Z^(z - r') plus the
    torsion of the factors, H^(k-1) = Z^(m - r'), and every lower
    dimension vanishes.
    """
    return _from_cycles(x, i, True)


def _from_cycles(x: BalancedComplex, i: int, cohomology: bool) -> AbelianGroupStructure:
    k = x.top_dim
    if not 0 <= i <= k:
        raise ValueError("dimension out of range")
    if i < k - 1:
        return AbelianGroupStructure(0)
    rows, columns = _cycle_matrix(x)
    factors = _cycle_factors(x, cohomology)
    # the torsion sits in the cokernel: H_(k-1) for homology, H^k for cohomology
    free = (len(columns) if i == k else len(rows)) - len(factors)
    torsion = factors if (i == k) == cohomology else ()
    return AbelianGroupStructure.from_parts(free, torsion)


def homology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    return {i: reduced_homology(x, i) for i in range(x.top_dim + 1)}


def cohomology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    return {i: reduced_cohomology(x, i) for i in range(x.top_dim + 1)}


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


def uct_consistent(x: BalancedComplex) -> bool:
    """Universal-coefficient consistency of the (co)homology of x; see uct_holds."""
    return uct_holds(homology_profile(x), cohomology_profile(x))


@lru_cache(maxsize=None)
def top_coboundary_domain(colors: tuple[FiniteAbelianGroup, ...]) -> tuple[tuple[int, tuple], ...]:
    """Column labels (i, t) of the top coboundary matrix.

    Slot i ranges over colors; t over the product of the other colors'
    elements in lex order. These label the (k-1)-cochain components.
    """
    k = len(colors) - 1
    labels = []
    for i in range(k + 1):
        others = [colors[j].elements() for j in range(k + 1) if j != i]
        for t in itertools.product(*others):
            labels.append((i, t))
    return tuple(labels)


@lru_cache(maxsize=None)
def coboundary_top_matrix(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    """Matrix of the top coboundary map on the full join.

    Rows are indexed by the points of G_0 x ... x G_k in lex order,
    columns by top_coboundary_domain. The entry in row (g_0, ..., g_k)
    and column (i, t) is (-1)**i when t equals the row with slot i
    removed, else 0.
    """
    points = nested_elements(colors)
    index = {g: r for r, g in enumerate(points)}
    labels = top_coboundary_domain(colors)
    width = len(labels)
    entries = [0] * (len(points) * width)
    for c, (i, t) in enumerate(labels):
        sign = -1 if i % 2 else 1
        for gi in colors[i].elements():
            g = t[:i] + (gi,) + t[i:]
            entries[index[g] * width + c] = sign
    return IntMatrix(len(points), width, tuple(entries))


def apply_top_coboundary(colors, cochain) -> tuple[int, ...]:
    """Evaluate the top coboundary on a cochain given in domain order."""
    return coboundary_top_matrix(tuple(colors)).apply(cochain)


def cochain_vector(colors, components) -> tuple[int, ...]:
    """Flatten per-slot cochain components into domain order.

    `components[i]` maps tuples over the other colors (slot i removed) to
    integers; missing tuples are zero. The result feeds
    apply_top_coboundary.
    """
    components = list(components)
    if len(components) != len(colors):
        raise ValueError("one component per color required")
    return tuple(components[i].get(t, 0) for i, t in top_coboundary_domain(tuple(colors)))


def coboundary_restriction(colors, points_in_order) -> IntMatrix:
    """Rows of the top coboundary matrix for the given points, in order."""
    colors = tuple(colors)
    full = coboundary_top_matrix(colors)
    index = {g: r for r, g in enumerate(nested_elements(colors))}
    return full.select_rows([index[tuple(tuple(v) for v in g)] for g in points_in_order])


def coboundary_lattice(colors, top_cells) -> HermiteForm:
    """Canonical form of the restricted image of the top coboundary.

    The image lattice of the top coboundary map, with coordinates
    restricted to the chosen top cells (sorted canonically).
    """
    return _coboundary_form(colors, normalize_top_cells(colors, top_cells))


def _coboundary_form(colors, cells) -> HermiteForm:
    return hermite_normal_form(coboundary_restriction(colors, cells))


@lru_cache(maxsize=None)
def fourier_vanishing_matrix(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    """Integer matrix whose kernel is cut out by transform vanishing.

    A function vector lies in the kernel exactly when its transform
    vanishes on every character nontrivial in every slot. For an integer
    function f and a unit u mod the exponent N, the transform at u * chi
    is the Galois conjugate sigma_u of the transform at chi, so it
    vanishes exactly when that one does: the conditions are constant on
    each orbit chi -> u * chi. One character per orbit is kept, the first
    in the lexicographic order of positive_dual_block, and each
    contributes phi(N) rows, the power-basis coordinates of its transform
    value in Z[zeta_N], read off the powers of zeta_N through
    pairing_exponent. On Z3 * Z5 * Z7 the 48 characters form one orbit:
    48 rows instead of 2304, with the same kernel.
    """
    colors = tuple(colors)
    g = product_group(colors)
    n = g.exponent
    phi = euler_phi(n)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    points = g.elements()
    powers = [root_power(n, e).coords for e in range(n)]
    seen = set()
    rows = []
    for chi in positive_dual_block(colors):
        if chi in seen:
            continue
        seen.update(tuple(u * a % m for a, m in zip(chi, g.orders)) for u in units)
        cols = [powers[g.pairing_exponent(chi, x)] for x in points]
        for t in range(phi):
            rows.append([col[t] for col in cols])
    if not rows:
        return IntMatrix.zero(0, len(points))
    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def _fourier_kernel(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    return kernel_basis(fourier_vanishing_matrix(colors))


def fourier_lattice(colors, top_cells) -> HermiteForm:
    """Restriction lattice of functions with transform vanishing as above.

    The saturated kernel of the vanishing conditions is projected onto the
    coordinates of the chosen top cells, then brought to canonical form.
    """
    colors = tuple(colors)
    return _fourier_form(colors, normalize_top_cells(colors, top_cells))


def _fourier_form(colors, cells) -> HermiteForm:
    kernel = _fourier_kernel(colors)
    index = {g: r for r, g in enumerate(nested_elements(colors))}
    projected = kernel.select_rows([index[a] for a in cells])
    return hermite_normal_form(projected)


def coboundary_matches_fourier(colors, top_cells) -> bool:
    """Whether the two lattice descriptions agree for this set of top cells.

    The restricted coboundary image and the restricted transform-vanishing
    lattice are computed along independent routes and compared through
    their canonical forms. The cells are validated and sorted once, for
    both.
    """
    colors = tuple(colors)
    cells = normalize_top_cells(colors, top_cells)
    return _coboundary_form(colors, cells) == _fourier_form(colors, cells)


def is_coboundary(colors, top_cells, values) -> bool:
    """Whether an integer vector on the top cells extends to a coboundary.

    `values` is indexed by the canonically sorted top cells.
    """
    cells = normalize_top_cells(colors, top_cells)
    values = list(values)
    if len(values) != len(cells):
        raise ValueError("value vector length does not match top cell count")
    return _coboundary_form(colors, cells).contains(values)


def complex_json(x: BalancedComplex) -> dict:
    """Homology report for a complex, JSON-ready."""
    return {
        "colors": [g.to_json() for g in x.colors],
        "A": [[list(v) for v in a] for a in x.top_cells],
        "homology": {
            str(i): reduced_homology(x, i).to_json_dict() for i in range(x.top_dim + 1)
        },
        "cohomology": {
            str(i): reduced_cohomology(x, i).to_json_dict() for i in range(x.top_dim + 1)
        },
    }
