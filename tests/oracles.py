"""Reference routes that the closed forms in balacyc replaced.

Each is the generic computation the library used before it switched to a
closed form, to a Hermite form, to a certificate or to a faster
elimination. They are slow but follow the definitions directly, so the
tests compare the library's results against them. No command of the
library runs them, and the library does not import this module.
"""

from __future__ import annotations

import itertools
import weakref
from functools import lru_cache
from math import gcd, prod
from operator import add

from balacyc import complexes, cyclo_family, groups
from balacyc.complexes import BalancedComplex, _boundary_columns, nested_elements, normalize_top_cells
from balacyc.cyclo_family import CycloComplexData, family_colors, root_relation_lattice
from balacyc.cyclotomic import (
    CycInt,
    IntPoly,
    _remainders,
    cofactor,
    cyclotomic,
    divisors,
    euler_phi,
    eval_at_root,
    root_power,
    xn_minus_1,
)
from balacyc.groups import FiniteAbelianGroup, GroupFunction, positive_dual_block, product_group
from balacyc.intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    sparse_invariant_factors,
)


def smith_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Saturated kernel of m: the trailing columns of the Smith column transform v."""
    snf = smith_normal_form(m)
    return IntMatrix.from_columns([snf.v.column(j) for j in range(snf.rank, m.cols)], rows=m.cols)


def smith_solve(m: IntMatrix, b) -> tuple[int, ...] | None:
    """An integer x with m @ x = b, or None, through u @ m @ v = d.

    With c = u @ b, the system d @ y = c is diagonal: y[i] = c[i] / d[i]
    must be exact for i < rank and c must vanish below; then x = v @ y.
    """
    snf = smith_normal_form(m)
    c = snf.u.apply(b)
    y = [0] * m.cols
    for i, ci in enumerate(c):
        if i < snf.rank:
            di = snf.d.at(i, i)
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return snf.v.apply(y)


def reference_hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Column-style Hermite normal form, back-reducing inside the echelon pass.

    At each new pivot the earlier, still unfinished columns are reduced
    against it over their full length.

    Column operations only (right-unimodular), so the column lattice is
    preserved; zero columns are dropped from the result. The output is the
    unique canonical basis described on HermiteForm.
    """
    rows, cols = m.rows, m.cols
    # work column-major
    c = [list(m.column(j)) for j in range(cols)]
    piv = 0
    for r in range(rows):
        best = None
        for j in range(piv, cols):
            x = c[j][r]
            if x and (best is None or abs(x) < abs(c[best][r])):
                best = j
                if abs(x) == 1:
                    break
        if best is None:
            continue
        c[piv], c[best] = c[best], c[piv]
        while True:
            for j in range(piv + 1, cols):
                x = c[j][r]
                if x:
                    q = x // c[piv][r]
                    c[j] = [y - q * z for y, z in zip(c[j], c[piv])]
            nxt = None
            for j in range(piv + 1, cols):
                x = c[j][r]
                if x and (nxt is None or abs(x) < abs(c[nxt][r])):
                    nxt = j
            if nxt is None:
                break
            c[piv], c[nxt] = c[nxt], c[piv]
        if c[piv][r] < 0:
            c[piv] = [-y for y in c[piv]]
        p = c[piv][r]
        for j in range(piv):
            q = c[j][r] // p
            if q:
                c[j] = [y - q * z for y, z in zip(c[j], c[piv])]
        piv += 1
        if piv == cols:
            break
    basis = c[:piv]
    return HermiteForm(IntMatrix(rows, piv, tuple(basis[j][i] for i in range(rows) for j in range(piv))))


@lru_cache(maxsize=None)
def cofactor_cyclotomic(n: int) -> IntPoly:
    """Phi_n as z**n - 1 divided by the product of Phi_d over the proper divisors d."""
    if n == 1:
        return IntPoly((-1, 1))
    cofactor = IntPoly((1,))
    for d in divisors(n)[:-1]:
        cofactor = cofactor * cofactor_cyclotomic(d)
    quot, rem = divmod(xn_minus_1(n), cofactor)
    assert rem.is_zero()
    return quot


def evaluation_kernel(n: int) -> IntMatrix:
    """Saturated kernel of Z[Z_n] -> Z[zeta_n] from the Smith column transform.

    Column l of the evaluated matrix holds the power-basis coordinates of
    zeta_n**l.
    """
    cols = [root_power(n, e).coords for e in range(n)]
    return smith_kernel_basis(IntMatrix.from_columns(cols, rows=euler_phi(n)))


def band_root_relation_kernel(n: int) -> HermiteForm:
    """Hermite form of the band z**j * Phi_n(z), 0 <= j < n - phi(n).

    Rows in descending residue order n-1, ..., 0. The band spans the
    multiples of Phi_n of degree < n, which is the kernel of evaluation at
    zeta_n because Phi_n is monic; the general elimination brings it to
    canonical form.
    """
    coeffs = list(cyclotomic(n).coeffs[::-1])
    width = n - euler_phi(n)
    band = [[0] * (width - 1 - j) + coeffs + [0] * j for j in range(width)]
    return hermite_normal_form(IntMatrix.from_columns(band, rows=n))


def hermite_pullback_matches(primes, subset) -> bool:
    """The pulled-back coboundary lattice equals the evaluation kernel's
    restriction to the top indices, compared by canonical forms.

    Both sides are brought to Hermite form, rows in descending residue
    order: the coboundary restriction by a dense elimination, the kernel's
    rows by root_relation_lattice.
    """
    data = CycloComplexData.build(primes, subset)
    return cyclo_family._coboundary_form(data) == root_relation_lattice(primes, subset)


def direct_pullback_factors(primes, subset) -> tuple[int, ...]:
    """Invariant factors of the pulled-back coboundary rows at the top indices,
    every row eliminated afresh.

    The rows are those of pullback_rows, so a test that patches
    _coboundary_columns, or _crt_index, is seen here too.
    """
    data = CycloComplexData.build(primes, subset)
    rows = pullback_rows(data.primes)
    return sparse_invariant_factors([rows[x] for x in data.pullback_indices])


def pullback_rows(primes) -> list[dict[int, int]]:
    """The join's top coboundary on the residues of Z_n, as sparse rows.

    cyclo_family._coboundary_columns over the CRT indices, both looked up
    when called, and transposed here: rows[x] maps each column through
    residue x to its entry.
    """
    primes = tuple(primes)
    columns = cyclo_family._coboundary_columns(family_colors(primes), cyclo_family._crt_index(primes, prod(primes)))
    rows: list[dict[int, int]] = [{} for _ in range(prod(primes))]
    for c, column in enumerate(columns):
        for x, e in column.items():
            rows[x][c] = e
    return rows


def kernel_rank_and_index(data: CycloComplexData) -> tuple[int, int]:
    """Rank and product of the nonzero invariant factors of the kernel's
    restriction to the top indices (root_relation_lattice).

    The restriction is spanned by the columns of the kernel's form [I; -R]
    on those indices. The column of each residue d > phi(n), always a top
    index, keeps its unit at d, and so does the column of phi(n) when
    phi(n) is in the subset: then every factor is 1. Otherwise the column
    of phi(n) is minus z**phi(n) mod Phi_n on the subset and zero on every
    other top index, so it adds one factor, the gcd of that remainder over
    the subset, when that gcd is nonzero.
    """
    units = data.n - 1 - data.totient
    if data.totient in data.subset:
        return units + 1, 1
    top = root_power(data.n, data.totient).coords
    d = gcd(*(top[a] for a in data.subset))
    return (units + 1, d) if d else (units, 1)


def root_power_generators(data: CycloComplexData) -> list[tuple[int, list[int]]]:
    """(t, vector) for each upper residue t, the vector built from the power
    basis: 1 at t and minus the coordinates of root_power(n, t) at the
    subset indices below phi(n), in the rows of data.pullback_indices.
    quotient_presentation reads the same vectors off the kernel's form."""
    position = {x: r for r, x in enumerate(data.pullback_indices)}
    generators = []
    for t in data.upper:
        coords = root_power(data.n, t).coords
        vec = [0] * len(position)
        for j in data.subset:
            if j < len(coords):
                vec[position[j]] = -coords[j]
        vec[position[t]] += 1
        generators.append((t, vec))
    return generators


def index_pullback_matches(primes, subset) -> bool:
    """The pullback verdict by containment plus index, per subset.

    A contained lattice of the same rank shares the saturation of the
    restricted kernel, and is equal to it exactly when the products of
    their nonzero invariant factors agree: every column of the
    pulled-back coboundary must evaluate to 0 (partial_sum_containment),
    and the factors of its rows at the top indices
    (direct_pullback_factors) must have the kernel side's rank and
    product (kernel_rank_and_index).
    """
    factors = direct_pullback_factors(primes, subset)
    data = CycloComplexData.build(primes, subset)
    return partial_sum_containment(primes) and (len(factors), prod(factors)) == kernel_rank_and_index(data)


def partial_sum_containment(primes) -> bool:
    """Whether every column of the pulled-back coboundary rows evaluates to 0
    in Z[zeta_n], one partial sum of phi(n) coordinates kept per column.

    Each residue x adds the power-basis coordinates of z**x mod Phi_n
    (cyclotomic._remainders), times its entry, to the sum of every column
    it meets; no column is taken for a shift of another. The rows are
    those of pullback_rows, so a test that patches _coboundary_columns is
    seen here too.
    """
    rows = pullback_rows(primes)
    n = len(rows)
    zero = [0] * euler_phi(n)
    sums: dict[int, list[int]] = {}
    for row, r in zip(rows, _remainders(n)):
        for c, e in row.items():
            sums[c] = [s + e * y for s, y in zip(sums.get(c, zero), r)]
    return not any(any(s) for s in sums.values())


def coboundary_lattice(colors, top_cells) -> HermiteForm:
    """Canonical form of the top coboundary's image, restricted to the
    chosen top cells (sorted canonically): the Hermite form of the rows of
    those cells (complexes.coboundary_restriction)."""
    colors = tuple(colors)
    return hermite_normal_form(complexes.coboundary_restriction(colors, normalize_top_cells(colors, top_cells)))


@lru_cache(maxsize=8)
def _fourier_kernel(colors: tuple[FiniteAbelianGroup, ...]) -> IntMatrix:
    """Saturated kernel of complexes.fourier_vanishing_matrix, per color tuple."""
    return kernel_basis(complexes.fourier_vanishing_matrix(colors))


def fourier_lattice(colors, top_cells) -> HermiteForm:
    """Canonical form of the functions whose transform vanishes at every
    character nontrivial in every slot, restricted to the chosen top cells:
    the saturated kernel of the vanishing conditions (_fourier_kernel),
    projected onto the coordinates of those cells."""
    colors = tuple(colors)
    index = {g: r for r, g in enumerate(nested_elements(colors))}
    rows = [index[a] for a in normalize_top_cells(colors, top_cells)]
    return hermite_normal_form(_fourier_kernel(colors).select_rows(rows))


def hermite_fourier_matches(colors, top_cells) -> bool:
    """The restricted coboundary lattice equals the restricted
    transform-vanishing lattice for this set of top cells, compared by
    canonical forms: the per-set Hermite comparison, a dense coboundary
    restriction against the projected kernel of the vanishing matrix."""
    return coboundary_lattice(colors, top_cells) == fourier_lattice(colors, top_cells)


def dense_fourier_containment(colors) -> bool:
    """Check (a) of complexes._fourier_certificate by the dense route it
    replaced: fourier_vanishing_matrix applied to every column of the top
    coboundary, one sum of matrix columns kept per coboundary column, no
    column taken for a translate of another and no exponent row trusted to
    be a character.

    fourier_vanishing_matrix and _coboundary_columns are looked up in the
    complexes namespace when called, so a test that patches them, or
    _exponent_row, is seen here too.
    """
    colors = tuple(colors)
    columns = complexes._coboundary_columns(colors, range(prod(g.order for g in colors)))
    vanishing = complexes.fourier_vanishing_matrix(colors)
    by_point = [vanishing.column(x) for x in range(vanishing.cols)]
    for column in columns:
        total = [0] * vanishing.rows
        for x, e in column.items():
            total = [t + e * v for t, v in zip(total, by_point[x])]
        if any(total):
            return False
    return True


def full_block_vanishing_matrix(colors) -> IntMatrix:
    """phi(N) coordinate rows for every character nontrivial in every slot."""
    colors = tuple(colors)
    g = product_group(colors)
    phi = euler_phi(g.exponent)
    points = g.elements()
    rows = []
    for chi in positive_dual_block(colors):
        cols = [char_value(g, chi, x).coords for x in points]
        for t in range(phi):
            rows.append([col[t] for col in cols])
    if not rows:
        return IntMatrix.zero(0, len(points))
    return IntMatrix.from_rows(rows)


def conductor_injective_off_zero(g: FiniteAbelianGroup, n: int) -> bool:
    """Check (c) of complexes._fourier_certificate for one color, with chi(x)
    written in the power basis of Z[zeta_n], n any multiple of the exponent
    of g: one character per orbit chi -> u * chi, u a unit mod n, and
    full column rank of their coordinate rows on the nonzero elements."""
    step = n // g.exponent
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    seen = set()
    rows = []
    for chi in g.characters()[1:]:
        if chi in seen:
            continue
        seen.update(tuple(u * a % m for a, m in zip(chi, g.orders)) for u in units)
        values = [root_power(n, step * pairing_exponent(g, chi, x)).coords for x in g.elements()[1:]]
        rows.extend({j: v[t] for j, v in enumerate(values) if v[t]} for t in range(euler_phi(n)))
    return len(sparse_invariant_factors(rows)) == g.order - 1


@lru_cache(maxsize=8)
def top_coboundary_domain(colors: tuple[FiniteAbelianGroup, ...]) -> tuple[tuple[int, tuple], ...]:
    """Column labels (i, t) of the top coboundary matrix.

    Slot i ranges over colors; t over the product of the other colors'
    elements in lex order. These label the (k-1)-cochain components; the
    library computes a column's index from a point's mixed-radix index
    (complexes._radix) and never builds the labels.
    """
    k = len(colors) - 1
    labels = []
    for i in range(k + 1):
        others = [colors[j].elements() for j in range(k + 1) if j != i]
        for t in itertools.product(*others):
            labels.append((i, t))
    return tuple(labels)


def rotating_vanishes_at_root(terms, n: int) -> bool:
    """cyclotomic.vanishes_at_root by the list loop it replaced: each term
    adds v times the coefficients of C_n = cofactor(n), rotated by e, into
    n cyclic sums kept as a list of Python ints, with no packing and no
    width to choose."""
    c = list(cofactor(n).coeffs)
    c += [0] * (n - len(c))
    acc = [0] * n
    for e, v in terms:
        if v:
            s = e % n
            # z**s * C_n mod z**n - 1: coefficient i is that of z**(i - s mod n)
            acc = [a + v * x for a, x in zip(acc, c[n - s :] + c[: n - s])]
    return not any(acc)


def labelled_coboundary_columns(colors, points) -> tuple[dict[int, int], ...]:
    """complexes._coboundary_columns by the label map it replaced: the
    column of point g along slot i is looked up by its label
    (i, g without slot i) in top_coboundary_domain."""
    column = {label: c for c, label in enumerate(top_coboundary_domain(colors))}
    columns = tuple({} for _ in column)
    for i in range(len(colors)):
        sign = -1 if i % 2 else 1
        for r, g in enumerate(points):
            columns[column[i, g[:i] + g[i + 1 :]]][r] = sign
    return columns


def labelled_peel_order(colors, points) -> tuple[list[int], list[tuple[int, int]]]:
    """complexes._peel_order by the label map it replaced: each point's
    level read coordinate by coordinate, its step's column looked up by
    label, and the steps sorted by decreasing level (stably, so rows
    increase within a level)."""
    zeros = tuple(g.elements()[0] for g in colors)
    column = {label: c for c, label in enumerate(top_coboundary_domain(colors))}
    level = []
    for g in points:
        i = len(g) - 1
        while i >= 0 and g[i] != zeros[i]:
            i -= 1
        level.append(i)
    steps = [(x, column[(i, g[:i] + g[i + 1 :])]) for x, (g, i) in enumerate(zip(points, level)) if i >= 0]
    steps.sort(key=lambda step: -level[step[0]])
    return level, steps


def walked_verified_counts(node) -> tuple[int, int]:
    """(verified, total) over every dict that carries "ok", anywhere in a
    report dict or list, found by walking every node."""
    verified = total = 0
    if isinstance(node, dict):
        if "ok" in node:
            verified, total = int(bool(node["ok"])), 1
        node = node.values()
    for child in node:
        if isinstance(child, (dict, list)):
            v, t = walked_verified_counts(child)
            verified += v
            total += t
    return verified, total


def rowsum_eval_at_root(values, n: int) -> CycInt:
    """Sum of values[l] * zeta_n**l, one power-table row added per nonzero
    value: the row sums that eval_at_root's column sums replaced. The rows
    are streamed from _remainders, not read from _power_columns."""
    coeffs = values.coeffs if isinstance(values, IntPoly) else values
    table = list(itertools.islice(_remainders(n), n))
    acc = [0] * euler_phi(n)
    for exp, c in enumerate(coeffs):
        if c:
            acc = [x + c * t for x, t in zip(acc, table[exp % n])]
    return CycInt(n, tuple(acc))


def pairing_exponent(g: FiniteAbelianGroup, chi, x) -> int:
    """The e in 0..N-1 with chi(x) = zeta_N**e, N the exponent of g: the sum
    over the factors of chi_i * x_i * N / m_i, mod N, one element at a time
    (the oracle of groups._exponent_row)."""
    n = g.exponent
    return sum(a * xi * (n // m) for a, xi, m in zip(chi, x, g.orders)) % n


def char_value(g: FiniteAbelianGroup, chi, x) -> CycInt:
    """chi(x) as an exact element of Z[zeta_N], N the exponent of g."""
    return root_power(g.exponent, pairing_exponent(g, chi, x))


def fourier_support(f: GroupFunction) -> set[tuple[int, ...]]:
    """Characters at which the exact transform (groups.fourier_transform) is nonzero."""
    return {chi for chi, val in groups.fourier_transform(f).items() if not val.is_zero()}


def inversion_check(f: GroupFunction) -> bool:
    """Exact Fourier inversion: |G| * f(x) = sum_chi fhat(chi) * chi(-x).

    fhat is groups.fourier_transform, looked up when called. The pairing is
    symmetric, so the exponents of chi(-x) over all chi are the exponent row
    of -x read as a character. Coordinate t of fhat(chi) is the coefficient
    of zeta_N**t, so the coordinates of fhat(chi) are added into buckets
    s, ..., s + phi(N) - 1, s that exponent; the N + phi(N) - 1 buckets are
    folded mod N and reduced by one eval_at_root call per point x.
    """
    g = f.group
    n = g.exponent
    hat = groups.fourier_transform(f)
    coords = [hat[chi].coords for chi in g.characters()]
    width = len(coords[0])
    for x in g.elements():
        buckets = [0] * (n + width - 1)
        for s, c in zip(groups._exponent_row(g, g.neg(x)), coords):
            buckets[s : s + width] = map(add, buckets[s : s + width], c)
        if eval_at_root(buckets, n) != CycInt.from_int(n, g.order * f(x)):
            return False
    return True


def termwise_fourier_transform(f) -> dict:
    """Each character sum built one CycInt product and sum per term."""
    g = f.group
    n = g.exponent
    out = {}
    for chi in g.characters():
        acc = CycInt.zero(n)
        for x, v in f.values.items():
            acc = acc + v * char_value(g, chi, x)
        out[chi] = acc
    return out


def termwise_inversion_check(f) -> bool:
    """|G| * f(x) = sum_chi fhat(chi) * chi(-x), one CycInt product per term."""
    g = f.group
    n = g.exponent
    hat = termwise_fourier_transform(f)
    for x in g.elements():
        neg = g.neg(x)
        rhs = CycInt.zero(n)
        for chi, val in hat.items():
            rhs = rhs + val * char_value(g, chi, neg)
        if rhs != CycInt.from_int(n, g.order * f(x)):
            return False
    return True


def _with_rows(n_rows: int, columns):
    """(rows, columns) of the sparse matrix with the given {row: entry} columns."""
    rows = tuple({} for _ in range(n_rows))
    for c, column in enumerate(columns):
        for r, entry in column.items():
            rows[r][c] = entry
    return rows, tuple(columns)


def free_points(x: BalancedComplex) -> list:
    """The points of the join outside the top cells of x, in nested_elements order."""
    tops = set(x.top_cells)
    return [g for g in nested_elements(x.colors) if g not in tops]


def free_indices(x: BalancedComplex) -> list[int]:
    """The positions of free_points(x) in nested_elements order, looked up
    point by point: the rows complexes._assemble_cycles takes."""
    tops = set(x.top_cells)
    return [f for f, g in enumerate(nested_elements(x.colors)) if g not in tops]


def column_cycle_matrix(x: BalancedComplex):
    """The rows of complexes._assemble_cycles and the columns complexes._transpose
    reads off them, assembled column by column, from the definition.

    Column h, every h_i nonzero, looks up each of the 2**(k+1) points g with
    g_i in {0, h_i} among the free points and gives it the sign
    (-1)**#{i : g_i = 0}; the rows come from transposing the columns.
    """
    zeros = tuple(g.elements()[0] for g in x.colors)
    index = {g: r for r, g in enumerate(free_points(x))}
    columns = []
    for h in itertools.product(*(g.elements()[1:] for g in x.colors)):
        column = {}
        for g in itertools.product(*zip(zeros, h)):
            r = index.get(g)
            if r is not None:
                column[r] = -1 if sum(a == b for a, b in zip(g, zeros)) % 2 else 1
        columns.append(column)
    return _with_rows(len(index), columns)


# (dimension, over_columns) -> invariant factors, per complex; an entry
# goes when its complex is released
_BOUNDARY_FACTORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _boundary_factors(x: BalancedComplex, i: int, over_columns: bool) -> tuple[int, ...]:
    """Invariant factors of the boundary map from i-chains.

    Eliminated over its rows, or over its columns (the coboundary) when
    over_columns is set. One above the top dimension the map is zero.
    Kept in _BOUNDARY_FACTORS, off the complex; the boundary map is not kept.
    """
    if i == x.top_dim + 1:
        return ()
    factors = _BOUNDARY_FACTORS.setdefault(x, {})
    if (i, over_columns) not in factors:
        rows, columns = _with_rows(*_boundary_columns(x, i))
        factors[i, over_columns] = sparse_invariant_factors(columns if over_columns else rows)
    return factors[i, over_columns]


def reduced_homology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral homology in dimension i, from invariant factors.

    Each boundary is reduced by sparse unit-pivot elimination over its
    rows, with a dense Smith form of the leftover core.
    """
    down = _boundary_factors(x, i, False)
    up = _boundary_factors(x, i + 1, False)
    free = x.f_vector()[i] - len(down) - len(up)
    return AbelianGroupStructure.from_parts(free, tuple(d for d in up if d > 1))


def reduced_cohomology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral cohomology in dimension i, from the coboundaries.

    Computed directly from the coboundary complex rather than by dualizing
    homology: each boundary is eliminated over its columns, a separate run
    with its own pivot order, so universal-coefficient consistency with
    reduced_homology cross-checks two eliminations.
    """
    into = _boundary_factors(x, i, True)
    out_of = _boundary_factors(x, i + 1, True)
    free = x.f_vector()[i] - len(into) - len(out_of)
    return AbelianGroupStructure.from_parts(free, tuple(d for d in into if d > 1))


def boundary_homology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    """Reduced homology in every dimension 0..k from the boundary maps of x."""
    return {i: reduced_homology(x, i) for i in range(x.top_dim + 1)}


def boundary_cohomology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    """Reduced cohomology in every dimension 0..k from the coboundary maps of x."""
    return {i: reduced_cohomology(x, i) for i in range(x.top_dim + 1)}
