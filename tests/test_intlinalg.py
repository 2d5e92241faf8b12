"""Smith/Hermite forms, kernels, lattices, solving.

Oracles: invariant factors from gcds of k x k minors (classical and fully
independent of any elimination order), determinants by recursive cofactor
expansion, and brute-force lattice membership on small boxes.
"""

import itertools
import random
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_hermite_normal_form, smith_kernel_basis, smith_solve

from balacyc import intlinalg
from balacyc.cyclo_family import verify_homology_tables
from balacyc.intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    cokernel_structure,
    determinant,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
    sparse_invariant_factors,
)


# --- oracles ---------------------------------------------------------------


def oracle_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * oracle_det(minor)
    return total


def oracle_invariant_factors(m: IntMatrix):
    """d_k = gcd of all k x k minors; factor k is d_k / d_(k-1)."""
    rows = m.to_rows()
    prev = 1
    factors = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, oracle_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def brute_membership(m: IntMatrix, target, bound=4):
    """Search integer coefficient boxes for a preimage of target."""
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=m.cols):
        if list(m.apply(coeffs)) == list(target):
            return True
    return False


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.integers(-9, 9), min_size=r * c, max_size=r * c
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)


def random_unimodular(n, rng, steps=8):
    m = IntMatrix.identity(n).to_rows()
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return IntMatrix.from_rows(m)


# --- IntMatrix basics -------------------------------------------------------


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_transpose_product():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    b = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert (a @ b) == IntMatrix.from_rows([[4, 5], [10, 11]])


def test_matrix_json_round_trip():
    a = IntMatrix.from_rows([[10**25, -2], [0, 3]])
    data = a.to_json_dict()
    assert data["entries"][0] == str(10**25)
    assert IntMatrix.from_json_dict(data) == a


# --- determinant -------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n).map(lambda e: IntMatrix(n, n, tuple(e)))))
def test_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == oracle_det(m.to_rows())


# --- Smith normal form -------------------------------------------------------


def test_snf_frozen_examples():
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.invariant_factors == (1, 6)
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.invariant_factors == (2, 4)
    s = smith_normal_form(IntMatrix.zero(3, 2))
    assert s.rank == 0 and s.invariant_factors == ()


@settings(max_examples=80)
@given(small_matrices)
def test_snf_transform_identity_and_oracle(m):
    s = smith_normal_form(m)
    assert (s.u @ m @ s.v) == s.d
    assert abs(determinant(s.u)) == 1
    assert abs(determinant(s.v)) == 1
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d.at(i, j) == 0
    factors = s.invariant_factors
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert factors == oracle_invariant_factors(m)


@settings(max_examples=30)
@given(small_matrices, st.integers(0, 2**32))
def test_snf_invariant_under_unimodular_action(m, seed):
    rng = random.Random(seed)
    left = random_unimodular(m.rows, rng)
    right = random_unimodular(m.cols, rng)
    assert smith_normal_form(left @ m @ right).invariant_factors == smith_normal_form(m).invariant_factors


# --- sparse invariant factors ----------------------------------------------------


def sparse_rows(m: IntMatrix):
    return [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]


# sparse, with units and non-units mixed, and shapes down to 0 x 0
sparse_test_matrices = st.integers(0, 7).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: st.lists(
            st.sampled_from((0, 0, 0, 1, -1, 2, -3, 4, 6)), min_size=r * c, max_size=r * c
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)


@settings(max_examples=150)
@given(sparse_test_matrices, st.sampled_from((2, 3, 6)))
def test_sparse_invariant_factors_match_dense_smith(m, scale):
    # scaled by a non-unit, the whole matrix is the core left for the dense SNF
    scaled = IntMatrix(m.rows, m.cols, tuple(scale * x for x in m.entries))
    for a in (m, m.transpose(), scaled):
        rows = sparse_rows(a)
        snapshot = [dict(row) for row in rows]
        assert sparse_invariant_factors(rows) == smith_normal_form(a).invariant_factors
        assert rows == snapshot


def test_sparse_invariant_factors_keep_no_smith_transforms(monkeypatch):
    # the leftover cores go through the elimination loop without u and v,
    # not through smith_normal_form
    def refuse(m):
        raise AssertionError(f"smith_normal_form called on a {m.rows}x{m.cols} core")

    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    assert sparse_invariant_factors([{0: 2, 1: 4}, {0: 6, 1: 8}]) == (2, 4)
    report = verify_homology_tables((2, 3, 5, 7), (7,))
    assert report.match and report.euler_poincare and report.uct


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5)])
def test_sparse_invariant_factors_of_empty_and_zero_matrices(shape):
    m = IntMatrix.zero(*shape)
    assert sparse_invariant_factors(sparse_rows(m)) == smith_normal_form(m).invariant_factors == ()
    assert sparse_invariant_factors([{0: 0, 2: 0}] * shape[0]) == ()


@settings(max_examples=150)
@given(sparse_test_matrices, st.data())
def test_repeated_rows_leave_the_invariant_factors_unchanged(m, data):
    # a copy of a row spans nothing new: the factors, and so the rank, are
    # those of the rows without it, whatever the order the rows come in
    rows = sparse_rows(m)
    copies = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    grown = data.draw(st.permutations(rows + copies))
    factors = sparse_invariant_factors(rows)
    assert sparse_invariant_factors(grown) == factors
    assert len(factors) == smith_normal_form(m).rank


@st.composite
def planted_sparse_matrices(draw):
    """Sparse matrices up to 13 x 13 with the shapes the unit phase special-cases.

    A random block plus up to three gadgets: singleton rows and columns
    with a unit or a non-unit entry; chains of rows (or columns) that
    become singletons only once the previous one is dropped; a short row
    without a unit that gains one from the update of a longer row, after
    it has left the heap; empty rows and columns. Rows come in a drawn
    order, as tie-breaks in the heap depend on it.
    """
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 4, 6))
    unit = st.sampled_from((1, -1))
    lone = st.sampled_from((1, -1, 2, -3))
    base = draw(st.integers(0, 4))
    width = draw(st.integers(0, 4))
    rows = [{c: x for c in range(width) if (x := draw(entry))} for _ in range(base)]

    def fresh_column():
        nonlocal width
        width += 1
        return width - 1

    def some_column():
        return draw(st.integers(0, width - 1)) if width else fresh_column()

    def touch_base(c):
        # an entry in a base row keeps column c from being a singleton
        if base:
            rows[draw(st.integers(0, base - 1))][c] = draw(lone)

    gadgets = ("singleton row", "singleton column", "row chain", "column chain", "late unit", "empty row", "empty column")
    for gadget in draw(st.lists(st.sampled_from(gadgets), max_size=3)):
        if gadget == "singleton row":
            rows.append({some_column(): draw(lone)})
        elif gadget == "singleton column":
            if not rows:
                rows.append({})
            rows[draw(st.integers(0, len(rows) - 1))][fresh_column()] = draw(lone)
        elif gadget == "row chain":
            chain = [fresh_column() for _ in range(draw(st.integers(2, 3)))]
            for c, d in zip(chain, chain[1:]):
                rows.append({c: draw(unit), d: draw(lone)})
                touch_base(c)
            rows.append({chain[-1]: draw(unit)})
        elif gadget == "column chain":
            chain = [len(rows) + k for k in range(draw(st.integers(2, 3)))]
            rows.extend({some_column(): draw(lone)} for _ in chain[:-1])
            rows.append({})
            for r, s in zip(chain, chain[1:]):
                c = fresh_column()
                rows[r][c] = draw(unit)
                rows[s][c] = draw(lone)
            rows[chain[-1]][fresh_column()] = draw(unit)
        elif gadget == "late unit":
            # the shorter row {a: 2, b: 3} leaves the heap first; pivoting on
            # a or b in the longer row turns its other entry into a unit
            x, a, b = some_column(), fresh_column(), fresh_column()
            rows.append({a: 2, b: 3})
            rows.append({a: draw(unit), b: draw(unit), x: draw(st.sampled_from((2, 5, -3)))})
        elif gadget == "empty row":
            rows.append({})
        else:
            fresh_column()
    rows = draw(st.permutations(rows))
    return IntMatrix(len(rows), width, tuple(row.get(c, 0) for row in rows for c in range(width)))


@settings(max_examples=200)
@given(planted_sparse_matrices())
def test_unit_phase_on_planted_structure_matches_dense_smith(m):
    # every unit entry stays reachable, so the core left for the dense loop
    # holds none; P and its transpose drop singletons on opposite sides
    cores = []
    reduce = intlinalg._smith_reduce

    def spy(a, *rest):
        cores.append([x for row in a for x in row])
        return reduce(a, *rest)

    for a in (m, m.transpose()):
        rows = sparse_rows(a)
        snapshot = [dict(row) for row in rows]
        with mock.patch.object(intlinalg, "_smith_reduce", spy):
            factors = sparse_invariant_factors(rows)
        assert factors == smith_normal_form(a).invariant_factors
        assert rows == snapshot
    assert not any(x in (1, -1) for core in cores for x in core)


@settings(max_examples=200)
@given(st.one_of(planted_sparse_matrices(), sparse_test_matrices), st.sampled_from((1, 2, 3)))
def test_handed_transpose_gives_the_factors_of_the_rows_alone(m, scale):
    # the columns handed in are copied, not collected from the rows; empty
    # rows and columns stay empty lines, and scaled by a non-unit the whole
    # matrix is the core left for the dense loop
    m = IntMatrix(m.rows, m.cols, tuple(scale * x for x in m.entries))
    for a in (m, m.transpose()):
        rows, columns = sparse_rows(a), sparse_rows(a.transpose())
        snapshot = [dict(line) for line in rows + columns]
        factors = sparse_invariant_factors(rows, columns)
        assert factors == sparse_invariant_factors(rows) == smith_normal_form(a).invariant_factors
        assert rows + columns == snapshot


# --- Hermite normal form ------------------------------------------------------


def test_hnf_frozen_examples():
    assert hermite_normal_form(IntMatrix.from_rows([[6, 4]])).h == IntMatrix.from_rows([[2]])
    eye = IntMatrix.identity(3)
    assert hermite_normal_form(eye).h == eye
    h = hermite_normal_form(IntMatrix.from_columns([(2, 0), (1, 1), (0, 2)]))
    assert h.h == IntMatrix.from_rows([[1, 0], [1, 2]])
    assert abs(determinant(h.h)) == 2


def test_hnf_even_sum_lattice_membership():
    # columns (2,0),(1,1),(0,2) span {(a,b): a+b even}; check both directions
    gens = IntMatrix.from_columns([(2, 0), (1, 1), (0, 2)])
    h = hermite_normal_form(gens).h
    for a in range(-3, 4):
        for b in range(-3, 4):
            inside = (a + b) % 2 == 0
            assert brute_membership(h, (a, b)) == inside


@settings(max_examples=80)
@given(small_matrices)
def test_hnf_idempotent_and_canonical(m):
    h = hermite_normal_form(m)
    assert hermite_normal_form(h.h) == h
    assert hermite_normal_form(m) == hermite_normal_form(h.h)
    # the same lattice, checked without comparing two Hermite forms:
    # m's columns by forward substitution, h's columns by the Smith route
    assert all(h.contains(m.column(j)) for j in range(m.cols))
    assert all(smith_solve(m, h.h.column(j)) is not None for j in range(h.rank))
    # canonical shape: pivot rows strictly increase, pivots positive,
    # entries left of a pivot within its row reduced into [0, pivot)
    rows = h.h.to_rows()
    prev_pivot_row = -1
    for j in range(h.rank):
        col = [rows[i][j] for i in range(h.h.rows)]
        pivot_row = next(i for i, x in enumerate(col) if x)
        assert pivot_row > prev_pivot_row
        prev_pivot_row = pivot_row
        pivot = col[pivot_row]
        assert pivot > 0
        for jj in range(j):
            assert 0 <= rows[pivot_row][jj] < pivot


@st.composite
def hnf_test_matrices(draw):
    """Up to 12 x 12, empty shapes included, one entry style per matrix.

    Dense small entries, sparse +-1 columns like the coboundary matrices,
    or non-unit entries, whose pivots need several Euclid rounds; then a
    few repeated or zero columns are inserted.
    """
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    entries = draw(
        st.sampled_from(
            (
                st.integers(-9, 9),
                st.sampled_from((0, 0, 0, 0, 0, 1, -1)),
                st.sampled_from((0, 0, 2, -2, 3, -4, 6, 9)),
            )
        )
    )
    columns = [draw(st.lists(entries, min_size=rows, max_size=rows)) for _ in range(cols)]
    for _ in range(draw(st.integers(0, 3))):
        if len(columns) == 12:
            break
        if columns and draw(st.booleans()):
            extra = list(draw(st.sampled_from(columns)))
        else:
            extra = [0] * rows
        columns.insert(draw(st.integers(0, len(columns))), extra)
    return IntMatrix.from_columns(columns, rows=rows)


@settings(max_examples=300, deadline=None)
@given(hnf_test_matrices())
def test_hnf_matches_reference_hnf(m):
    assert hermite_normal_form(m) == reference_hermite_normal_form(m)
    assert hermite_normal_form(m.transpose()) == reference_hermite_normal_form(m.transpose())


@settings(max_examples=30)
@given(small_matrices, st.integers(0, 2**32))
def test_hnf_invariant_under_column_action(m, seed):
    right = random_unimodular(m.cols, random.Random(seed))
    assert hermite_normal_form(m @ right) == hermite_normal_form(m)


def pivot_rows(form):
    """The first nonzero row of each column of a Hermite form, left to right."""
    return [next(i for i, x in enumerate(form.h.column(j)) if x) for j in range(form.rank)]


@st.composite
def hnf_projections(draw):
    """A matrix, its Hermite form and row positions for a projection.

    The positions are a random subset, with or without every pivot row of
    the form added, increasing or in a shuffled order.
    """
    m = draw(hnf_test_matrices())
    form = hermite_normal_form(m)
    rows = draw(st.sets(st.integers(0, m.rows - 1))) if m.rows else set()
    if draw(st.booleans()):
        rows |= set(pivot_rows(form))
    rows = sorted(rows)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return m, form, rows


@settings(max_examples=300, deadline=None)
@given(hnf_projections())
def test_hermite_projection_matches_fresh_forms(case):
    # the Hermite form of a row selection of the form is that of the same
    # selection of the input; when the rows increase and keep every pivot
    # row, the selection is already in Hermite form
    m, form, rows = case
    selected = form.h.select_rows(rows)
    projected = hermite_normal_form(selected)
    assert projected == reference_hermite_normal_form(selected)
    assert projected == hermite_normal_form(m.select_rows(rows))
    if list(rows) == sorted(rows) and set(pivot_rows(form)) <= set(rows):
        assert projected == HermiteForm(selected)


def test_hermite_projection_of_empty_lattice_and_empty_row_set():
    def projected(form, rows):
        return hermite_normal_form(form.h.select_rows(rows))

    empty = hermite_normal_form(IntMatrix.zero(3, 2))
    assert empty.rank == 0
    assert projected(empty, [0, 2]).h == IntMatrix(2, 0, ())
    assert projected(empty, []).h == IntMatrix(0, 0, ())
    full = hermite_normal_form(IntMatrix.identity(3))
    assert projected(full, []).h == IntMatrix(0, 0, ())
    assert projected(full, [0, 1, 2]) == full
    assert projected(full, [2, 0]).h == IntMatrix.identity(2)


# --- kernels -------------------------------------------------------------------


def test_kernel_frozen_examples():
    k = kernel_basis(IntMatrix.from_rows([[1, 1, 1]]))
    assert k.cols == 2
    assert all(hermite_normal_form(k).contains(v) for v in [(1, -1, 0), (0, 1, -1)])
    assert kernel_basis(IntMatrix.identity(3)).cols == 0
    # coordinates of the powers of the sixth root of unity
    roots = IntMatrix.from_rows([[1, 0, -1, -1, 0, 1], [0, 1, 1, 0, -1, -1]])
    assert smith_normal_form(roots).rank == 2
    assert kernel_basis(roots).cols == 4


@settings(max_examples=80)
@given(small_matrices)
def test_kernel_exactness_and_rank(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert smith_normal_form(m).rank + k.cols == m.cols


@settings(max_examples=40)
@given(small_matrices)
def test_kernel_saturation_on_boxes(m):
    # every small integer kernel vector must be an integer combination
    k = kernel_basis(m)
    for vec in itertools.product(range(-2, 3), repeat=m.cols):
        if any(vec) and all(x == 0 for x in m.apply(vec)):
            assert solve_in_lattice(k, vec) is not None


# --- lattice comparison -----------------------------------------------------


@settings(max_examples=30)
@given(small_matrices, st.integers(0, 2**32))
def test_lattice_equal_modulo_unimodular(m, seed):
    right = random_unimodular(m.cols, random.Random(seed))
    assert hermite_normal_form(m) == hermite_normal_form(m @ right)


def test_lattice_equal_frozen():
    assert hermite_normal_form(IntMatrix.identity(2)) != hermite_normal_form(IntMatrix.from_rows([[1, 0], [0, 2]]))
    assert hermite_normal_form(IntMatrix.from_columns([(2, 0), (1, 1)])) == hermite_normal_form(
        IntMatrix.from_columns([(2, 0), (0, 2), (1, 1)])
    )


def test_lattice_contains_is_ordered():
    big = hermite_normal_form(IntMatrix.identity(2))
    small = hermite_normal_form(IntMatrix.from_rows([[1, 0], [0, 2]]))
    assert all(big.contains(small.h.column(j)) for j in range(small.rank))
    assert not all(small.contains(big.h.column(j)) for j in range(big.rank))
    with pytest.raises(ValueError):
        big.contains(IntMatrix.identity(3).column(0))


# --- cokernels and solving ----------------------------------------------------


def test_cokernel_frozen():
    assert cokernel_structure(IntMatrix.from_rows([[7]])) == AbelianGroupStructure(0, (7,))
    assert cokernel_structure(IntMatrix.zero(3, 0)) == AbelianGroupStructure(3)
    assert cokernel_structure(IntMatrix.from_columns([(1, -1, 1)])) == AbelianGroupStructure(2)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n).map(lambda e: IntMatrix(n, n, tuple(e)))))
def test_cokernel_order_is_det_for_nonsingular(m):
    det = determinant(m)
    if det == 0:
        return
    structure = cokernel_structure(m)
    assert structure.free_rank == 0
    assert prod(structure.torsion) == abs(det)


def test_solve_frozen():
    assert solve_in_lattice(IntMatrix.identity(3), [5, -2, 0]) == (5, -2, 0)
    assert solve_in_lattice(IntMatrix.from_rows([[2]]), [3]) is None
    assert solve_in_lattice(IntMatrix.from_columns([(1, 1), (1, -1)]), [2, 0]) == (1, 1)


@settings(max_examples=60)
@given(small_matrices, st.data())
def test_solve_recovers_known_combinations(m, data):
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    y = solve_in_lattice(m, b)
    assert y is not None
    assert m.apply(y) == b


# --- Hermite routes against the Smith transforms ---------------------------------


@settings(max_examples=80)
@given(small_matrices)
def test_kernel_matches_smith_kernel(m):
    assert hermite_normal_form(kernel_basis(m)) == hermite_normal_form(smith_kernel_basis(m))


@settings(max_examples=80)
@given(small_matrices, st.data())
def test_solve_and_membership_match_smith_solve(m, data):
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
    inside = m.apply(x)
    arbitrary = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows)))
    lattice = hermite_normal_form(m)
    assert lattice.contains(inside)
    for b in (inside, arbitrary):
        y, reference = solve_in_lattice(m, b), smith_solve(m, b)
        assert (y is not None) == (reference is not None) == lattice.contains(b)
        if y is not None:
            assert m.apply(y) == b and m.apply(reference) == b


@settings(max_examples=80)
@given(small_matrices)
def test_cokernel_matches_smith_invariant_factors(m):
    snf = smith_normal_form(m)
    expected = AbelianGroupStructure.from_parts(m.rows - snf.rank, snf.invariant_factors)
    assert cokernel_structure(m) == expected


def test_hermite_membership_validates_length():
    with pytest.raises(ValueError):
        hermite_normal_form(IntMatrix.identity(2)).contains([1, 2, 3])


# --- group structure -----------------------------------------------------------


def test_structure_normalization_and_str():
    assert AbelianGroupStructure.from_parts(1, (0, -6, 1)) == AbelianGroupStructure(2, (6,))
    assert str(AbelianGroupStructure(0)) == "0"
    assert str(AbelianGroupStructure(1)) == "Z"
    assert str(AbelianGroupStructure(2, (2, 6))) == "Z^2 x C2 x C6"
    assert AbelianGroupStructure(0).is_trivial()


def test_structure_rejects_bad_chain():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupStructure(-1)
