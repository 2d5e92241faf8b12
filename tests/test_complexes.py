"""Balanced complexes: boundaries, homology, and the lattice comparison."""

import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import boundary_cohomology_profile, boundary_homology_profile, full_block_vanishing_matrix

from balacyc import complexes
from balacyc.complexes import (
    apply_top_coboundary,
    boundary_matrix,
    build_complex,
    coboundary_lattice,
    coboundary_matches_fourier,
    coboundary_top_matrix,
    cochain_vector,
    cohomology_profile,
    complex_json,
    fourier_lattice,
    fourier_vanishing_matrix,
    homology_profile,
    is_coboundary,
    nested_elements,
    reduced_cohomology,
    reduced_homology,
    top_coboundary_domain,
    uct_consistent,
    uct_holds,
)
from balacyc.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    fourier_support,
    positive_dual_block,
    product_group,
)
from balacyc.cyclo_family import build_family_complex, verify_homology_tables
from balacyc.intlinalg import AbelianGroupStructure, hermite_normal_form, kernel_basis, smith_normal_form

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z7 = FiniteAbelianGroup((7,))
Z22 = FiniteAbelianGroup((2, 2))


def full(colors):
    return nested_elements(colors)


# --- construction -----------------------------------------------------------


def test_f_vectors_frozen():
    assert build_complex((Z2, Z3), full((Z2, Z3))).f_vector() == (5, 6)
    assert build_complex((Z2, Z3), ()).f_vector() == (5, 0)
    assert build_complex((Z2, Z3, Z5), ()).f_vector() == (10, 31, 0)
    assert build_family_complex((3, 5, 7, 11, 13), (0,)).f_vector() == (39, 574, 3954, 12673, 9255)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_complex((Z2, FiniteAbelianGroup((1,))), ())
    with pytest.raises(ValueError):
        build_complex((Z2, Z3), [((0,), (0,)), ((0,), (0,))])
    with pytest.raises(ValueError):
        build_complex((Z2, Z3), [((0,), (9,))])
    with pytest.raises(ValueError):
        build_complex((), ())


def test_top_cell_validation_words_each_error():
    # cells outside the product's point set are checked vertex by vertex,
    # so every rejection keeps its message
    cases = [
        ([((0,),)], "top cell must pick one vertex per color"),
        ([((0,), (1,), (0,))], "top cell must pick one vertex per color"),
        ([((0,), (3,))], "vertex (3,) is outside its color group"),
        ([((-1,), (0,))], "vertex (-1,) is outside its color group"),
        ([((0, 0), (0,))], "vertex (0, 0) is outside its color group"),
        ([((0,), (1,)), [[0], [1]]], "duplicate top cells"),
    ]
    for cells, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            complexes.normalize_top_cells((Z2, Z3), cells)
    normalized = complexes.normalize_top_cells((Z2, Z3), [[[1], [2]], ((0,), (1,))])
    assert normalized == (((0,), (1,)), ((1,), (2,)))
    assert complexes._point_set.cache_info().maxsize == 8


def test_lattice_comparison_validates_cells_once(monkeypatch):
    calls = []
    original = complexes.normalize_top_cells

    def counting(colors, cells):
        calls.append(len(cells))
        return original(colors, cells)

    monkeypatch.setattr(complexes, "normalize_top_cells", counting)
    assert coboundary_matches_fourier((Z2, Z3), full((Z2, Z3)))
    assert calls == [6]


def test_cells_are_canonically_ordered():
    x = build_complex((Z2, Z3, Z5), full((Z2, Z3, Z5)))
    for i in range(x.top_dim + 1):
        cells = x.cells(i)
        assert list(cells) == sorted(cells)


def test_single_color_complex():
    # one color: no skeleton below the points, reduced homology counts them
    x = build_complex((Z5,), [((0,),), ((2,),), ((4,),)])
    assert x.f_vector() == (3,)
    assert str(reduced_homology(x, 0)) == "Z^2"
    assert uct_consistent(x)


# --- boundary maps ------------------------------------------------------------


def test_single_edge_boundary_signs():
    x = build_complex((Z2, Z3), [((0,), (0,))])
    d1 = boundary_matrix(x, 1)
    # vertices in canonical order: color 0 first, then color 1
    column = [d1.at(i, 0) for i in range(5)]
    assert column == [-1, 0, 1, 0, 0]  # edge boundary = endpoint1 - endpoint0
    d0 = boundary_matrix(x, 0)
    assert d0.entries == (1,) * 5
    assert (d0 @ d1).is_zero()


def test_boundary_squares_to_zero_everywhere():
    rng = random.Random(1)
    for colors in [(Z2, Z3), (Z2, Z2, Z2), (Z2, Z3, Z5), (Z22, Z3)]:
        points = list(nested_elements(colors))
        tops = rng.sample(points, rng.randint(0, len(points)))
        x = build_complex(colors, tops)
        for i in range(x.top_dim):
            di = boundary_matrix(x, i)
            dnext = boundary_matrix(x, i + 1)
            assert (di @ dnext).is_zero()


def test_rank_of_edge_boundary_full_bipartite():
    x = build_complex((Z2, Z3), full((Z2, Z3)))
    assert smith_normal_form(boundary_matrix(x, 1)).rank == 4


# --- top coboundary ------------------------------------------------------------


def test_coboundary_matrix_formula_two_slots():
    colors = (Z2, Z2)
    labels = top_coboundary_domain(colors)
    assert len(labels) == 4
    rng = random.Random(3)
    psi0 = {(g,): rng.randint(-5, 5) for g in Z2.elements()}
    psi1 = {(g,): rng.randint(-5, 5) for g in Z2.elements()}
    image = apply_top_coboundary(colors, cochain_vector(colors, [psi0, psi1]))
    for row, (g0, g1) in enumerate(nested_elements(colors)):
        expected = psi0[(g1,)] - psi1[(g0,)]
        assert image[row] == expected


def test_coboundary_matrix_ranks():
    assert smith_normal_form(coboundary_top_matrix((Z2, Z2))).rank == 3
    assert smith_normal_form(coboundary_top_matrix((Z2, Z3))).rank == 4


def test_coboundary_is_transposed_top_boundary_blockwise():
    for colors in [(Z2, Z3), (Z2, Z2, Z2), (Z22, Z3)]:
        k = len(colors) - 1
        x = build_complex(colors, full(colors))
        dual = boundary_matrix(x, k).transpose()
        cob = coboundary_top_matrix(colors)
        labels = top_coboundary_domain(colors)
        faces = x.cells(k - 1)
        face_index = {cell: j for j, cell in enumerate(faces)}
        assert dual.rows == cob.rows
        for col, (i, t) in enumerate(labels):
            support = tuple(j for j in range(k + 1) if j != i)
            j = face_index[(support, t)]
            assert cob.column(col) == dual.column(j)


def test_random_coboundaries_avoid_positive_block():
    rng = random.Random(9)
    for colors in [(Z2, Z3), (Z2, Z2, Z2), (Z4, Z3)]:
        width = len(top_coboundary_domain(colors))
        block = set(positive_dual_block(colors))
        for _ in range(10):
            psi = [rng.randint(-4, 4) for _ in range(width)]
            image = apply_top_coboundary(colors, psi)
            f = GroupFunction.from_vector(product_group(colors), image)
            assert fourier_support(f).isdisjoint(block)


# --- homology -------------------------------------------------------------------


def test_wedge_homology_frozen():
    x = build_complex((Z2, Z3), full((Z2, Z3)))
    assert str(reduced_homology(x, 1)) == "Z^2"
    assert reduced_homology(x, 0).is_trivial()
    x = build_complex((Z2, Z3, Z5), full((Z2, Z3, Z5)))
    assert str(reduced_homology(x, 2)) == "Z^8"
    assert reduced_homology(x, 1).is_trivial()
    assert reduced_homology(x, 0).is_trivial()
    x = build_complex((Z2, Z3), ())
    assert str(reduced_homology(x, 0)) == "Z^4"


def test_wedge_homology_at_desk_scale_bound():
    # largest configured group order: 6 * 5 * 7 = 210 points in the top layer
    z6, z7 = FiniteAbelianGroup((6,)), FiniteAbelianGroup((7,))
    colors = (z6, Z5, z7)
    x = build_complex(colors, full(colors))
    assert x.f_vector() == (18, 107, 210)
    assert str(reduced_homology(x, 2)) == "Z^120"
    assert reduced_homology(x, 1).is_trivial()
    assert reduced_homology(x, 0).is_trivial()


def test_skeleton_forces_low_connectivity():
    rng = random.Random(11)
    for colors in [(Z2, Z2, Z2), (Z2, Z3, Z5)]:
        points = list(nested_elements(colors))
        for _ in range(5):
            tops = rng.sample(points, rng.randint(0, len(points)))
            x = build_complex(colors, tops)
            k = x.top_dim
            for i in range(k - 1):
                assert reduced_homology(x, i).is_trivial()


def test_uct_consistency_on_samples():
    rng = random.Random(13)
    for colors in [(Z2, Z3), (Z22, Z3), (Z2, Z3, Z5)]:
        points = list(nested_elements(colors))
        for _ in range(4):
            tops = rng.sample(points, rng.randint(0, len(points)))
            assert uct_consistent(build_complex(colors, tops))


ORACLE_ORDERS = ((2,), (3,), (4,), (5,), (2, 2))


@st.composite
def oracle_complexes(draw):
    colors = tuple(
        FiniteAbelianGroup(draw(st.sampled_from(ORACLE_ORDERS))) for _ in range(draw(st.integers(1, 4)))
    )
    points = full(colors)
    kind = draw(st.sampled_from(("empty", "full", "random")))
    if kind == "empty":
        return build_complex(colors, ())
    if kind == "full":
        return build_complex(colors, points)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return build_complex(colors, rng.sample(points, rng.randint(0, len(points))))


@settings(max_examples=150, deadline=None)
@given(oracle_complexes())
# a single color (k = 0), and T empty or everything, always run
@example(build_complex((Z5,), ()))
@example(build_complex((Z22,), full((Z22,))))
@example(build_complex((Z5,), full((Z5,))[1:]))
@example(build_complex((Z22, Z3, Z2), ()))
@example(build_complex((Z22, Z3, Z2), full((Z22, Z3, Z2))))
def test_cycle_route_matches_boundary_route(x):
    # every dimension of both profiles against the elimination of every
    # boundary map, on a separate copy so no memo is shared
    y = build_complex(x.colors, x.top_cells)
    assert homology_profile(x) == boundary_homology_profile(y)
    assert cohomology_profile(x) == boundary_cohomology_profile(y)


def test_homology_rejects_dimensions_out_of_range():
    x = build_complex((Z2, Z3), full((Z2, Z3)))
    for i in (-1, 2):
        with pytest.raises(ValueError):
            reduced_homology(x, i)
        with pytest.raises(ValueError):
            reduced_cohomology(x, i)


def test_uct_holds_flags_misplaced_torsion():
    z, c2, zero = AbelianGroupStructure(1), AbelianGroupStructure(0, (2,)), AbelianGroupStructure(0)
    assert uct_holds({0: zero, 1: c2, 2: z}, {0: zero, 1: zero, 2: AbelianGroupStructure(1, (2,))})
    assert not uct_holds({0: zero, 1: c2, 2: z}, {0: zero, 1: c2, 2: z})
    assert not uct_holds({0: zero, 1: z}, {0: zero, 1: zero})


def test_cohomology_direct_route():
    x = build_complex((Z2, Z3), full((Z2, Z3)))
    assert str(reduced_cohomology(x, 1)) == "Z^2"
    assert reduced_cohomology(x, 0).is_trivial()


# --- lattices -------------------------------------------------------------------


def test_lattice_ranks_frozen():
    assert coboundary_lattice((Z2, Z3), ()).rank == 0
    assert fourier_lattice((Z2, Z3), ()).rank == 0
    assert coboundary_lattice((Z2, Z2), full((Z2, Z2))).rank == 3
    assert fourier_lattice((Z2, Z2), full((Z2, Z2))).rank == 3
    assert coboundary_lattice((Z2, Z3, Z5), full((Z2, Z3, Z5))).rank == 22
    assert coboundary_lattice((Z2, Z3), full((Z2, Z3))).rank == 4


def test_lattice_match_exhaustive_small():
    for colors in [(Z2, Z2), (Z2, Z3)]:
        points = list(nested_elements(colors))
        for size in range(len(points) + 1):
            for tops in itertools.combinations(points, size):
                assert coboundary_matches_fourier(colors, tops)


def test_lattice_match_random_configs():
    rng = random.Random(20260808)
    for colors in [(Z2, Z2, Z2), (Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)]:
        points = list(nested_elements(colors))
        for _ in range(8):
            tops = rng.sample(points, rng.randint(0, len(points)))
            assert coboundary_matches_fourier(colors, tops)


def test_lattice_match_composite_orders():
    # both colors composite: conductor 12, character values with four
    # power-basis coordinates
    z6 = FiniteAbelianGroup((6,))
    rng = random.Random(4)
    points = list(nested_elements((Z4, z6)))
    for _ in range(5):
        tops = rng.sample(points, rng.randint(0, len(points)))
        assert coboundary_matches_fourier((Z4, z6), tops)


@pytest.mark.parametrize(
    "colors, full_rows, orbit_rows",
    [
        ((Z2, Z3), 4, 2),
        ((Z4, Z3), 24, 8),
        ((Z22, Z3), 12, 6),
        ((Z2, Z2, Z2), 1, 1),
        ((Z2, Z2, Z3), 4, 2),
        ((Z4, Z2), 6, 4),
        ((Z2, Z3, Z5), 64, 8),
        ((Z3, Z5, Z7), 2304, 48),
    ],
)
def test_orbit_vanishing_matrix_matches_full_block(colors, full_rows, orbit_rows):
    # one block of phi(N) rows per Galois orbit of characters cuts out the
    # same kernel as the blocks of every character in the orbit
    full_block = full_block_vanishing_matrix(colors)
    reduced = fourier_vanishing_matrix(colors)
    assert (full_block.rows, reduced.rows) == (full_rows, orbit_rows)
    kernel = complexes._fourier_kernel(colors)
    assert hermite_normal_form(kernel) == hermite_normal_form(kernel_basis(full_block))


# --- membership ------------------------------------------------------------------


def test_is_coboundary_cases():
    colors = (Z2, Z3)
    tops = full(colors)
    assert is_coboundary(colors, tops, [0] * 6)
    column = coboundary_top_matrix(colors).column(0)
    assert is_coboundary(colors, tops, list(column))
    indicator = [1, 0, 0, 0, 0, 0]
    assert not is_coboundary(colors, tops, indicator)
    # cross-check through the transform: the indicator of the identity has
    # full transform support, so it cannot be a coboundary
    f = GroupFunction.from_vector(product_group(colors), indicator)
    assert not fourier_support(f).isdisjoint(set(positive_dual_block(colors)))


def test_is_coboundary_validates_length():
    with pytest.raises(ValueError):
        is_coboundary((Z2, Z3), full((Z2, Z3)), [0] * 5)


# --- serialization ----------------------------------------------------------------


def test_complex_json_shape():
    x = build_complex((Z2, Z3), [((0,), (0,)), ((1,), (2,))])
    data = complex_json(x)
    assert data["colors"] == [[2], [3]]
    assert data["A"] == [[[0], [0]], [[1], [2]]]
    assert set(data["homology"]) == {"0", "1"}
    # two disjoint edges on 5 vertices: three components
    assert data["homology"]["0"] == {"rank": 2, "torsion": []}


# --- per-complex memo --------------------------------------------------------------


def test_cycle_matrix_assembled_once_per_complex(monkeypatch):
    cycles = []
    assemble_cycles = complexes._assemble_cycles
    monkeypatch.setattr(complexes, "_assemble_cycles", lambda x: cycles.append(x) or assemble_cycles(x))
    x = build_family_complex((2, 3, 5), (2, 6))
    homology_profile(x)
    cohomology_profile(x)
    # one cycle matrix, shared by homology and cohomology
    assert cycles == [x]
    assert complexes._cycle_matrix(x) is complexes._cycle_matrix(x)
    # boundary maps keep nothing on the complex
    for i in range(x.top_dim + 1):
        boundary_matrix(x, i)
    assert set(x._memo) == {"cycles", ("cycle factors", False), ("cycle factors", True)}
    # the memo stays outside equality, hashing and repr
    y = build_family_complex((2, 3, 5), (2, 6))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_homology_assembles_no_boundary_map(monkeypatch):
    def refuse(x, i):
        raise AssertionError(f"boundary map or cells of dimension {i} asked for")

    # neither a boundary map nor any cell below the top is enumerated
    monkeypatch.setattr(complexes, "_boundary_columns", refuse)
    monkeypatch.setattr(complexes.BalancedComplex, "cells", refuse)
    report = verify_homology_tables((2, 3, 5, 7), (7,))
    assert report.match and report.euler_poincare and report.uct
    colors = (Z22, Z3, Z2)
    points = full(colors)
    data = complex_json(build_complex(colors, points[::3]))
    assert set(data["homology"]) == set(data["cohomology"]) == {"0", "1", "2"}


def test_verified_complexes_are_released():
    refs = []
    for subset in [(0,), (2, 6), (1, 4, 7), (0, 3, 5, 8)]:
        x = build_family_complex((2, 3, 5), subset)
        homology_profile(x)
        cohomology_profile(x)
        boundary_matrix(x, 1)
        refs.append(weakref.ref(x))
        del x
    gc.collect()
    assert all(ref() is None for ref in refs)
