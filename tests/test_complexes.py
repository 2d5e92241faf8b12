"""Balanced complexes: boundaries, homology, and the lattice comparison."""

import dataclasses
import gc
import itertools
import random
import re
import weakref
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    boundary_cohomology_profile,
    boundary_homology_profile,
    coboundary_lattice,
    column_cycle_matrix,
    conductor_injective_off_zero,
    dense_fourier_containment,
    fourier_lattice,
    fourier_support,
    free_indices,
    full_block_vanishing_matrix,
    hermite_fourier_matches,
    labelled_coboundary_columns,
    labelled_peel_order,
    top_coboundary_domain,
)

from balacyc import complexes
from balacyc.complexes import (
    boundary_matrix,
    build_complex,
    coboundary_matches_fourier,
    coboundary_restriction,
    coboundary_top_matrix,
    cohomology_profile,
    complex_json,
    fourier_vanishing_matrix,
    homology_profile,
    nested_elements,
    reduced_cohomology,
    reduced_homology,
    uct_holds,
)
from balacyc.groups import FiniteAbelianGroup, GroupFunction, positive_dual_block, product_group
from balacyc.cyclo_family import build_family_complex, verify_homology_tables
from balacyc.cyclotomic import euler_phi
from balacyc.intlinalg import AbelianGroupStructure, hermite_normal_form, kernel_basis, smith_normal_form

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z7 = FiniteAbelianGroup((7,))
Z9 = FiniteAbelianGroup((9,))
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
    # a set that fails the per-color check is walked point by point, so
    # every rejection keeps its message
    cases = [
        ((Z2, Z3), [((0,),)], "top cell must pick one vertex per color"),
        ((Z2, Z3), [((0,), (1,), (0,))], "top cell must pick one vertex per color"),
        ((Z2, Z3), [((0,), (3,))], "vertex (3,) is outside its color group"),
        ((Z2, Z3), [((-1,), (0,))], "vertex (-1,) is outside its color group"),
        ((Z2, Z3), [((0, 0), (0,))], "vertex (0, 0) is outside its color group"),
        # (2,) is a vertex of the second color only
        ((Z2, Z3), [((2,), (0,))], "vertex (2,) is outside its color group"),
        ((Z22, Z3), [((0, 1), (2,)), ((1, 2), (0,))], "vertex (1, 2) is outside its color group"),
        ((Z2, Z3), [((0,), (1,)), [[0], [1]]], "duplicate top cells"),
    ]
    for colors, cells, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            complexes.normalize_top_cells(colors, cells)
    normalized = complexes.normalize_top_cells((Z2, Z3), [[[1], [2]], ((0,), (1,))])
    assert normalized == (((0,), (1,)), ((1,), (2,)))
    # the check keeps nothing: no copy of the join is cached
    assert not hasattr(complexes._checked_points, "cache_info")


@st.composite
def _colors_and_points(draw):
    """Cyclic and non-cyclic colors, and points over them that may break
    the rule: arity k - 1, k or k + 1, vertices of any arity up to one past
    the color's, coordinates from -1 up to the order, and repeats."""
    color = st.lists(st.integers(2, 4), min_size=1, max_size=2).map(lambda o: FiniteAbelianGroup(tuple(o)))
    colors = tuple(draw(st.lists(color, min_size=1, max_size=3)))
    k = len(colors)
    vertex = st.sampled_from(colors).flatmap(
        lambda g: st.lists(st.integers(-1, g.order), min_size=len(g.orders) - 1, max_size=len(g.orders) + 1)
    ).map(tuple)
    valid = st.tuples(*(st.tuples(*(st.integers(0, m - 1) for m in g.orders)) for g in colors))
    loose = st.tuples(*(st.tuples(*(st.integers(-1, m) for m in g.orders)) for g in colors))
    wrong_arity = st.sampled_from([k - 1, k + 1]).flatmap(lambda a: st.tuples(*(vertex for _ in range(a))))
    point = st.one_of(valid, valid, loose, wrong_arity, st.tuples(*(vertex for _ in colors)))
    points = draw(st.lists(point, max_size=5))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    return colors, points


@settings(max_examples=200, deadline=None)
@given(_colors_and_points())
@example(((Z2, Z3), [((2,), (0,))]))
@example(((Z22, Z3), [((0, 1), (2,)), ((0, 1), (2,))]))
def test_checked_points_accepts_exactly_the_per_vertex_rule(case):
    # the per-color set check accepts exactly when every point picks one
    # vertex of each color, inside that color, and no point repeats; a
    # refusal words the first bad point, or the repeat
    colors, points = case
    k = len(colors)
    bad = [a for a in points if len(a) != k or not all(g.contains(v) for g, v in zip(colors, a))]
    if not bad and len(set(points)) == len(points):
        assert complexes._checked_points(colors, points) == points
        return
    if not bad:
        message = "duplicate top cells"
    elif len(bad[0]) != k:
        message = "top cell must pick one vertex per color"
    else:
        v = next(v for g, v in zip(colors, bad[0]) if not g.contains(v))
        message = f"vertex {v} is outside its color group"
    with pytest.raises(ValueError, match=re.escape(message)):
        complexes._checked_points(colors, points)


@pytest.mark.parametrize(
    "colors, point", [((), ()), ((FiniteAbelianGroup((1,)), Z3), ((0,), (1,)))], ids=["no colors", "trivial color"]
)
def test_lattice_comparison_refuses_the_colors_build_complex_refuses(colors, point):
    # no vacuous verdict and no matrix: the colors are checked as
    # build_complex checks them, even where the point lies in the join
    with pytest.raises(ValueError):
        build_complex(colors, [])
    with pytest.raises(ValueError):
        coboundary_matches_fourier(colors, [])
    with pytest.raises(ValueError):
        coboundary_restriction(colors, [point])
    with pytest.raises(ValueError):
        coboundary_top_matrix(colors)


def test_lattice_comparison_validates_cells_once(monkeypatch):
    calls = []
    original = complexes._checked_points

    def counting(colors, cells):
        calls.append(len(cells))
        return original(colors, cells)

    monkeypatch.setattr(complexes, "_checked_points", counting)
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
    assert uct_holds(homology_profile(x), cohomology_profile(x))


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
    cochain = [(psi0, psi1)[i].get(t, 0) for i, t in labels]
    image = coboundary_top_matrix(colors).apply(cochain)
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
            image = coboundary_top_matrix(colors).apply(psi)
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
            x = build_complex(colors, tops)
            assert uct_holds(homology_profile(x), cohomology_profile(x))


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


@st.composite
def small_family_complexes(draw):
    # every prime tuple with n <= 330 that these primes make, in any order
    primes = draw(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=2, max_size=4, unique=True).filter(
            lambda ps: prod(ps) <= 330
        )
    )
    top = euler_phi(prod(primes))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return build_family_complex(primes, rng.sample(range(top + 1), rng.randint(0, top + 1)))


def _assembled_cycles(x):
    # the rows, and the columns that _cycle_groups reads off them
    rows = complexes._assemble_cycles(x.colors, free_indices(x))
    return rows, complexes._transpose(rows, prod(g.order - 1 for g in x.colors))


def _layouts(matrix):
    # every entry in its row and its column, keys in order: both
    # eliminations see the same matrix in the same order
    rows, columns = matrix
    return [list(row.items()) for row in rows], [list(column.items()) for column in columns]


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_complexes(), small_family_complexes()))
@example(build_complex((Z5,), ()))
@example(build_complex((Z22,), full((Z22,))))
@example(build_complex((Z4,), full((Z4,))[1:]))
@example(build_complex((Z22, Z4, Z2), ()))
@example(build_complex((Z22, Z4, Z2), full((Z22, Z4, Z2))))
@example(build_complex((Z4, Z22, Z3), full((Z4, Z22, Z3))[::5]))
@example(build_family_complex((2, 3, 5, 11), (0, 5, 17, 80)))
def test_cycle_matrix_matches_column_assembly(x):
    assert _layouts(_assembled_cycles(x)) == _layouts(column_cycle_matrix(x))


def test_cycle_matrix_at_15015_matches_column_assembly():
    # the first five-prime case, whose elimination leaves the dense core
    # that no Smith reduction here finishes yet: P must stay this matrix
    x = build_family_complex((3, 5, 7, 11, 13), (0,))
    rows, columns = _assembled_cycles(x)
    assert (len(rows), len(columns)) == (5760, 5760)
    assert _layouts((rows, columns)) == _layouts(column_cycle_matrix(x))


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
    # the orbit rows, read from exponent rows and the power columns, are
    # rows of the full block, whose entries come through char_value
    assert set(map(tuple, reduced.to_rows())) <= set(map(tuple, full_block.to_rows()))
    kernel = oracles._fourier_kernel(colors)
    assert hermite_normal_form(kernel) == hermite_normal_form(kernel_basis(full_block))


# --- the peel and the per-tuple certificate -------------------------------------

Z24 = FiniteAbelianGroup((2, 4))
# the color tuples of the default sweep's coboundary sections
SWEEP_TUPLES = [(Z2, Z2), (Z2, Z3), (Z2, Z2, Z2), (Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)]


@st.composite
def peel_cases(draw):
    colors = tuple(draw(st.lists(st.sampled_from([Z2, Z3, Z4, Z5, Z22, Z24]), min_size=1, max_size=3)))
    size = len(nested_elements(colors))
    f = draw(st.dictionaries(st.integers(0, size - 1), st.integers(-6, 6)))
    return colors, f


@settings(max_examples=120, deadline=None)
@given(peel_cases())
@example(((Z2,), {0: 3, 1: -1}))
@example(((Z5,), {2: 1}))
@example(((Z2, Z2), {0: 1, 3: 2}))
@example(((Z22, Z24), {x: x - 7 for x in range(32)}))
def test_peel_writes_f_as_a_coboundary_plus_a_remainder_on_N(case):
    # cyclic and non-cyclic colors, colors of order 2, and k = 0
    colors, f = case
    points = nested_elements(colors)
    index = range(len(points))
    columns = complexes._coboundary_columns(colors, index)
    cochain, rest = complexes._peel(colors, index, columns, f)
    total = complexes._coboundary_of(columns, cochain)
    for x, v in rest.items():
        total[x] = total.get(x, 0) + v
    assert {x: v for x, v in total.items() if v} == {x: v for x, v in f.items() if v}
    zeros = tuple(g.elements()[0] for g in colors)
    assert all(all(a != z for a, z in zip(points[x], zeros)) for x in rest)
    assert set(cochain) <= {c for _, c in complexes._peel_order(colors, index)[1]}
    # the sparse product agrees with the dense coboundary matrix
    assert coboundary_top_matrix(colors).apply([cochain.get(c, 0) for c in range(len(columns))]) == tuple(
        total.get(x, 0) - rest.get(x, 0) for x in range(len(points))
    )


@pytest.mark.parametrize("colors", SWEEP_TUPLES, ids=lambda colors: "*".join(str(g.orders) for g in colors))
def test_fourier_verdict_matches_the_hermite_oracle_on_sweep_tuples(colors):
    points = list(nested_elements(colors))
    assert complexes._fourier_certificate(colors) is True
    if len(points) <= 8:
        sets = [tops for size in range(len(points) + 1) for tops in itertools.combinations(points, size)]
    else:
        rng = random.Random(len(points))
        sets = [(), points] + [rng.sample(points, rng.randint(1, len(points) - 1)) for _ in range(6)]
    for tops in sets:
        assert coboundary_matches_fourier(colors, tops) == hermite_fourier_matches(colors, tops)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEP_TUPLES + [(Z3, Z5), (Z24, Z3)]), st.data())
def test_fourier_verdict_matches_the_hermite_oracle_on_drawn_point_sets(colors, data):
    tops = data.draw(st.sets(st.sampled_from(nested_elements(colors))))
    assert coboundary_matches_fourier(colors, tops) is hermite_fourier_matches(colors, tops) is True


@pytest.fixture
def clear_fourier_caches():
    # a test that corrupts a route must not leave its results cached
    def clear():
        for cached in (complexes._fourier_certificate, oracles._fourier_kernel, fourier_vanishing_matrix):
            cached.cache_clear()

    clear()
    yield clear
    clear()


# the check of _fourier_certificate that each mutation fails first: (a1)
# the exponent rows are homomorphisms, (a2) the base columns vanish, (a3)
# the columns are closed under translation, (b) the peel's unit steps
FOURIER_MUTATIONS = {
    "pairing on a base fibre": "a1",
    "pairing off the base fibres": "a1",
    "pairing without its wrap": "a1",
    "flip entry": "a2",
    "move": "a3",
    "double": "b",
}
MUTATED_TUPLES = pytest.mark.parametrize("colors", [(Z2, Z3), (Z22, Z3), (Z2, Z3, Z5)], ids=["2*3", "2x2*3", "2*3*5"])


def mutate_fourier_routes(monkeypatch, colors, mutation):
    """Corrupt what _fourier_certificate reads, in the complexes namespace.

    The pairing mutations perturb the exponent rows on the product group:
    the exponent at one point moves by one power (the point with 1 in the
    last coordinate and 0 elsewhere, on a base column, or the point with 1
    everywhere, on none, where only a column that is a translate of a base
    column sees it), or the last coordinate steps by one power more than
    it should, so the row is a homomorphism along every generator but the
    last, which fails only where that coordinate wraps. The column
    mutations sign-flip one entry of a base column, move the entry of a
    column that misses the point 0 off its fibre, or double every entry
    (a proper sublattice: no peel step has a unit).
    """
    points = nested_elements(colors)
    if mutation.startswith("pairing"):
        original = complexes._exponent_row
        width = len(product_group(colors).orders)
        moved = (0,) * (width - 1) + (1,) if mutation == "pairing on a base fibre" else (1,) * width

        def perturbed(g, chi):
            row = original(g, chi)
            if len(g.orders) == width:
                if mutation == "pairing without its wrap":
                    row = [(e + x[-1]) % g.exponent for e, x in zip(row, g.elements())]
                else:
                    x = g.elements().index(moved)
                    row[x] = (row[x] + 1) % g.exponent
            return row

        monkeypatch.setattr(complexes, "_exponent_row", perturbed)
        return
    columns = complexes._coboundary_columns(colors, range(len(points)))
    if mutation == "flip entry":
        columns = tuple({**col, 0: -col[0]} if c == 0 else col for c, col in enumerate(columns))
    elif mutation == "move":
        # the first column that misses the point 0, the fibre of slot i: its
        # entry at its last point x moves to a point y off the fibre, with
        # x's coordinate in slot i
        c, column = next((c, col) for c, col in enumerate(columns) if 0 not in col)
        i = top_coboundary_domain(colors)[c][0]
        x = max(column)
        y = next(y for y, g in enumerate(points) if y and g[i] == points[x][i] and y not in column)
        moved = {**{z: e for z, e in column.items() if z != x}, y: column[x]}
        columns = tuple(moved if d == c else col for d, col in enumerate(columns))
    else:
        columns = tuple({x: 2 * e for x, e in col.items()} for col in columns)
    monkeypatch.setattr(complexes, "_coboundary_columns", lambda colors, points: columns)


@pytest.mark.parametrize("mutation", list(FOURIER_MUTATIONS))
@MUTATED_TUPLES
def test_fourier_verdict_fails_under_mutation(monkeypatch, clear_fourier_caches, colors, mutation):
    # each mutation of mutate_fourier_routes turns the verdict false, and
    # the check named in FOURIER_MUTATIONS is the one that sees it: the
    # checks before it all pass. The per-set Hermite comparison, computed
    # from the same corrupted routes, rejects the full point set as well
    points = nested_elements(colors)
    assert coboundary_matches_fourier(colors, points)
    mutate_fourier_routes(monkeypatch, colors, mutation)
    results = {"a1": [], "a2": [], "a3": []}
    for check, name in [("a1", "_homomorphic"), ("a2", "vanishes_at_root"), ("a3", "_translation_closed")]:
        real = getattr(complexes, name)

        def spy(*args, real=real, check=check):
            results[check].append(real(*args))
            return results[check][-1]

        monkeypatch.setattr(complexes, name, spy)
    clear_fourier_caches()
    assert coboundary_matches_fourier(colors, points) is False
    caught = FOURIER_MUTATIONS[mutation]
    assert [check for check, seen in results.items() if False in seen] == ([] if caught == "b" else [caught])
    if caught == "b":
        assert all(results.values())
    assert coboundary_matches_fourier(colors, ()) is False
    assert hermite_fourier_matches(colors, points) is False


# the color tuples of the coboundary CI steps small enough for the dense oracle
CI_TUPLES = [
    (Z2, Z3, Z5, Z7, FiniteAbelianGroup((11,))),
    tuple(FiniteAbelianGroup((p, p)) for p in (2, 3, 5)),
    (Z4, Z9, FiniteAbelianGroup((25,))),
    (Z22, Z4, Z3),
]


def sparse_fourier_containment(colors) -> bool:
    colors = tuple(colors)
    return complexes._fourier_contained(colors, complexes._coboundary_columns(colors, range(len(nested_elements(colors)))))


@pytest.mark.parametrize(
    "colors", SWEEP_TUPLES + CI_TUPLES, ids=lambda colors: "*".join(str(g.orders) for g in colors)
)
def test_sparse_containment_matches_the_dense_annihilation(colors):
    assert sparse_fourier_containment(colors) is dense_fourier_containment(colors) is True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([Z2, Z3, Z22, Z4, Z9]), min_size=1, max_size=3))
@example([Z9, Z9, Z4])
@example([Z22])
def test_sparse_containment_matches_the_dense_annihilation_on_drawn_colors(colors):
    # k = 0..2, cyclic and non-cyclic colors, several Galois orbits
    assert sparse_fourier_containment(colors) is dense_fourier_containment(colors) is True


@pytest.mark.parametrize("mutation", list(FOURIER_MUTATIONS))
@MUTATED_TUPLES
def test_sparse_containment_matches_the_dense_annihilation_under_mutation(
    monkeypatch, clear_fourier_caches, colors, mutation
):
    # only "double" keeps every column in the kernel; it fails check (b)
    mutate_fourier_routes(monkeypatch, colors, mutation)
    clear_fourier_caches()
    assert sparse_fourier_containment(colors) is dense_fourier_containment(colors) is (mutation == "double")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([Z2, Z3, Z22, Z24, Z9]), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
    st.floats(0, 1),
)
@example([Z22, Z24, Z9], random.Random(0), 0.5)
@example([Z2, Z3], random.Random(1), 0.0)
@example([Z3, Z2], random.Random(2), 1.0)
def test_coboundary_columns_follow_the_point_order(colors, rng, share):
    # k = 0..2, cyclic and non-cyclic colors: the columns over shuffled
    # indices are the nested-order columns with their rows renumbered, and
    # densified they are the rows of the dense coboundary in that order; the
    # sparse restriction to a prefix of those points (the empty one and the
    # whole join included) is those rows of the dense coboundary
    colors = tuple(colors)
    nested = nested_elements(colors)
    points = list(nested)
    rng.shuffle(points)
    position = {g: x for x, g in enumerate(nested)}
    index = [position[g] for g in points]
    row_of = {f: r for r, f in enumerate(index)}
    renumbered = tuple(
        {row_of[x]: e for x, e in column.items()} for column in complexes._coboundary_columns(colors, range(len(nested)))
    )
    columns = complexes._coboundary_columns(colors, index)
    assert columns == renumbered
    dense = coboundary_top_matrix(colors)
    assert complexes._dense(len(points), columns) == dense.select_rows(index)
    prefix = points[: round(share * len(points))]
    cut = tuple({r: e for r, e in column.items() if r < len(prefix)} for column in renumbered)
    assert complexes._coboundary_columns(colors, index[: len(prefix)]) == cut
    assert coboundary_restriction(colors, prefix) == dense.select_rows(index[: len(prefix)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([Z2, Z3, Z4, Z22, Z24, Z9]), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
    st.floats(0, 1),
)
@example([Z22, Z24, Z9], random.Random(0), 1.0)
@example([Z2], random.Random(1), 0.5)
@example([Z3, Z5, Z7], random.Random(2), 0.0)
def test_indexed_columns_and_peel_order_match_the_label_maps(colors, rng, share):
    # k = 0..3, cyclic and non-cyclic colors, shuffled and partial point
    # sets (the empty one and the whole join included): the mixed-radix
    # columns and peel steps are those of the label-map references, in
    # the same order, down to the order of each column's rows
    colors = tuple(colors)
    nested = nested_elements(colors)
    points = list(nested)
    rng.shuffle(points)
    points = points[: round(share * len(points))]
    index = [nested.index(g) for g in points]
    columns = complexes._coboundary_columns(colors, index)
    reference = labelled_coboundary_columns(colors, points)
    assert [list(c.items()) for c in columns] == [list(c.items()) for c in reference]
    assert complexes._peel_order(colors, index) == labelled_peel_order(colors, points)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([Z2, Z3, Z4, Z22, Z24, Z9]), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
    st.floats(0, 1),
)
@example([Z22, Z24, Z9], random.Random(0), 1.0)
@example([Z24], random.Random(1), 0.5)
@example([Z3, Z22], random.Random(2), 0.0)
def test_point_indices_are_positions_in_nested_order(colors, rng, share):
    # k = 0..3, cyclic and non-cyclic colors, shuffled and partial point
    # sets: the tuple -> index conversion is each point's position in
    # nested_elements, and the radix's digits read each coordinate back
    colors = tuple(colors)
    nested = nested_elements(colors)
    points = list(nested)
    rng.shuffle(points)
    points = points[: round(share * len(points))]
    index = complexes._point_indices(colors, points)
    assert index == [nested.index(g) for g in points]
    radix = complexes._radix(colors)
    for f, g in zip(index, points):
        assert tuple(c.elements()[f % block // low] for c, (_, low, block) in zip(colors, radix)) == g


def test_coboundary_restriction_builds_columns_over_the_given_points_only(monkeypatch):
    colors = (Z2, Z3, Z5)
    points = [((1,), (2,), (4,)), ((0,), (0,), (0,)), ((1,), (0,), (3,))]
    seen = []
    build = complexes._coboundary_columns

    def spy(colors, index):
        seen.append(list(index))
        return build(colors, index)

    monkeypatch.setattr(complexes, "_coboundary_columns", spy)
    m = coboundary_restriction(colors, points)
    assert seen == [[nested_elements(colors).index(g) for g in points]] == [[29, 0, 18]]
    assert (m.rows, m.cols) == (3, len(top_coboundary_domain(colors)))


def test_coboundary_restriction_refuses_repeated_or_foreign_points():
    colors = (Z2, Z3)
    with pytest.raises(ValueError, match="duplicate top cells"):
        coboundary_restriction(colors, [((0,), (1,)), ((0,), (1,))])
    with pytest.raises(ValueError, match=re.escape("vertex (3,) is outside its color group")):
        coboundary_restriction(colors, [((0,), (3,))])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=2).filter(lambda orders: prod(orders) <= 36), st.integers(1, 4))
@example([2, 2], 3)
@example([9], 2)
def test_injective_off_zero_matches_the_product_conductor_check(orders, multiple):
    # check (c) in g's own conductor agrees with it written in the
    # conductor of a product whose exponent g's divides
    g = FiniteAbelianGroup(tuple(orders))
    assert complexes._injective_off_zero(g) is conductor_injective_off_zero(g, multiple * g.exponent) is True


@pytest.mark.parametrize("colors", [(Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)], ids=["4*3", "2x2*3", "2*3*5"])
def test_fourier_verdict_fails_without_one_orbit_of_a_color(monkeypatch, clear_fourier_caches, colors):
    # the single-color vanishing matrix of the first color loses the rows
    # of its first character orbit: check (c) no longer has full rank
    assert coboundary_matches_fourier(colors, ())
    real = complexes.fourier_vanishing_matrix
    first = colors[0]

    def without_one_orbit(cs):
        m = real(cs)
        return m.select_rows(range(euler_phi(first.exponent), m.rows)) if cs == (first,) else m

    monkeypatch.setattr(complexes, "fourier_vanishing_matrix", without_one_orbit)
    clear_fourier_caches()
    assert complexes._injective_off_zero(first) is False
    assert coboundary_matches_fourier(colors, ()) is False


# --- membership ------------------------------------------------------------------


def test_is_coboundary_cases():
    colors = (Z2, Z3)
    tops = full(colors)
    lattice = coboundary_lattice(colors, tops)
    assert lattice.contains([0] * 6)
    column = coboundary_top_matrix(colors).column(0)
    assert lattice.contains(list(column))
    indicator = [1, 0, 0, 0, 0, 0]
    assert not lattice.contains(indicator)
    # cross-check through the transform: the indicator of the identity has
    # full transform support, so it cannot be a coboundary
    f = GroupFunction.from_vector(product_group(colors), indicator)
    assert not fourier_support(f).isdisjoint(set(positive_dual_block(colors)))


def test_is_coboundary_validates_length():
    with pytest.raises(ValueError):
        coboundary_lattice((Z2, Z3), full((Z2, Z3))).contains([0] * 5)


# --- serialization ----------------------------------------------------------------


def test_complex_json_shape():
    x = build_complex((Z2, Z3), [((0,), (0,)), ((1,), (2,))])
    data = complex_json(x)
    assert data["colors"] == [[2], [3]]
    assert data["A"] == [[[0], [0]], [[1], [2]]]
    assert set(data["homology"]) == {"0", "1"}
    # two disjoint edges on 5 vertices: three components
    assert data["homology"]["0"] == {"rank": 2, "torsion": []}


# --- (co)homology computed once per complex ------------------------------------------


def test_cycle_matrix_assembled_once_per_complex(monkeypatch):
    cycles = []
    assemble_cycles = complexes._assemble_cycles
    monkeypatch.setattr(
        complexes, "_assemble_cycles", lambda colors, free: cycles.append(free) or assemble_cycles(colors, free)
    )
    x = build_family_complex((2, 3, 5), (2, 6))
    y = build_family_complex((2, 3, 5), (2, 6))
    before = (hash(x), repr(x))
    homology_profile(x)
    cohomology_profile(x)
    for i in range(x.top_dim + 1):
        reduced_homology(x, i)
        reduced_cohomology(x, i)
        boundary_matrix(x, i)
    complex_json(x)
    # the profiles are copies: clearing one clears nothing kept
    homology_profile(x).clear()
    cohomology_profile(x).clear()
    assert len(homology_profile(x)) == len(cohomology_profile(x)) == x.top_dim + 1
    # one cycle matrix, on the free points, shared by every reader
    assert cycles == [free_indices(x)]
    # what is computed stays outside the fields, equality, hashing and repr
    assert [f.name for f in dataclasses.fields(complexes.BalancedComplex)] == ["colors", "top_cells"]
    assert x == y and (hash(x), repr(x)) == before == (hash(y), repr(y))


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
