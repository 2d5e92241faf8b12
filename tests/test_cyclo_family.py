"""The cyclotomic-coefficient complex family and its verifications."""

import importlib
import random
import sys
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    band_root_relation_kernel,
    boundary_cohomology_profile,
    boundary_homology_profile,
    coboundary_lattice,
    direct_pullback_factors,
    evaluation_kernel,
    fourier_lattice,
    hermite_pullback_matches,
    index_pullback_matches,
    kernel_rank_and_index,
    partial_sum_containment,
    pullback_rows,
    reference_hermite_normal_form,
)

from balacyc import complexes, cyclo_family, groups, intlinalg
from balacyc.complexes import (
    build_complex,
    cohomology_profile,
    homology_profile,
    nested_elements,
    reduced_homology,
)
from balacyc.cyclo_family import (
    CycloComplexData,
    build_family_complex,
    check_primes,
    coefficient_vector_is_coboundary,
    crt_split,
    crt_unit,
    family_colors,
    predicted_cohomology,
    predicted_homology,
    pullback_matches_root_kernel,
    quotient_presentation,
    root_relation_lattice,
    transform_pullback_check,
    upper_indices,
    verify_homology_tables,
)
from balacyc.cyclotomic import IntPoly, _power_columns, cofactor, cyclotomic, euler_phi, root_power
from balacyc.groups import FiniteAbelianGroup, GroupFunction, fourier_transform, product_group
from balacyc.intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
    sparse_invariant_factors,
)
from balacyc.sweeps import bounded_subsets


# --- CRT bookkeeping ---------------------------------------------------------


def test_crt_split_frozen():
    assert crt_split((2, 3), 3) == ((1,), (0,))
    assert crt_split((2, 3), 5) == ((1,), (2,))
    assert crt_split((2, 3, 5), 0) == ((0,), (0,), (0,))


def test_crt_split_bijective_and_additive():
    for primes in [(2, 3), (2, 3, 5), (3, 7)]:
        n = 1
        for p in primes:
            n *= p
        images = {crt_split(primes, x) for x in range(n)}
        assert len(images) == n
        for x in range(n):
            for y in (1, n - 1, x):
                left = crt_split(primes, (x + y) % n)
                right = tuple(
                    ((a[0] + b[0]) % p,)
                    for a, b, p in zip(crt_split(primes, x), crt_split(primes, y), primes)
                )
                assert left == right


def test_crt_unit_frozen_and_unit_property():
    assert crt_unit((2, 3)) == 5
    assert crt_unit((2, 3, 5)) == 1
    assert crt_unit((2, 3, 7)) == 41
    for primes in [(2, 3), (2, 3, 5), (2, 3, 7), (3, 5, 7)]:
        n = 1
        for p in primes:
            n *= p
        u = crt_unit(primes)
        assert gcd(u, n) == 1
        units = {m for m in range(n) if gcd(m, n) == 1}
        assert {(u * m) % n for m in units} == units


def test_prime_validation():
    with pytest.raises(ValueError):
        crt_unit((2,))  # single prime: dimension zero is out of scope
    with pytest.raises(ValueError):
        crt_unit((2, 2, 3))
    with pytest.raises(ValueError):
        crt_unit((2, 9))


@pytest.mark.parametrize("primes", [(2.0, 3), (2, 3.0), (True, 3)])
def test_primes_must_be_ints_even_once_their_values_are_cached(primes):
    # (2.0, 3) == (2, 3) as a key of the family record's cache: the entries'
    # types are checked before it is read, whether or not (2, 3) is cached
    for cached in (False, True):
        if cached:
            assert CycloComplexData.build((2, 3), (0,)).n == 6
        for call in (
            lambda: CycloComplexData.build(primes, (0,)),
            lambda: pullback_matches_root_kernel(primes, (0,)),
            lambda: verify_homology_tables(primes, (0,)),
            lambda: check_primes(primes),
        ):
            with pytest.raises(ValueError, match="primes must be integers"):
                call()


def test_crt_table_is_the_split_of_each_residue():
    # the sum of per-prime cycles is, residue by residue, the position of
    # crt_split in nested_elements order, the primes in either order and
    # cut at any stop; the free indices are the sorted positions of the
    # splits of the free residues
    for primes in [(2, 3), (3, 2), (2, 3, 5), (5, 3, 2), (3, 5, 7), (7, 5, 3), (2, 3, 5, 7), (5, 7, 11), (11, 7, 5)]:
        n = prod(primes)
        position = {g: f for f, g in enumerate(nested_elements(family_colors(primes)))}
        assert cyclo_family._crt_index(primes, n) == [position[crt_split(primes, x)] for x in range(n)]
        assert cyclo_family._crt_index(primes, 3) == [position[crt_split(primes, x)] for x in range(3)]
        top = euler_phi(n)
        rng = random.Random(n)
        for subset in [(), (top,), tuple(range(top + 1)), tuple(sorted(rng.sample(range(top + 1), top // 2)))]:
            data = CycloComplexData.build(primes, subset)
            free = [x for x in range(top + 1) if x not in subset]
            assert cyclo_family._free_indices(data) == sorted(position[crt_split(primes, x)] for x in free)


@pytest.mark.parametrize("entry", [1.5, True, -1, 9])
def test_per_item_checks_keep_their_messages(entry):
    # the pullback item checks its subset without building the data, in
    # C-level passes; every per-item route words each error as build does
    # (phi(30) = 8)
    primes = (2, 3, 5)
    with pytest.raises(ValueError) as built:
        CycloComplexData.build(primes, (0, entry, 3))
    message = "subset must lie in 0..8" if type(entry) is int else f"subset entries must be integers, not {entry!r}"
    assert str(built.value) == message
    for call in (pullback_matches_root_kernel, verify_homology_tables):
        with pytest.raises(ValueError) as raised:
            call(primes, (0, entry, 3))
        assert str(raised.value) == message


def test_family_record_is_shared_by_every_subset():
    # the fields that depend on the primes alone are the record's own
    # objects, built once per tuple of primes
    a, b = CycloComplexData.build((3, 5, 7), (0, 7)), CycloComplexData.build([3, 5, 7], range(48, -1, -1))
    assert a.upper is b.upper and a.coeffs is b.coeffs
    assert b.subset == tuple(range(49))


def test_family_data_fields():
    data = CycloComplexData.build((2, 3), (0, 2))
    assert (data.n, data.totient) == (6, 2)
    assert data.upper == (3, 4, 5)
    assert data.coeffs == (1, -1, 1)
    assert data.subset_coeffs == (1, 1)
    assert data.coeff_gcd == 1
    assert data.top_indices == (0, 2, 3, 4, 5)
    assert upper_indices(30) == tuple(range(9, 30))
    with pytest.raises(ValueError):
        CycloComplexData.build((2, 3), (7,))


@pytest.mark.parametrize("entry", [1.5, 0.2, True, "2"])
def test_subset_entries_must_be_ints(entry):
    # nothing is truncated or converted: 1.5 is not residue 1, True not 1, "2" not 2
    for build in (
        lambda: CycloComplexData.build((2, 3), (0, entry)),
        lambda: verify_homology_tables((2, 3), (entry,)),
        lambda: pullback_matches_root_kernel((2, 3), (entry,)),
        lambda: build_family_complex((2, 3), (entry,)),
    ):
        with pytest.raises(ValueError, match="subset entries must be integers"):
            build()


# --- complexes -----------------------------------------------------------------


def test_family_complex_frozen_shapes():
    full = build_family_complex((2, 3), (0, 1, 2))
    assert full.f_vector() == (5, 6)  # all six edges of the bipartite join
    tree = build_family_complex((2, 3), (0,))
    assert set(tree.top_cells) == {
        ((0,), (0,)),
        ((1,), (0,)),
        ((0,), (1,)),
        ((1,), (2,)),
    }
    assert reduced_homology(tree, 0).is_trivial()
    assert reduced_homology(tree, 1).is_trivial()
    forest = build_family_complex((2, 3), ())
    assert forest.f_vector() == (5, 3)
    assert str(reduced_homology(forest, 0)) == "Z"


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 5, 7), (2, 3, 5, 11)])
def test_family_complex_equals_the_validated_build(primes):
    # the family splits only its free residues and takes every other point
    # as a top cell, without build_complex's checks; the complex must be
    # the one build_complex makes of every top index's CRT point
    top = euler_phi(prod(primes))
    rng = random.Random(top)
    subsets = [(), (top,), tuple(range(top + 1))]
    subsets += [tuple(rng.sample(range(top + 1), rng.randint(1, top))) for _ in range(4)]
    for subset in subsets:
        points = [crt_split(primes, x) for x in CycloComplexData.build(primes, subset).top_indices]
        assert build_family_complex(primes, subset) == build_complex(family_colors(primes), points)


# --- predictions -----------------------------------------------------------------


def test_predicted_tables_frozen():
    # n = 6, all three coefficients are units
    assert str(predicted_homology((2, 3), (0, 1, 2), 1)) == "Z^2"
    assert predicted_homology((2, 3), (0, 1, 2), 0).is_trivial()
    # n = 30: coefficient at index 2 vanishes
    assert cyclotomic(30).coeffs == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    assert str(predicted_homology((2, 3, 5), (2,), 1)) == "Z"
    assert str(predicted_homology((2, 3, 5), (2,), 2)) == "Z"
    assert predicted_homology((2, 3, 5), (2,), 0).is_trivial()
    assert str(predicted_homology((2, 3, 5), (2, 6), 2)) == "Z^2"
    assert str(predicted_homology((2, 3, 5), (2, 6), 1)) == "Z"
    assert str(predicted_cohomology((2, 3, 5), (2, 6), 2)) == "Z^2"
    assert str(predicted_cohomology((2, 3, 5), (2, 6), 1)) == "Z"
    # dimensions outside 0..k are refused, as reduced_homology refuses them
    for predicted, primes, subset, i in [
        (predicted_homology, (2, 3), (0,), -1),
        (predicted_homology, (2, 3), (0,), 7),
        (predicted_cohomology, (2, 3, 5), (1,), -3),
        (predicted_cohomology, (2, 3, 5), (1,), 3),
    ]:
        with pytest.raises(ValueError, match="dimension out of range"):
            predicted(primes, subset, i)


def test_predictions_reject_empty_subset():
    with pytest.raises(ValueError):
        predicted_homology((2, 3), (), 1)
    with pytest.raises(ValueError):
        verify_homology_tables((2, 3), ())


def test_single_index_table_matches_direct_formula():
    # the closed form specialises to: torsion Z/|c_j| below the top, a free
    # line at the top exactly when c_j = 0
    for primes in [(2, 3), (2, 3, 5)]:
        data = CycloComplexData.build(primes, ())
        k = len(primes) - 1
        for j in range(data.totient + 1):
            c = data.coeffs[j]
            expected_low = AbelianGroupStructure.from_parts(0, (c,))
            expected_top = AbelianGroupStructure.from_parts(1 if c == 0 else 0)
            assert predicted_homology(primes, (j,), k - 1) == expected_low
            assert predicted_homology(primes, (j,), k) == expected_top
            report = verify_homology_tables(primes, (j,))
            assert report.match and report.euler_poincare and report.uct


def test_verify_tables_exhaustive_n6():
    for subset in bounded_subsets(range(3), 1):
        report = verify_homology_tables((2, 3), subset)
        assert report.match and report.euler_poincare and report.uct


def test_verify_tables_n30_samples():
    rng = random.Random(5)
    subsets = [(2,), (2, 6), (0, 8), tuple(range(9))]
    for _ in range(6):
        subsets.append(tuple(sorted(rng.sample(range(9), rng.randint(1, 9)))))
    for subset in subsets:
        report = verify_homology_tables((2, 3, 5), subset)
        assert report.match and report.euler_poincare and report.uct


def test_torsion_branch_at_n105():
    # the 105th cyclotomic polynomial has coefficient -2 at degrees 7 and
    # 41, giving genuine 2-torsion: predicted and Smith-computed tables
    # must both carry it, homology below the top and cohomology at the top
    data = CycloComplexData.build((3, 5, 7), ())
    assert data.coeffs[7] == -2 and data.coeffs[41] == -2
    zero = next(j for j, c in enumerate(data.coeffs) if c == 0)
    for subset in [(7,), (7, 41), (7, zero), (7, 41, zero)]:
        report = verify_homology_tables((3, 5, 7), subset)
        assert report.match and report.euler_poincare and report.uct
        assert report.computed_homology[1] == AbelianGroupStructure(0, (2,))
        assert report.computed_cohomology[2].torsion == (2,)
    assert pullback_matches_root_kernel((3, 5, 7), (7,))
    presentation = quotient_presentation((3, 5, 7), (7,))
    assert presentation.ok
    assert str(presentation.ambient_quotient) == "C2"


def test_torsion_at_n210():
    # the 210th cyclotomic polynomial has coefficient 2 at degree 7: C2 in
    # homology one below the top and in cohomology at the top
    assert CycloComplexData.build((2, 3, 5, 7), ()).coeffs[7] == 2
    report = verify_homology_tables((2, 3, 5, 7), (7,))
    assert report.match and report.euler_poincare and report.uct
    assert report.computed_homology[2] == AbelianGroupStructure(0, (2,))
    assert report.computed_cohomology[3] == AbelianGroupStructure(0, (2,))


@pytest.mark.parametrize("subset", [(0, 5, 17, 300), (39, 40, 60), (94, 146)])
def test_cycle_route_matches_boundary_route_at_n2310(subset):
    # coefficient gcds 1, 2 and 3
    x = build_family_complex((2, 3, 5, 7, 11), subset)
    y = build_family_complex((2, 3, 5, 7, 11), subset)
    assert homology_profile(x) == boundary_homology_profile(y)
    assert cohomology_profile(x) == boundary_cohomology_profile(y)


def test_verification_never_enumerates_the_join(monkeypatch):
    def refuse(colors):
        raise AssertionError("the join was enumerated")

    monkeypatch.setattr(complexes, "nested_elements", refuse)
    monkeypatch.setattr(cyclo_family, "nested_elements", refuse)
    rng = random.Random(2310)
    for size in (1, 40, 300):
        report = verify_homology_tables((2, 3, 5, 7, 11), rng.sample(range(481), size))
        assert report.match and report.euler_poincare and report.uct


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (2, 3, 5), (2, 3, 7), (3, 5, 7)]), st.data())
def test_verification_agrees_with_the_family_complex(primes, data):
    # the verify path reads the free points directly; the complex finds
    # them again from its top cells, and the oracles eliminate every
    # boundary map of it
    top = euler_phi(prod(primes))
    subset = sorted(data.draw(st.sets(st.integers(0, top), min_size=1, max_size=top + 1)))
    report = verify_homology_tables(primes, subset)
    x = build_family_complex(primes, subset)
    homology = dict(enumerate(report.computed_homology))
    cohomology = dict(enumerate(report.computed_cohomology))
    assert homology == homology_profile(x) == boundary_homology_profile(x)
    assert cohomology == cohomology_profile(x) == boundary_cohomology_profile(x)


def test_dense_core_reached_at_n105(monkeypatch):
    # coefficients -2 and -2: the factor 2 cannot come from a unit pivot,
    # so both eliminations of the cycle matrix end in a dense core
    cores = []
    reduce = intlinalg._smith_reduce
    monkeypatch.setattr(intlinalg, "_smith_reduce", lambda a, *rest: cores.append(len(a)) or reduce(a, *rest))
    report = verify_homology_tables((3, 5, 7), (7, 41))
    assert report.match and report.euler_poincare and report.uct
    assert len(cores) == 2 and all(cores)
    assert report.coeff_gcd == 2
    oracle = boundary_homology_profile(build_family_complex((3, 5, 7), (7, 41)))
    assert report.computed_homology[1] == oracle[1] == AbelianGroupStructure(0, (2,))


@pytest.mark.parametrize(
    "primes, subset",
    [
        ((2, 3), (0,)),
        ((2, 5), (1, 3)),
        ((3, 5), (0, 2, 7)),
        ((2, 3, 5), (2, 6)),
        ((2, 3, 7), (0, 5, 9)),
        ((3, 5, 7), (7, 41)),
        ((2, 5, 7), (0, 1, 2, 3, 4)),
        ((5, 7, 11), (11, 46)),
        ((5, 7, 11), (0, 7)),
    ],
)
def test_cycle_matrix_factors_match_dense_smith(primes, subset):
    # unless it is a top cell, the point 0 meets every column: a dense
    # row on one side, a dense column on the other
    data = CycloComplexData.build(primes, subset)
    rows, columns = complexes._assemble_cycles(family_colors(primes), cyclo_family._free_indices(data))
    p = IntMatrix(len(rows), len(columns), tuple(row.get(c, 0) for row in rows for c in range(len(columns))))
    assert sparse_invariant_factors(rows) == smith_normal_form(p).invariant_factors
    assert sparse_invariant_factors(columns) == smith_normal_form(p.transpose()).invariant_factors


def test_verification_report_json_shape():
    report = verify_homology_tables((2, 3, 5), (2, 6))
    data = report.to_json_dict()
    assert data["primes"] == [2, 3, 5]
    assert data["n"] == 30
    assert data["A"] == [2, 6]
    assert data["dA"] == 0
    assert data["match"] is True and data["euler_poincare"] is True
    assert data["computed"]["homology"]["2"] == {"rank": 2, "torsion": []}
    assert data["predicted"]["cohomology"]["1"] == {"rank": 1, "torsion": []}


# --- the vanishing-evaluation lattice ---------------------------------------------


def test_root_relation_lattice_frozen():
    assert root_relation_lattice((2, 3), (0, 1, 2)).rank == 4
    # empty subset at n = 6: the projection to the three upper coordinates
    # is onto, so the canonical form is the identity (golden value)
    empty = root_relation_lattice((2, 3), ())
    assert empty.h == IntMatrix.identity(3)


def descending(m: IntMatrix) -> IntMatrix:
    """m with its rows, indexed by residues 0..n-1, listed from n-1 down to 0."""
    return m.select_rows(range(m.rows - 1, -1, -1))


@pytest.mark.parametrize("n", [6, 30, 42, 105, 385])
def test_root_relation_kernel_matches_evaluation_kernel(n):
    # the form read off the remainders of z**d is the elimination of the
    # banded z**j * Phi_n basis and spans the saturated kernel of evaluation
    # at zeta_n that the Smith column transform finds, rows n-1 down to 0;
    # the rows for the residues n-1, ..., phi(n) are the identity
    kernel = cyclo_family._root_relation_kernel(n)
    assert kernel == band_root_relation_kernel(n)
    assert kernel == hermite_normal_form(descending(evaluation_kernel(n)))
    width = n - euler_phi(n)
    assert kernel.h.select_rows(range(width)) == IntMatrix.identity(width)


def test_root_relation_kernel_matches_reference_hermite_form():
    n = 385
    width = n - euler_phi(n)
    coeffs = list(cyclotomic(n).coeffs)
    band = [[0] * j + coeffs + [0] * (width - 1 - j) for j in range(width)]
    expected = reference_hermite_normal_form(descending(IntMatrix.from_columns(band, rows=n)))
    assert cyclo_family._root_relation_kernel(n) == expected


@pytest.mark.parametrize(
    "subset", [(0, 7), tuple(range(0, 241, 2)), (3, 100, 239), (1, 17, 240)]
)
def test_pullback_sides_match_reference_hermite_form(subset):
    # both Hermite forms that pullback_matches_root_kernel compares, at
    # n = 385 with a small and a large A, with and without phi(n) = 240,
    # against the reference elimination; rows in descending residue order
    primes = (5, 7, 11)
    data = CycloComplexData.build(primes, subset)
    indices = sorted(set(subset) | set(range(241, 385)), reverse=True)
    assert data.pullback_indices == tuple(indices)
    points = [crt_split(data.primes, x) for x in indices]
    coboundary = complexes.coboundary_restriction(cyclo_family.family_colors(data.primes), points)
    projected = cyclo_family._root_relation_kernel(data.n).h.select_rows([data.n - 1 - x for x in indices])
    assert hermite_normal_form(coboundary) == reference_hermite_normal_form(coboundary)
    assert root_relation_lattice(primes, subset) == reference_hermite_normal_form(projected)
    assert pullback_matches_root_kernel(primes, subset)


def test_pullback_comparison_tells_neighbouring_subsets_apart():
    # the per-item comparison is not vacuous: the coboundary-side form for
    # A = {0, 7} differs from the kernel-side form for A = {0, 8}, though
    # both have the same size and the coefficients 1, -1
    primes = (5, 7, 11)
    data = CycloComplexData.build(primes, (0, 7))
    assert CycloComplexData.build(primes, (0, 8)).subset_coeffs == data.subset_coeffs
    points = [crt_split(primes, x) for x in data.pullback_indices]
    coboundary = hermite_normal_form(
        complexes.coboundary_restriction(cyclo_family.family_colors(primes), points)
    )
    assert coboundary == root_relation_lattice(primes, (0, 7))
    assert coboundary != root_relation_lattice(primes, (0, 8))


def test_root_relation_lattice_projects_the_cached_form(monkeypatch):
    # at n = 385 the top rows keep every unit row of the kernel's form
    # exactly when 240 = phi(n) is in A: then the selection eliminates
    # nothing, otherwise it brings the selected rows to Hermite form once
    primes = (5, 7, 11)
    kernel = cyclo_family._root_relation_kernel(385)
    calls = []

    def counting(m):
        calls.append(m.rows)
        return hermite_normal_form(m)

    monkeypatch.setattr(cyclo_family, "hermite_normal_form", counting)
    for subset, eliminations in [((3, 100, 240), 0), ((3, 100, 239), 1)]:
        calls.clear()
        data = CycloComplexData.build(primes, subset)
        lattice = root_relation_lattice(primes, subset)
        assert len(calls) == eliminations
        rows = [384 - x for x in data.pullback_indices]
        assert lattice == hermite_normal_form(kernel.h.select_rows(rows))
    assert cyclo_family._root_relation_kernel.cache_info().maxsize == 8


def test_root_relation_lattice_rows_descend():
    # golden form at n = 6, A = {0, 1}: rows are the residues 5, 4, 3, 1, 0.
    # Presentation vectors built in ascending order miss the lattice for
    # t = 3, so the order of quotient_presentation's vectors matters here
    data = CycloComplexData.build((2, 3), (0, 1))
    assert data.pullback_indices == (5, 4, 3, 1, 0)
    lattice = root_relation_lattice((2, 3), (0, 1))
    assert lattice.h.to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 1, -1]]
    assert quotient_presentation((2, 3), (0, 1)).generator_membership == ((3, True), (4, True), (5, True))
    ascending = {x: r for r, x in enumerate(data.top_indices)}
    vec = [0] * 5
    vec[ascending[3]] = 1
    for j in data.subset:
        vec[ascending[j]] -= root_power(6, 3).coords[j]
    assert not lattice.contains(vec)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2, max_size=3, unique=True).filter(
        lambda primes: prod(primes) <= 300
    )
)
def test_root_relation_kernel_matches_evaluation_kernel_on_prime_products(primes):
    n = prod(primes)
    kernel = cyclo_family._root_relation_kernel(n)
    assert kernel == band_root_relation_kernel(n)
    assert kernel == hermite_normal_form(descending(evaluation_kernel(n)))
    assert (kernel.h.rows, kernel.rank) == (n, n - euler_phi(n))


def test_lattice_routes_do_not_use_the_coboundary(monkeypatch):
    def forbidden(*args):
        raise AssertionError("lattice route reached the coboundary code")

    monkeypatch.setattr(complexes, "coboundary_top_matrix", forbidden)
    monkeypatch.setattr(complexes, "coboundary_restriction", forbidden)
    monkeypatch.setattr(cyclo_family, "_coboundary_columns", forbidden)
    assert root_relation_lattice((2, 3, 5), (2, 6)).rank > 0
    colors = tuple(FiniteAbelianGroup((p,)) for p in (2, 3, 5))
    assert fourier_lattice(colors, nested_elements(colors)).rank == 22


def test_coefficient_vector_lies_in_lattice():
    from balacyc.cyclotomic import euler_phi

    for primes in [(2, 3), (2, 3, 5), (2, 3, 7)]:
        n = 1
        for p in primes:
            n *= p
        data = CycloComplexData.build(primes, range(euler_phi(n) + 1))
        lattice = root_relation_lattice(primes, data.subset)
        vec = [data.coeffs[x] if x <= data.totient else 0 for x in data.pullback_indices]
        assert hermite_normal_form(lattice.h).contains(vec)


def test_pullback_matches_exhaustive_n6():
    for subset in bounded_subsets(range(3)):
        assert pullback_matches_root_kernel((2, 3), subset)


def test_pullback_matches_targeted_n30():
    for subset in [(), (0,), (2,), (2, 6), tuple(range(9))]:
        assert pullback_matches_root_kernel((2, 3, 5), subset)


def test_pullback_matches_random_n42():
    rng = random.Random(17)
    for _ in range(10):
        subset = tuple(sorted(rng.sample(range(13), rng.randint(0, 13))))
        assert pullback_matches_root_kernel((2, 3, 7), subset)


# --- the per-n certificate against the per-subset oracles --------------------


@pytest.fixture
def fresh_certificate():
    # a test that corrupts the pulled-back coboundary, or Phi_n, must not
    # leave its certificate or its family record cached
    caches = (cyclo_family._pullback_certificate, cyclo_family._family_record)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


CRT_INDEX = cyclo_family._crt_index


def swapped_crt_index(primes, stop):
    """The CRT indices with the points of residues 1 and 2 exchanged."""
    table = CRT_INDEX(primes, stop)
    table[1], table[2] = table[2], table[1]
    return table


def columns_of(rows, width):
    """The sparse columns of sparse rows on Z_n, as _coboundary_columns builds them."""
    columns = [{} for _ in range(width)]
    for x, row in enumerate(rows):
        for c, e in row.items():
            columns[c][x] = e
    return columns


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 7)])
def test_pullback_check_matches_hermite_oracle_on_every_subset(primes):
    top = euler_phi(prod(primes))
    for size in range(top + 2):
        for subset in combinations(range(top + 1), size):
            assert pullback_matches_root_kernel(primes, subset) == hermite_pullback_matches(primes, subset)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3, 5, 7), (5, 7, 11)]), st.data())
@example((3, 5, 7), None)
@example((5, 7, 11), None)
def test_pullback_check_matches_hermite_oracle_on_drawn_subsets(primes, data):
    # None stands for the three boundary cases: A empty, A = {phi(n)} and
    # A the whole range below phi(n); drawn subsets cover both phi(n) in A
    # and phi(n) outside it
    top = euler_phi(prod(primes))
    if data is None:
        subsets = [(), (top,), tuple(range(top))]
    else:
        drawn = data.draw(st.sets(st.integers(0, top), max_size=top + 1))
        subsets = [tuple(sorted(drawn | {top})), tuple(sorted(drawn - {top}))]
    for subset in subsets:
        assert pullback_matches_root_kernel(primes, subset) is True
        assert hermite_pullback_matches(primes, subset) is True


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 7), (3, 5, 7)])
def test_kernel_index_matches_the_restricted_kernel_factors(primes):
    # the kernel side's rank and factor product of the index oracle, read
    # off [I; -R], are those of the restricted kernel lattice itself
    n = prod(primes)
    top = euler_phi(n)
    assert cyclo_family._pullback_certificate(primes)[:3] == (True, True, True)
    rng = random.Random(n)
    subsets = [(), (top,), tuple(range(top)), tuple(range(top + 1))]
    subsets += [tuple(sorted(rng.sample(range(top + 1), rng.randint(1, top)))) for _ in range(12)]
    for subset in subsets:
        lattice = root_relation_lattice(primes, subset)
        factors = sparse_invariant_factors([{c: x for c, x in enumerate(row) if x} for row in lattice.h.to_rows()])
        data = CycloComplexData.build(primes, subset)
        assert kernel_rank_and_index(data) == (len(factors), prod(factors))


def test_pullback_check_fails_when_a_column_leaves_the_kernel(monkeypatch, fresh_certificate):
    # residues 1 and 2 of Z_30 share no coboundary column; swapping their
    # points moves each column through them out of the kernel, while the
    # restricted lattice on all 30 residues keeps its rank and factors: the
    # index alone cannot see the swap, containment with closure does (the
    # base columns, through residue 0, miss both residues: only the shift
    # closure sees the moved columns)
    primes, subset = (2, 3, 5), tuple(range(9))
    assert pullback_matches_root_kernel(primes, subset)

    monkeypatch.setattr(cyclo_family, "_crt_index", swapped_crt_index)
    cyclo_family._pullback_certificate.cache_clear()
    contained, closed, *_ = cyclo_family._pullback_certificate(primes)
    assert not (contained and closed)
    data = CycloComplexData.build(primes, subset)
    factors = direct_pullback_factors(primes, subset)
    assert (len(factors), prod(factors)) == kernel_rank_and_index(data)
    assert pullback_matches_root_kernel(primes, subset) is False
    assert hermite_pullback_matches(primes, subset) is False
    assert index_pullback_matches(primes, subset) is False


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 7), (3, 5, 7), (5, 7, 11)])
@pytest.mark.parametrize("mutation", [None, "swap", "flip", "double", "move"])
def test_containment_matches_the_partial_sum_oracle(monkeypatch, fresh_certificate, primes, mutation):
    # containment (the base columns, through residue 0, summed) with
    # closure under the shift equals the sum over every column, on the true
    # rows and on rows with residues 1 and 2 swapped in the CRT indices, a
    # column's sign flipped (still in the kernel, and closed up to sign), a
    # base column's entry at residue 0 doubled, or a column moved off its
    # fibre at one residue. The moved column misses residue 0, so from
    # n = 30 on containment holds and only closure sees it
    n = prod(primes)
    if mutation == "swap":
        monkeypatch.setattr(cyclo_family, "_crt_index", swapped_crt_index)
    rows = pullback_rows(primes)
    # a column through residue 1; never a base column, as 1 is a multiple of no n/p
    c = min(rows[1])
    if mutation == "flip":
        rows = [{j: -x if j == c else x for j, x in row.items()} for row in rows]
    elif mutation == "double":
        b = min(rows[0])
        rows[0] = {**rows[0], b: 2 * rows[0][b]}
    elif mutation == "move":
        # residue 2 lies outside the fibre of c: 2 and 1 differ mod every prime
        rows[2] = {**rows[2], c: rows[1][c]}
        rows[1] = {j: x for j, x in rows[1].items() if j != c}
    columns = columns_of(rows, len(oracles.top_coboundary_domain(family_colors(primes))))
    monkeypatch.setattr(cyclo_family, "_coboundary_columns", lambda colors, points: columns)
    contained, closed, *_ = cyclo_family._pullback_certificate(primes)
    assert (contained and closed) == partial_sum_containment(primes) == (mutation in (None, "flip"))
    if mutation == "double":
        assert not contained
    if mutation == "move" and n >= 30:
        assert contained and not closed


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (3, 5, 7), (5, 7, 11), (3, 5, 7, 11)])
def test_containment_sums_only_the_base_columns(primes):
    # the columns through residue 0, the only ones containment sums, are
    # the k+1 fibres {a * n/p_i} of the colors, in color order; closure
    # carries every other column to +- one of them
    n = prod(primes)
    columns = cyclo_family._coboundary_columns(family_colors(primes), cyclo_family._crt_index(primes, n))
    base = [column for column in columns if 0 in column]
    assert base == [{a * (n // p): -1 if i % 2 else 1 for a in range(p)} for i, p in enumerate(primes)]


def test_pullback_check_fails_on_a_proper_sublattice(monkeypatch, fresh_certificate):
    # every coboundary entry doubled: each column still lies in the kernel
    # and the columns are still closed under the shift, but the peel can
    # clear no odd coefficient of Phi_n and leaves a remainder, so Phi_n is
    # not shown to lie in the lattice; the Hermite comparison, whose form
    # is eliminated from the same doubled columns over the top indices
    # alone, rejects the sublattice too
    primes = (2, 3, 5)
    build = cyclo_family._coboundary_columns

    def doubled(colors, index):
        return tuple({x: 2 * e for x, e in column.items()} for column in build(colors, index))

    monkeypatch.setattr(cyclo_family, "_coboundary_columns", doubled)
    contained, closed, solved, _, remainder = cyclo_family._pullback_certificate(primes)
    assert (contained, closed, solved) == (True, True, False)
    assert remainder
    assert coefficient_vector_is_coboundary(primes) is False
    for subset in [(), (8,), (2, 6), tuple(range(9))]:
        assert pullback_matches_root_kernel(primes, subset) is False
        assert hermite_pullback_matches(primes, subset) is False
        assert index_pullback_matches(primes, subset) is False


@pytest.mark.parametrize("mutation", ["flip entry", "move", "drop", "phi"])
@pytest.mark.parametrize("primes", [(2, 3, 5), (3, 5, 7)])
def test_pullback_check_fails_under_mutation(monkeypatch, fresh_certificate, primes, mutation):
    # one entry of one column sign-flipped, one column moved off its fibre,
    # one column dropped (the rest still lie in the kernel and the peel of
    # Phi_n never uses it, but the columns are no longer closed under the
    # shift), or one coefficient of Phi_n perturbed (the peel then leaves a
    # remainder): each turns the verdict false
    top = euler_phi(prod(primes))
    rows = pullback_rows(primes)
    c = min(rows[1])
    if mutation == "flip entry":
        rows[1][c] = -rows[1][c]
    elif mutation == "move":
        rows[2][c] = rows[1].pop(c)
    elif mutation == "drop":
        # the column of color 0 through the point 0 in every other slot
        # but the last: it holds a zero after slot 0, so no peel step uses it
        dropped = oracles.top_coboundary_domain(family_colors(primes)).index((0, ((0,),) * (len(primes) - 2) + ((1,),)))
        rows = [{j: x for j, x in row.items() if j != dropped} for row in rows]
    elif mutation == "phi":
        poly = cyclotomic(prod(primes))
        perturbed = IntPoly(tuple(x + (j == 1) for j, x in enumerate(poly.coeffs)))
        monkeypatch.setattr(cyclo_family, "cyclotomic", lambda n: perturbed)
    columns = columns_of(rows, len(oracles.top_coboundary_domain(family_colors(primes))))
    monkeypatch.setattr(cyclo_family, "_coboundary_columns", lambda colors, points: columns)
    contained, closed, solved, _, remainder = cyclo_family._pullback_certificate(primes)
    assert not (contained and closed and solved)
    if mutation == "phi":
        assert (contained, closed) == (True, True) and remainder
    for subset in [(), (top,), tuple(range(top))]:
        assert pullback_matches_root_kernel(primes, subset) is False


def test_pullback_check_builds_no_dense_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the pullback check reached a dense route")

    for module, name in [
        (complexes, "coboundary_top_matrix"),
        (cyclo_family, "_dense"),
        (cyclo_family, "hermite_normal_form"),
        (cyclo_family, "_root_relation_kernel"),
        (cyclo_family, "eval_at_root"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    assert pullback_matches_root_kernel((5, 7, 11), (0, 7, 239))
    assert pullback_matches_root_kernel((5, 7, 11), (0, 7, 240))


def test_certificates_need_no_dense_lattice_routine(monkeypatch):
    # the three per-tuple verdicts read their certificates only: no dense
    # coboundary matrix, Hermite form, kernel basis or Smith form
    def forbidden(*args):
        raise AssertionError("a certificate reached a dense lattice routine")

    names = ("coboundary_top_matrix", "hermite_normal_form", "kernel_basis", "smith_normal_form")
    for name, module in list(sys.modules.items()):
        if name == "balacyc" or name.startswith("balacyc."):
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    cyclo_family._pullback_certificate.cache_clear()
    complexes._fourier_certificate.cache_clear()
    z3, z5, z7 = (FiniteAbelianGroup((p,)) for p in (3, 5, 7))
    assert pullback_matches_root_kernel((3, 5, 7), (0, 7, 48))
    assert coefficient_vector_is_coboundary((3, 5, 7))
    assert complexes.coboundary_matches_fourier((z3, z5, z7), [((0,), (1,), (2,)), ((2,), (4,), (6,))])


def test_the_engine_builds_no_point_tuple(monkeypatch, fresh_certificate):
    # inside the routes a point of the join is its index: with crt_split
    # and nested_elements refused where the engine lives, and every cache
    # that could hold a point set cleared, both certificates, the
    # coefficient coboundary, the homology tables and the presentation run
    def refuse(*args):
        raise AssertionError("the engine built a point tuple")

    for module in (complexes, cyclo_family):
        for name in ("crt_split", "nested_elements"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    complexes._fourier_certificate.cache_clear()
    complexes._point_set.cache_clear()
    assert cyclo_family._pullback_certificate((3, 5, 7))[:3] == (True, True, True)
    assert coefficient_vector_is_coboundary((5, 7, 11))
    assert verify_homology_tables((2, 3, 5, 7), (0, 3, 7, 8, 48)).match
    assert quotient_presentation((2, 3, 5), (1, 4, 7)).ok
    z22, z3, z4 = (FiniteAbelianGroup(orders) for orders in ((2, 2), (3,), (4,)))
    for colors in [(z3, FiniteAbelianGroup((5,)), FiniteAbelianGroup((7,))), (z22, z4, z3)]:
        assert complexes._fourier_certificate(colors) is True


def test_certificates_read_neither_the_remainder_stream_nor_the_power_table(monkeypatch):
    # containment is decided by the cofactor on both sides: neither
    # certificate reads z**x mod Phi_n, streamed or tabled. The only
    # power-table readers left are check (c)'s per-color matrices, each in
    # its color's own conductor; they are built before the patch
    z22, z3, z5, z7 = (FiniteAbelianGroup(orders) for orders in ((2, 2), (3,), (5,), (7,)))
    joins = [(z3, z5, z7), (z22, z3)]
    for g in {g for colors in joins for g in colors}:
        complexes.fourier_vanishing_matrix((g,))

    def refuse(n, *args):
        raise AssertionError(f"a certificate read z**x mod Phi_{n}")

    for name, module in list(sys.modules.items()):
        if name == "balacyc" or name.startswith("balacyc."):
            for attr in ("_remainders", "_power_columns"):
                if callable(getattr(module, attr, None)):
                    monkeypatch.setattr(module, attr, refuse)
    cyclo_family._pullback_certificate.cache_clear()
    complexes._fourier_certificate.cache_clear()
    assert cyclo_family._pullback_certificate((5, 7, 11))[:3] == (True, True, True)
    assert pullback_matches_root_kernel((5, 7, 11), (0, 7, 240))
    for colors in joins:
        assert complexes._fourier_certificate(colors) is True


def test_coboundary_caches_are_bounded():
    assert cyclo_family._pullback_certificate.cache_info().maxsize == 8
    assert complexes._fourier_certificate.cache_info().maxsize == 8
    # the dense matrix is a test reference only: built on each call, not kept
    assert not hasattr(complexes.coboundary_top_matrix, "cache_info")
    # the entry holds the certificate, not the columns it was built from
    contained, closed, solved, cochain, remainder = cyclo_family._pullback_certificate((2, 3, 5))
    assert (contained, closed, solved, remainder) == (True, True, True, {})
    assert len(cochain) < len(oracles.top_coboundary_domain(family_colors((2, 3, 5))))


# maxsize of each bounded cache, where it is not 8: the bound keeps one
# `sweep --seed 0` run at the misses it had unbounded
CACHE_BOUNDS = {"_tuples": 16}


@pytest.mark.parametrize(
    "cached",
    [
        cyclo_family._family_record,
        importlib.import_module("balacyc.cyclotomic")._packed_cofactor,
        oracles.top_coboundary_domain,
        complexes.fourier_vanishing_matrix,
        oracles._fourier_kernel,
        groups._tuples,
        _power_columns,
        cyclotomic,
        cofactor,
        euler_phi,
    ],
)
def test_per_n_caches_are_bounded(cached):
    assert cached.cache_info().maxsize == CACHE_BOUNDS.get(cached.__name__, 8)


# --- the certificate against the direct invariant factors ---------------------


@pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 7)])
def test_pullback_check_matches_the_direct_factors_on_every_subset(primes):
    # index_pullback_matches on every subset, its containment half, which
    # does not depend on the subset, taken once
    top = euler_phi(prod(primes))
    contained = partial_sum_containment(primes)
    assert contained
    for size in range(top + 2):
        for subset in combinations(range(top + 1), size):
            factors = direct_pullback_factors(primes, subset)
            index = kernel_rank_and_index(CycloComplexData.build(primes, subset))
            assert pullback_matches_root_kernel(primes, subset) == ((len(factors), prod(factors)) == index)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3, 5, 7), (5, 7, 11)]), st.data())
@example((3, 5, 7), None)
@example((5, 7, 11), None)
def test_pullback_check_matches_the_direct_factors_on_drawn_subsets(primes, data):
    # None stands for A empty, A = {phi(n)} and A the whole range below phi(n)
    top = euler_phi(prod(primes))
    if data is None:
        subsets = [(), (top,), tuple(range(top))]
    else:
        drawn = data.draw(st.sets(st.integers(0, top), max_size=top + 1))
        subsets = [tuple(sorted(drawn | {top})), tuple(sorted(drawn - {top}))]
    for subset in subsets:
        assert pullback_matches_root_kernel(primes, subset) is index_pullback_matches(primes, subset) is True


def test_pullback_check_matches_both_oracles_at_n1155():
    primes = (3, 5, 7, 11)
    top = euler_phi(1155)
    rng = random.Random(1155)
    drawn = [tuple(sorted(rng.sample(range(top + 1), rng.randint(1, top)))) for _ in range(2)]
    for subset in [(), (top,), tuple(range(top))] + drawn:
        assert pullback_matches_root_kernel(primes, subset) is True
        assert index_pullback_matches(primes, subset) is True
        assert hermite_pullback_matches(primes, subset) is True


# --- transform pullback --------------------------------------------------------


def test_transform_pullback_zero_and_indicator():
    g = product_group(family_colors((2, 3)))
    zero = GroupFunction.zero(g)
    assert transform_pullback_check((2, 3), zero)
    indicator = GroupFunction(g, {(1, 2): 1})
    for m in range(6):
        assert transform_pullback_check((2, 3), indicator, m)


def test_transform_pullback_random_functions():
    rng = random.Random(23)
    for primes in [(2, 3), (2, 3, 5)]:
        g = product_group(family_colors(primes))
        for _ in range(5):
            h = GroupFunction(g, {x: rng.randint(-3, 3) for x in g.elements()})
            assert transform_pullback_check(primes, h)


def test_character_sums_make_no_per_term_root_power_call(monkeypatch):
    rng = random.Random(29)
    g = product_group(family_colors((2, 3, 5)))
    h = GroupFunction(g, {x: rng.randint(-3, 3) for x in g.elements()})
    expected = fourier_transform(h)

    def refuse(n, e):
        raise AssertionError(f"root_power({n}, {e}) called")

    # the package re-exports the function cyclotomic under the module's name
    cyclotomic_module = importlib.import_module("balacyc.cyclotomic")
    monkeypatch.setattr(cyclotomic_module, "root_power", refuse)
    assert not hasattr(groups, "root_power")
    assert not hasattr(cyclo_family, "root_power")
    assert fourier_transform(h) == expected
    assert transform_pullback_check((2, 3, 5), h)
    assert transform_pullback_check((2, 3), GroupFunction(product_group(family_colors((2, 3))), {(1, 2): 4}))


def test_lattice_questions_build_no_smith_transforms(monkeypatch):
    z2, z3, z5, z7 = (FiniteAbelianGroup((p,)) for p in (2, 3, 5, 7))
    m = complexes.fourier_vanishing_matrix((z3, z5, z7))
    b = m.apply(range(m.cols))
    column = list(complexes.coboundary_top_matrix((z2, z3)).column(0))

    def refuse(m):
        raise AssertionError(f"smith_normal_form called on a {m.rows}x{m.cols} matrix")

    for name, module in list(sys.modules.items()):
        if name == "balacyc" or name.startswith("balacyc."):
            if getattr(module, "smith_normal_form", None) is smith_normal_form:
                monkeypatch.setattr(module, "smith_normal_form", refuse)
    kernel = kernel_basis(m)
    assert (kernel.rows, kernel.cols) == (105, 57)
    assert (m @ kernel).is_zero()
    assert m.apply(solve_in_lattice(m, b)) == b
    assert hermite_normal_form(m).contains(b)
    coboundary = coboundary_lattice((z2, z3), nested_elements((z2, z3)))
    assert coboundary.contains(column)
    assert not coboundary.contains([1, 0, 0, 0, 0, 0])
    # coefficients 1, -1, 1 at 0, 3, 7: gcd 1, so both cokernels are free
    report = quotient_presentation((3, 5, 7), (0, 3, 7))
    assert report.ok and report.expected == AbelianGroupStructure(2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_transform_pullback_fails_without_the_crt_twist(vec):
    # crt_unit((2, 3)) is 5. With 1 in its place the Z_6 side at m reads
    # the transform at (m mod 2, -m mod 3) instead of (m mod 2, m mod 3),
    # which differs for every h that is not even in its Z3 coordinate.
    g = product_group(family_colors((2, 3)))
    h = GroupFunction.from_vector(g, vec)
    assume(any(h((a, b)) != h((a, -b % 3)) for a, b in g.elements()))
    assert crt_unit((2, 3)) == 5
    assert transform_pullback_check((2, 3), h)
    # the unit is read once per tuple of primes, into the family record
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclo_family, "crt_unit", lambda primes: 1)
        cyclo_family._family_record.cache_clear()
        assert not transform_pullback_check((2, 3), h)
    cyclo_family._family_record.cache_clear()


def test_transform_pullback_rejects_wrong_group():
    with pytest.raises(ValueError):
        transform_pullback_check((2, 3), GroupFunction.zero(product_group(family_colors((2, 5)))), 0)


# --- coefficient coboundary and presentation ----------------------------------------


def test_coefficient_vector_is_coboundary_all_primes():
    for primes in [(2, 3), (2, 3, 5), (2, 3, 7)]:
        assert coefficient_vector_is_coboundary(primes)


def test_presentation_frozen_cases():
    report = quotient_presentation((2, 3), (0, 1, 2))
    assert report.quotient_ok
    assert str(report.ambient_quotient) == "Z^2"
    assert all(ok for _, ok in report.generator_membership)

    report = quotient_presentation((2, 3, 5), (2, 6))
    assert report.quotient_ok
    assert str(report.ambient_quotient) == "Z^2"  # both coefficients vanish
    assert all(ok for _, ok in report.generator_membership)

    report = quotient_presentation((2, 3, 5), (0,))
    assert report.quotient_ok
    assert report.ambient_quotient.is_trivial()
    assert all(ok for _, ok in report.generator_membership)

    with pytest.raises(ValueError):
        quotient_presentation((2, 3), ())


def test_presentation_rejects_a_corrupted_generator(monkeypatch):
    # the membership check must catch a wrong rewriting of an upper class:
    # shift the constant coordinate of the kernel's column for zeta_30**9 by
    # one; the cokernel never reads the lower rows of an upper column, each
    # having a unit in its own row, so only generator 9 fails
    primes, subset = (2, 3, 5), tuple(range(9))
    assert quotient_presentation(primes, subset).ok
    kernel = cyclo_family._root_relation_kernel

    def corrupted(n):
        h = kernel(n).h
        entries = list(h.entries)
        entries[(n - 1) * h.cols + (n - 1 - 9)] += 1  # row of residue 0, column of residue 9
        return HermiteForm(IntMatrix(h.rows, h.cols, tuple(entries)))

    monkeypatch.setattr(cyclo_family, "_root_relation_kernel", corrupted)
    report = quotient_presentation(primes, subset)
    assert report.quotient_ok
    assert dict(report.generator_membership)[9] is False
    assert all(ok for t, ok in report.generator_membership if t != 9)
    assert not report.ok


@pytest.mark.parametrize(
    "primes, subset",
    [
        ((2, 3), (0,)),
        ((2, 3), (0, 1, 2)),
        ((2, 3, 5), (1, 4, 7)),
        ((2, 3, 5), (0, 8)),
        ((2, 3, 7), (5, 9, 11)),
        ((2, 3, 7), (3, 12)),
        ((3, 5, 7), (7, 41)),
        ((3, 5, 7), (0, 20, 48)),
    ],
)
def test_presentation_generators_equal_the_root_power_construction(monkeypatch, primes, subset):
    # the generators read off the selected kernel are the vectors built from
    # root_power (oracles.root_power_generators), with phi(n) in A and not
    data = CycloComplexData.build(primes, subset)
    checked = []
    form = cyclo_family._coboundary_form

    class Recording:
        def __init__(self, data):
            self.form = form(data)

        def contains(self, vec):
            checked.append(list(vec))
            return self.form.contains(vec)

    monkeypatch.setattr(cyclo_family, "_coboundary_form", Recording)
    report = quotient_presentation(primes, subset)
    assert report.ok
    expected = oracles.root_power_generators(data)
    assert [t for t, _ in report.generator_membership] == [t for t, _ in expected]
    assert checked == [vec for _, vec in expected]


def test_presentation_generators_are_checked_against_the_coboundary(monkeypatch):
    # the generator vectors come from the same remainders as the kernel's
    # form, so they are checked in the pulled-back coboundary lattice: a
    # coboundary side that spans only a sublattice (every column doubled)
    # must fail them, while the quotient read from the kernel stays put
    primes, subset = (2, 3, 5), tuple(range(9))
    report = quotient_presentation(primes, subset)
    assert report.ok

    build = cyclo_family._coboundary_columns

    def doubled(colors, index):
        return tuple({x: 2 * e for x, e in column.items()} for column in build(colors, index))

    monkeypatch.setattr(cyclo_family, "_coboundary_columns", doubled)
    corrupted = quotient_presentation(primes, subset)
    assert corrupted.ambient_quotient == report.ambient_quotient
    assert corrupted.quotient_ok
    assert corrupted.generator_membership
    assert not any(ok for _, ok in corrupted.generator_membership)
    assert not corrupted.ok


def test_presentation_sweep_n6():
    for subset in bounded_subsets(range(3), 1):
        report = quotient_presentation((2, 3), subset)
        assert report.ok


def test_quotient_agrees_with_top_cohomology():
    # the quotient by the vanishing lattice is the top cohomology group
    for primes, subset in [((2, 3), (0, 2)), ((2, 3, 5), (1, 4, 7)), ((2, 3, 5), (2, 6))]:
        report = quotient_presentation(primes, subset)
        x = build_family_complex(primes, subset)
        top = len(primes) - 1
        from balacyc.complexes import reduced_cohomology

        assert report.ambient_quotient == reduced_cohomology(x, top)


# --- generator relation sanity ---------------------------------------------------


def test_upper_generator_relation_is_genuine():
    # the constructive generator vectors encode a true vanishing sum: the
    # function with 1 at t and the negated power-basis coordinates of
    # zeta_n**t below the totient evaluates to zero at the root
    from balacyc.cyclotomic import eval_at_root

    data = CycloComplexData.build((2, 3, 5), ())
    for t in data.upper:
        coords = root_power(data.n, t).coords
        values = [0] * data.n
        for j, c in enumerate(coords):
            values[j] = -c
        values[t] += 1
        assert eval_at_root(values, data.n).is_zero()
