"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every randomized choice uses ACCEPTANCE_SEED, so the suite is
reproducible bit for bit. Runtime limits are asserted where stated.
"""

import itertools
import random
import time
from functools import lru_cache

from oracles import boundary_cohomology_profile, boundary_homology_profile

from balacyc.complexes import (
    boundary_matrix,
    build_complex,
    coboundary_matches_fourier,
    coboundary_top_matrix,
    cohomology_profile,
    homology_profile,
    nested_elements,
    reduced_homology,
    uct_consistent,
)
from balacyc.cyclo_family import (
    CycloComplexData,
    build_family_complex,
    coefficient_vector_is_coboundary,
    product_group_of,
    pullback_matches_root_kernel,
    transform_pullback_check,
    verify_homology_tables,
)
from balacyc.cyclotomic import IntPoly, cyclotomic, divisors, eval_at_root, euler_phi, xn_minus_1
from balacyc.groups import FiniteAbelianGroup, GroupFunction, inversion_check, product_group
from balacyc.intlinalg import (
    AbelianGroupStructure,
    determinant,
    hermite_normal_form,
    smith_normal_form,
    sparse_invariant_factors,
)
from balacyc.sweeps import bounded_subsets, random_index_subsets, random_point_subsets

ACCEPTANCE_SEED = 20260808

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z22 = FiniteAbelianGroup((2, 2))

WEDGE_COLOR_SETS = [
    (Z2, Z3),
    (Z2, Z2, Z2),
    (Z2, Z3, Z5),
    (Z4, Z3),
    (Z22, Z3),
]

# complexes produced while running criteria 2-6, re-checked by criterion 9
_COMPLEXES = {}


def _remember(x):
    _COMPLEXES[(x.colors, x.top_cells())] = x
    return x


def _report(number, name, ok, elapsed, limit=None):
    budget = f" (limit {limit:.0f}s)" if limit is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}: {elapsed:.2f}s{budget}")


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_cyclotomic_product_identity():
    start = time.perf_counter()
    ok = True
    for n in range(1, 301):
        product = IntPoly((1,))
        for d in divisors(n):
            product = product * cyclotomic(d)
        ok = ok and product == xn_minus_1(n)
        ok = ok and cyclotomic(n).is_monic() and cyclotomic(n).degree == euler_phi(n)
        ok = ok and eval_at_root(cyclotomic(n), n).is_zero()
    ok = ok and cyclotomic(105).coeffs[7] == -2
    elapsed = time.perf_counter() - start
    _report(1, "cyclotomic product identity, n <= 300", ok, elapsed, 5)
    assert ok
    assert elapsed < 5


# --- criterion 2 -------------------------------------------------------------


@lru_cache(maxsize=None)
def _run_wedge_homology():
    start = time.perf_counter()
    ok = True
    for colors in WEDGE_COLOR_SETS:
        x = _remember(build_complex(colors, nested_elements(colors)))
        k = x.top_dim
        expected = 1
        for g in colors:
            expected *= g.order - 1
        top = reduced_homology(x, k)
        ok = ok and top == AbelianGroupStructure(expected)
        for i in range(k):
            ok = ok and reduced_homology(x, i).is_trivial()
    return ok, time.perf_counter() - start


def test_criterion_2_wedge_homology():
    ok, elapsed = _run_wedge_homology()
    _report(2, "wedge homology of the full join", ok, elapsed, 10)
    assert ok
    assert elapsed < 10


# --- criterion 3 -------------------------------------------------------------


@lru_cache(maxsize=None)
def _run_lattice_sweep():
    start = time.perf_counter()
    ok = True
    for colors in [(Z2, Z2), (Z2, Z3)]:
        points = list(nested_elements(colors))
        for size in range(len(points) + 1):
            for tops in itertools.combinations(points, size):
                ok = ok and coboundary_matches_fourier(colors, tops)
                _remember(build_complex(colors, tops))
    rng = random.Random(ACCEPTANCE_SEED)
    for colors in [(Z2, Z2, Z2), (Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)]:
        for tops in random_point_subsets(colors, 50, rng):
            ok = ok and coboundary_matches_fourier(colors, tops)
            _remember(build_complex(colors, tops))
    return ok, time.perf_counter() - start


def test_criterion_3_coboundary_lattice_sweep():
    ok, elapsed = _run_lattice_sweep()
    _report(3, "coboundary lattice == transform-vanishing lattice", ok, elapsed, 60)
    assert ok
    assert elapsed < 60


# --- criterion 4 -------------------------------------------------------------


@lru_cache(maxsize=None)
def _run_single_index_tables():
    start = time.perf_counter()
    ok = True
    for primes in [(2, 3), (2, 3, 5)]:
        data = CycloComplexData.build(primes, ())
        k = len(primes) - 1
        for j in range(data.totient + 1):
            c = data.coeffs[j]
            x = _remember(build_family_complex(primes, (j,)))
            for i in range(k + 1):
                computed = reduced_homology(x, i)
                if i == k - 1:
                    expected = AbelianGroupStructure.from_parts(0, (c,))
                elif i == k:
                    expected = AbelianGroupStructure.from_parts(1 if c == 0 else 0)
                else:
                    expected = AbelianGroupStructure.from_parts(0)
                ok = ok and computed == expected
    return ok, time.perf_counter() - start


def test_criterion_4_single_coefficient_homology():
    ok, elapsed = _run_single_index_tables()
    _report(4, "single-index homology against the coefficient table", ok, elapsed, 10)
    assert ok
    assert elapsed < 10


# --- criterion 5 -------------------------------------------------------------


def _criterion_5_subsets():
    plans = []
    plans.append(((2, 3), list(bounded_subsets(range(3), 1))))
    small = list(bounded_subsets(range(9), 1, 2))
    rng = random.Random(ACCEPTANCE_SEED)
    plans.append(((2, 3, 5), small + random_index_subsets(8, 50, rng, nonempty=True)))
    rng42 = random.Random(ACCEPTANCE_SEED + 1)
    plans.append(((2, 3, 7), random_index_subsets(12, 10, rng42, nonempty=True)))
    return plans


@lru_cache(maxsize=None)
def _run_subset_tables():
    start = time.perf_counter()
    ok = True
    for primes, subsets in _criterion_5_subsets():
        for subset in subsets:
            report = verify_homology_tables(primes, subset)
            ok = ok and report.match and report.euler_poincare and report.uct
            _remember(build_family_complex(primes, subset))
    return ok, time.perf_counter() - start


def test_criterion_5_subset_homology_tables():
    ok, elapsed = _run_subset_tables()
    _report(5, "subset homology and cohomology tables", ok, elapsed, 120)
    assert ok
    assert elapsed < 120


# --- criterion 6 -------------------------------------------------------------


@lru_cache(maxsize=None)
def _run_pullback_lattices():
    start = time.perf_counter()
    ok = True
    for subset in bounded_subsets(range(3)):
        ok = ok and pullback_matches_root_kernel((2, 3), subset)
        _remember(build_family_complex((2, 3), subset))
    rng = random.Random(ACCEPTANCE_SEED)
    for primes, totient in [((2, 3, 5), 8), ((2, 3, 7), 12)]:
        for subset in random_index_subsets(totient, 20, rng, nonempty=False):
            ok = ok and pullback_matches_root_kernel(primes, subset)
            _remember(build_family_complex(primes, subset))
    return ok, time.perf_counter() - start


def test_criterion_6_pullback_lattice():
    ok, elapsed = _run_pullback_lattices()
    _report(6, "CRT pullback of the coboundary lattice", ok, elapsed, 60)
    assert ok
    assert elapsed < 60


# --- criterion 7 -------------------------------------------------------------


def test_criterion_7_transform_pullback_identity():
    start = time.perf_counter()
    ok = True
    rng = random.Random(ACCEPTANCE_SEED)
    for primes in [(2, 3), (2, 3, 5)]:
        group = product_group_of(primes)
        for _ in range(20):
            h = GroupFunction(group, {x: rng.randint(-5, 5) for x in group.elements()})
            # every residue is checked, and the unit permutation property
            # is part of the check itself
            ok = ok and transform_pullback_check(primes, h)
    elapsed = time.perf_counter() - start
    _report(7, "transform of the CRT pullback at twisted residues", ok, elapsed, 10)
    assert ok
    assert elapsed < 10


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_coefficient_vector_coboundary():
    start = time.perf_counter()
    ok = all(
        coefficient_vector_is_coboundary(primes)
        for primes in [(2, 3), (2, 3, 5), (2, 3, 7)]
    )
    elapsed = time.perf_counter() - start
    _report(8, "truncated coefficient vector is a coboundary", ok, elapsed, 10)
    assert ok
    assert elapsed < 10


# --- criterion 9 -------------------------------------------------------------


def _registry():
    """Every complex from criteria 2-6."""
    _run_wedge_homology()
    _run_lattice_sweep()
    _run_single_index_tables()
    _run_subset_tables()
    _run_pullback_lattices()
    return list(_COMPLEXES.values())


def test_criterion_9_foundational_properties():
    _registry()

    start = time.perf_counter()
    ok = True

    matrices = set()
    for x in _COMPLEXES.values():
        for i in range(x.top_dim + 1):
            matrices.add(boundary_matrix(x, i))
        for i in range(x.top_dim):
            di = boundary_matrix(x, i)
            dnext = boundary_matrix(x, i + 1)
            ok = ok and (di @ dnext).is_zero()
        ok = ok and uct_consistent(x)
    for colors in [(Z2, Z2), (Z2, Z3), (Z2, Z2, Z2), (Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)]:
        matrices.add(coboundary_top_matrix(colors))

    for m in matrices:
        s = smith_normal_form(m)
        ok = ok and (s.u @ m @ s.v) == s.d
        ok = ok and abs(determinant(s.u)) == 1 and abs(determinant(s.v)) == 1
        h = hermite_normal_form(m)
        ok = ok and hermite_normal_form(h.h) == h

    rng = random.Random(ACCEPTANCE_SEED)
    for colors in [(Z2, Z3), (Z2, Z2, Z2), (Z4, Z3), (Z22, Z3), (Z2, Z3, Z5)]:
        group = product_group(colors)
        for _ in range(3):
            f = GroupFunction(group, {x: rng.randint(-5, 5) for x in group.elements()})
            ok = ok and inversion_check(f)

    elapsed = time.perf_counter() - start
    _report(9, "boundary, inversion, normal-form and UCT suites", ok, elapsed)
    assert ok
    assert len(_COMPLEXES) > 200


def test_criterion_9_sparse_factors_match_dense_smith():
    complexes = _registry()
    start = time.perf_counter()
    ok = True
    for x in complexes:
        for i in range(x.top_dim + 1):
            d = boundary_matrix(x, i)
            for m in (d, d.transpose()):
                rows = [{j: e for j, e in enumerate(m.row(r)) if e} for r in range(m.rows)]
                ok = ok and sparse_invariant_factors(rows) == smith_normal_form(m).invariant_factors
    elapsed = time.perf_counter() - start
    _report(9, "sparse invariant factors == dense Smith on every boundary and coboundary", ok, elapsed)
    assert ok
    assert len(complexes) > 200


def test_criterion_9_cycle_route_matches_boundary_route():
    complexes = _registry()
    start = time.perf_counter()
    ok = True
    for x in complexes:
        y = build_complex(x.colors, x.top_cells())
        ok = ok and homology_profile(x) == boundary_homology_profile(y)
        ok = ok and cohomology_profile(x) == boundary_cohomology_profile(y)
    elapsed = time.perf_counter() - start
    _report(9, "(co)homology from the join's cycles == from every boundary map", ok, elapsed)
    assert ok
    assert len(complexes) > 200


def test_criterion_9_reduced_euler_characteristic():
    # independent of every elimination: the alternating sum of the Betti
    # numbers equals the alternating sum of the face counts, the empty
    # face counted in dimension -1
    complexes = _registry()
    start = time.perf_counter()
    ok = True
    for x in complexes:
        betti = sum((-1) ** i * h.free_rank for i, h in homology_profile(x).items())
        faces = sum((-1) ** i * f for i, f in enumerate(x.f_vector())) - 1
        ok = ok and betti == faces
    elapsed = time.perf_counter() - start
    _report(9, "reduced Euler characteristic from the f-vector", ok, elapsed)
    assert ok
    assert len(complexes) > 200
