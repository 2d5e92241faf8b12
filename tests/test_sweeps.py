"""Sweep determinism and subset generation."""

import json

import pytest
from oracles import walked_verified_counts

from balacyc import sweeps
from balacyc.sweeps import (
    bounded_subsets,
    default_sweep_report,
    family_subsets,
    pullback_subsets,
    random_index_subsets,
    run_family_sweep,
    run_transform_pullback_sweep,
)

import random


def test_random_subsets_are_seed_determined():
    a = random_index_subsets(8, 20, random.Random(42), nonempty=True)
    b = random_index_subsets(8, 20, random.Random(42), nonempty=True)
    assert a == b
    assert all(s for s in a)
    c = random_index_subsets(8, 20, random.Random(43), nonempty=True)
    assert a != c


def test_family_subsets_cover_required_cases():
    subsets = family_subsets((2, 3, 5), 2, 10, 7)
    small = [s for s in subsets if len(s) <= 2]
    assert len(small) >= 9 + 36  # all singletons and pairs of {0..8}
    drawn = random_index_subsets(8, 10, random.Random(7), nonempty=True)
    assert set(drawn) <= set(subsets)


def test_pullback_subsets_include_empty():
    subsets = pullback_subsets((2, 3), None, 0, 0)
    assert () in subsets
    assert len(subsets) == 8


@pytest.mark.parametrize(
    "min_size, max_size, expected",
    [
        (0, None, [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
        (1, None, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
        (1, 7, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
        (0, 1, [(), (0,), (1,), (2,)]),
        (1, 0, []),
        (0, -1, []),
    ],
)
def test_bounded_subsets_sizes_and_order(min_size, max_size, expected):
    assert list(bounded_subsets(range(3), min_size, max_size)) == expected


def test_family_subsets_singletons_of_a_large_universe():
    # phi(105) = 48: 2^49 index subsets in all, 49 singletons
    assert family_subsets((3, 5, 7), 1, 0, 0) == [(i,) for i in range(49)]


def test_pullback_subsets_empty_only_of_a_large_universe():
    assert pullback_subsets((3, 5, 7), 0, 0, 0) == [()]


def test_family_sweep_reports_are_reproducible():
    subsets = family_subsets((2, 3), None, 0, 0)
    once = json.dumps(run_family_sweep((2, 3), subsets), sort_keys=True)
    twice = json.dumps(run_family_sweep((2, 3), subsets), sort_keys=True)
    assert once == twice


def test_transform_sweep_items():
    items = run_transform_pullback_sweep((2, 3), 5, 3, 11)
    assert [i["function"] for i in items] == list(range(5))
    assert all(i["ok"] for i in items)


@pytest.mark.parametrize("seed, failing", [(0, False), (1, False), (2, False), (3, False), (0, True)])
def test_verified_counts_match_the_walked_counts(monkeypatch, seed, failing):
    # the per-section item counts equal a walk over every node of the
    # report, also with one failing coefficient-coboundary item
    if failing:
        real = sweeps.run_coefficient_coboundary_sweep

        def one_failing(prime_tuples):
            items = real(prime_tuples)
            items[0]["ok"] = False
            return items

        monkeypatch.setattr(sweeps, "run_coefficient_coboundary_sweep", one_failing)
    report, counts = default_sweep_report(seed)
    assert counts == {name: walked_verified_counts(section) for name, section in report["sections"].items()}
    assert report["ok"] is not failing
    assert (counts["coefficient_coboundary"] == (2, 3)) is failing
