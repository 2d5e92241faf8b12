"""Deterministic verification sweeps over subset families.

Sweep sizes are configuration: the defaults below pin the standard runs
(exhaustive at n = 6, all small subsets plus 50 seeded-random ones at
n = 30, ten seeded-random ones at n = 42). Every randomized choice is
drawn from a seeded generator, so a (command, parameters, seed) triple
reproduces byte-identical reports.
"""

from __future__ import annotations

import itertools
import random

from .complexes import coboundary_matches_fourier, nested_elements
from .cyclo_family import (
    CycloComplexData,
    coefficient_vector_is_coboundary,
    product_group_of,
    pullback_matches_root_kernel,
    quotient_presentation,
    transform_pullback_check,
    verify_homology_tables,
)
from .groups import FiniteAbelianGroup, GroupFunction

DEFAULT_SEED = 0

# (primes, exhaustive max size or None, number of random subsets)
DEFAULT_FAMILY_PLANS = (
    ((2, 3), None, 0),
    ((2, 3, 5), 2, 50),
    ((2, 3, 7), 0, 10),
)

DEFAULT_COBOUNDARY_EXHAUSTIVE = ([[2], [2]], [[2], [3]])
DEFAULT_COBOUNDARY_RANDOM = ([[2], [2], [2]], [[4], [3]], [[2, 2], [3]], [[2], [3], [5]])
DEFAULT_COBOUNDARY_RANDOM_COUNT = 50

DEFAULT_PULLBACK_PLANS = (
    ((2, 3), None, 0),
    ((2, 3, 5), -1, 20),
    ((2, 3, 7), -1, 20),
)

DEFAULT_COEFFICIENT_PRIMES = ((2, 3), (2, 3, 5), (2, 3, 7))


def bounded_subsets(universe, min_size=0, max_size=None):
    """Subsets of universe with min_size <= size <= max_size, as tuples.

    Smallest first, lexicographic in the order of universe within a size.
    Only the requested sizes are generated, so a small max_size stays cheap
    however large universe is. max_size None means no upper bound; a
    max_size below min_size selects nothing.
    """
    universe = tuple(universe)
    top = len(universe) if max_size is None else min(max_size, len(universe))
    for size in range(min_size, top + 1):
        yield from itertools.combinations(universe, size)


def random_index_subsets(totient: int, count: int, rng: random.Random, nonempty: bool):
    """Seeded random subsets of {0, ..., totient}."""
    universe = list(range(totient + 1))
    low = 1 if nonempty else 0
    out = []
    for _ in range(count):
        size = rng.randint(low, len(universe))
        out.append(tuple(sorted(rng.sample(universe, size))))
    return out


def family_subsets(primes, exhaustive_max, random_count, seed, min_size=1):
    """Subsets of {0, ..., phi(n)} for a sweep, deduplicated, sorted.

    Every subset of size min_size..exhaustive_max (every size from min_size
    when exhaustive_max is None), plus random_count seeded-random ones,
    nonempty when min_size is positive.
    """
    data = CycloComplexData.build(primes, ())
    chosen = set(bounded_subsets(range(data.totient + 1), min_size, exhaustive_max))
    rng = random.Random(seed)
    chosen.update(random_index_subsets(data.totient, random_count, rng, nonempty=min_size > 0))
    return sorted(chosen, key=lambda s: (len(s), s))


def pullback_subsets(primes, exhaustive_max, random_count, seed):
    """Subsets (empty allowed) for a lattice-pullback sweep."""
    return family_subsets(primes, exhaustive_max, random_count, seed, min_size=0)


def random_point_subsets(colors, count, rng: random.Random):
    """Seeded random subsets of the product-group point set."""
    universe = list(nested_elements(colors))
    out = []
    for _ in range(count):
        size = rng.randint(0, len(universe))
        out.append(tuple(sorted(rng.sample(universe, size))))
    return out


def run_family_sweep(primes, subsets) -> list[dict]:
    """Homology-table verification items for the given nonempty subsets."""

    def one(subset):
        report = verify_homology_tables(primes, subset)
        item = report.to_json_dict()
        item["ok"] = report.match and report.euler_poincare and report.uct
        return item

    return [one(subset) for subset in subsets]


def run_coboundary_sweep(colors, point_sets) -> list[dict]:
    """Coboundary-versus-transform lattice items over point subsets."""
    return [
        {
            "A": [[list(v) for v in a] for a in points],
            "ok": coboundary_matches_fourier(colors, points),
        }
        for points in point_sets
    ]


def run_pullback_sweep(primes, subsets) -> list[dict]:
    return [{"A": list(s), "ok": pullback_matches_root_kernel(primes, s)} for s in subsets]


def run_presentation_sweep(primes, subsets) -> list[dict]:
    def one(subset):
        report = quotient_presentation(primes, subset)
        return {
            "A": list(subset),
            "quotient": str(report.ambient_quotient),
            "ok": report.ok,
        }

    return [one(subset) for subset in subsets]


def run_transform_pullback_sweep(primes, function_count, bound, seed) -> list[dict]:
    """Seeded random functions, each checked at every residue."""
    group = product_group_of(primes)
    rng = random.Random(seed)
    items = []
    for idx in range(function_count):
        values = {x: rng.randint(-bound, bound) for x in group.elements()}
        h = GroupFunction(group, values)
        items.append({"function": idx, "ok": transform_pullback_check(primes, h)})
    return items


def run_coefficient_coboundary_sweep(prime_tuples) -> list[dict]:
    return [
        {"primes": list(primes), "ok": coefficient_vector_is_coboundary(primes)}
        for primes in prime_tuples
    ]


def default_sweep_report(seed: int = DEFAULT_SEED) -> tuple[dict, dict[str, tuple[int, int]]]:
    """The full default verification battery, as one JSON-ready report,
    and the (verified, total) counts of each of its sections.

    Each section is counted once (verified_counts); the report's "ok" is
    read off those counts, and the CLI prints them.
    """
    sections = {}

    family = []
    for primes, exhaustive, rnd in DEFAULT_FAMILY_PLANS:
        subsets = family_subsets(primes, exhaustive, rnd, seed)
        family.append({"primes": list(primes), "items": run_family_sweep(primes, subsets)})
    sections["homology_tables"] = family

    cob = []
    for raw in DEFAULT_COBOUNDARY_EXHAUSTIVE:
        colors = tuple(FiniteAbelianGroup(tuple(orders)) for orders in raw)
        subsets = bounded_subsets(nested_elements(colors))
        cob.append({"groups": raw, "items": run_coboundary_sweep(colors, subsets)})
    rng = random.Random(seed)
    for raw in DEFAULT_COBOUNDARY_RANDOM:
        colors = tuple(FiniteAbelianGroup(tuple(orders)) for orders in raw)
        subsets = random_point_subsets(colors, DEFAULT_COBOUNDARY_RANDOM_COUNT, rng)
        cob.append({"groups": raw, "items": run_coboundary_sweep(colors, subsets)})
    sections["coboundary_lattices"] = cob

    pull = []
    for primes, exhaustive, rnd in DEFAULT_PULLBACK_PLANS:
        subsets = pullback_subsets(primes, exhaustive, rnd, seed)
        pull.append({"primes": list(primes), "items": run_pullback_sweep(primes, subsets)})
    sections["pullback_lattices"] = pull

    sections["transform_pullback"] = [
        {"primes": [2, 3], "items": run_transform_pullback_sweep((2, 3), 20, 3, seed)},
        {"primes": [2, 3, 5], "items": run_transform_pullback_sweep((2, 3, 5), 20, 3, seed)},
    ]

    sections["presentations"] = [
        {
            "primes": [2, 3],
            "items": run_presentation_sweep((2, 3), family_subsets((2, 3), None, 0, seed)),
        },
        {
            "primes": [2, 3, 5],
            "items": run_presentation_sweep(
                (2, 3, 5), family_subsets((2, 3, 5), 1, 5, seed)
            ),
        },
    ]

    sections["coefficient_coboundary"] = run_coefficient_coboundary_sweep(
        DEFAULT_COEFFICIENT_PRIMES
    )

    counts = {name: verified_counts(section) for name, section in sections.items()}
    ok = all(verified == total for verified, total in counts.values())
    report = {"schema": 1, "command": "sweep", "seed": seed, "ok": ok, "sections": sections}
    return report, counts


def verified_counts(section) -> tuple[int, int]:
    """(verified, total) of a report section's items.

    Every "ok" sits at item level: a section is a list of groups, each
    with its "items", or, like coefficient_coboundary, the list of items
    itself.
    """
    items = [item for group in section for item in group.get("items", (group,))]
    return sum(bool(item["ok"]) for item in items), len(items)
