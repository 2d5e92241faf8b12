"""Workloads: seeded inputs, and how one item is run and graded.

Inputs come from the benchmark's own RNG, never from
``balacyc.sweeps.random_index_subsets`` or ``random_point_subsets``, so a
rewrite of those helpers cannot silently change a workload. This module
imports balacyc only inside ``run_item``, which runs in a child process.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import prod

# Per workload: (item kind, parameters, items per round). A round is one
# fresh process (homology, lattice) or a series of fresh processes (sweep).
PLANS = {
    "homology": (("homology", (2, 3, 5, 7), 6), ("homology", (2, 3, 5, 11), 1)),
    "lattice": (("pullback", (5, 7, 11), 12), ("coboundary", (3, 5, 7), 6)),
    "sweep": (("sweep", (), 4),),
}

# The same shapes on tiny inputs (n = 6 / 30), for the self-checks.
QUICK_PLANS = {
    "homology": (("homology", (2, 3), 3), ("homology", (2, 3, 5), 3)),
    "lattice": (("pullback", (2, 3, 5), 3), ("coboundary", (2, 3), 3)),
    "sweep": (("sweep", (), 1),),
}

# Seconds one round takes on the reference machine (see README). A run
# does round(--seconds / ROUND_SECONDS) rounds, so both sides of a
# comparison measure the same work and pool the same number of samples.
ROUND_SECONDS = {"homology": 5.0, "lattice": 11.0, "sweep": 6.0}

# Sweep seeds are drawn from range(SWEEP_SEEDS); sweep_digests.json holds
# the sha256 of the report for each of them.
SWEEP_SEEDS = 64


def _stratified_sizes(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """One size from each of `count` equal strata of [low, high].

    Stratifying keeps the total work of a round close across seeds while
    every size range stays covered.
    """
    span = high - low + 1
    sizes = []
    for i in range(count):
        start = i * span // count
        stop = max((i + 1) * span // count, start + 1)
        sizes.append(low + rng.randrange(start, stop))
    return sizes


def _points(orders) -> list:
    """Points of Z_p0 x Z_p1 x ... as per-color 1-tuples, in lex order."""
    return [tuple((x,) for x in combo) for combo in itertools.product(*(range(p) for p in orders))]


def round_inputs(workload: str, seed: int, round_index: int, quick: bool = False) -> list:
    """The items of one round: [kind, parameters, input] lists, JSON-ready."""
    rng = random.Random(f"balacyc-bench:{workload}:{seed}:{round_index}")
    items = []
    for kind, params, count in (QUICK_PLANS if quick else PLANS)[workload]:
        group = []
        if kind == "sweep":
            group = [[kind, [], s] for s in rng.sample(range(SWEEP_SEEDS), count)]
        elif kind == "coboundary":
            universe = _points(params)
            for size in _stratified_sizes(rng, 0, len(universe), count):
                chosen = sorted(rng.sample(universe, size))
                group.append([kind, list(params), [[list(v) for v in pt] for pt in chosen]])
        else:
            totient = prod(p - 1 for p in params)  # distinct primes
            low = 1 if kind == "homology" else 0
            for size in _stratified_sizes(rng, low, totient + 1, count):
                group.append([kind, list(params), sorted(rng.sample(range(totient + 1), size))])
        rng.shuffle(group)
        items.extend(group)
    return items


def inputs_digest(rounds) -> str:
    text = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_item(balacyc, kind: str, params, value) -> bool:
    """Run one in-process item; True exactly when its verdict passes.

    Functions are looked up on the module at call time so that a tracer
    rebinding them is seen.
    """
    if kind == "homology":
        report = balacyc.cyclo_family.verify_homology_tables(tuple(params), tuple(value))
        return report.match is True and report.euler_poincare is True and report.uct is True
    if kind == "pullback":
        return balacyc.cyclo_family.pullback_matches_root_kernel(tuple(params), tuple(value)) is True
    if kind == "coboundary":
        colors = tuple(balacyc.groups.FiniteAbelianGroup((p,)) for p in params)
        points = tuple(tuple(tuple(v) for v in pt) for pt in value)
        return balacyc.complexes.coboundary_matches_fourier(colors, points) is True
    raise ValueError(f"unknown item kind {kind!r}")
