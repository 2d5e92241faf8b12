"""Finite abelian groups, their characters, and the exact Fourier transform.

A group is a product of cyclic factors; elements and characters are both
residue tuples, paired through exp(2*pi*i*x*y/m) on each factor. All
transform values live in Z[zeta_N] for the single conductor N = exponent
of the group, so vanishing is an exact coordinate test.

Every character value is a power of zeta_N: chi(x) = zeta_N**e with
e = sum_i chi_i * x_i * N / m_i mod N. A character sum
sum_x f(x) * chi(x) is therefore first collected in the group ring
Z[Z_N]: f(x) is added into bucket e, and the N buckets are reduced to
Z[zeta_N] once, by eval_at_root (phi(N) column sums over the power
table). The exponents of one character at every element come as one
exponent row (_exponent_row), built slot by slot from chi_i * N / m_i in
O(|G|), not one element at a time. The per-element pairing and character
value, Fourier inversion and the transform's support are the test
oracles in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from .cyclotomic import CycInt, eval_at_root


@lru_cache(maxsize=16)
def _tuples(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(*(range(m) for m in orders)))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_m0 x ... x Z_m(r-1).

    >>> G = FiniteAbelianGroup((2, 3))
    >>> G.order, G.exponent
    (6, 6)
    >>> G.elements()[:3]
    ((0, 0), (0, 1), (0, 2))
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        if any(m < 1 for m in self.orders):
            raise ValueError("cyclic orders must be positive")

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All elements in lexicographic coordinate order."""
        return _tuples(self.orders)

    def characters(self) -> tuple[tuple[int, ...], ...]:
        """All characters, indexed by exponent tuples, same order as elements."""
        return _tuples(self.orders)

    def contains(self, x) -> bool:
        return len(x) == len(self.orders) and all(0 <= xi < m for xi, m in zip(x, self.orders))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % m for a, m in zip(x, self.orders))

    def to_json(self) -> list[int]:
        return list(self.orders)


def product_group(colors) -> FiniteAbelianGroup:
    """The direct product of the given groups, factors concatenated."""
    return FiniteAbelianGroup(tuple(m for g in colors for m in g.orders))


def positive_dual_block(colors: tuple[FiniteAbelianGroup, ...]) -> tuple[tuple[int, ...], ...]:
    """Characters of the product that are nontrivial in every factor slot.

    Returned in lexicographic order; there are prod(|G_i| - 1) of them.

    >>> z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    >>> positive_dual_block((z2, z3))
    ((1, 1), (1, 2))
    """
    per_color = []
    for g in colors:
        zero = (0,) * len(g.orders)
        per_color.append(tuple(chi for chi in g.characters() if chi != zero))
    return tuple(
        tuple(x for part in combo for x in part) for combo in itertools.product(*per_color)
    )


@dataclass(frozen=True)
class GroupFunction:
    """Integer-valued function on a group, stored by its nonzero values."""

    group: FiniteAbelianGroup
    values: dict

    def __post_init__(self) -> None:
        cleaned = {}
        for x, v in self.values.items():
            x = tuple(x)
            if not self.group.contains(x):
                raise ValueError(f"support point {x} is outside the group")
            if v:
                cleaned[x] = v
        object.__setattr__(self, "values", cleaned)

    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> GroupFunction:
        return cls(group, {})

    @classmethod
    def from_vector(cls, group: FiniteAbelianGroup, vec) -> GroupFunction:
        vec = list(vec)
        els = group.elements()
        if len(vec) != len(els):
            raise ValueError("vector length does not match group order")
        return cls(group, dict(zip(els, vec)))

    def __call__(self, x) -> int:
        return self.values.get(tuple(x), 0)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.values))

    def is_zero(self) -> bool:
        return not self.values

    def as_vector(self) -> tuple[int, ...]:
        return tuple(self.values.get(x, 0) for x in self.group.elements())


def _exponent_row(g: FiniteAbelianGroup, chi) -> list[int]:
    """The e with chi(x) = zeta_N**e for every x in g.elements(), in that
    order, N the exponent of g.

    The exponent is sum_i chi_i * x_i * N / m_i mod N, so the row is grown
    one slot at a time: each entry of the row so far is followed by its
    m_i successors in steps of chi_i * N / m_i, which is the lexicographic
    order of the elements.

    >>> _exponent_row(FiniteAbelianGroup((2, 3)), (1, 1))
    [0, 2, 4, 3, 5, 1]
    """
    n = g.exponent
    row = [0]
    for a, m in zip(chi, g.orders):
        step = a * (n // m)
        row = [(e + step * xi) % n for e in row for xi in range(m)]
    return row


def fourier_transform(f: GroupFunction) -> dict[tuple[int, ...], CycInt]:
    """Exact character sums sum_x f(x) chi(x) for every character chi.

    For each chi the dense value vector of f is added into N buckets along
    chi's exponent row (_exponent_row): an element of the group ring
    Z[Z_N], reduced to Z[zeta_N] by one eval_at_root call. One row of |G|
    exponents is alive at a time; no |G| x |G| table is kept.

    >>> G = FiniteAbelianGroup((3,))
    >>> hat = fourier_transform(GroupFunction(G, {(0,): 1, (1,): 1, (2,): 1}))
    >>> hat[(0,)].coords, hat[(1,)].is_zero()
    ((3, 0), True)
    """
    g = f.group
    n = g.exponent
    vec = f.as_vector()
    out = {}
    for chi in g.characters():
        buckets = [0] * n
        for e, v in zip(_exponent_row(g, chi), vec):
            buckets[e] += v
        out[chi] = eval_at_root(buckets, n)
    return out
