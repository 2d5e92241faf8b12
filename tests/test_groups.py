"""Characters, orthogonality, and the exact Fourier transform."""

import random
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import termwise_fourier_transform, termwise_inversion_check

from balacyc import groups
from balacyc.cyclotomic import CycInt, cyclotomic, root_power
from balacyc.groups import (
    FiniteAbelianGroup,
    GroupFunction,
    fourier_support,
    fourier_transform,
    inversion_check,
    positive_dual_block,
    product_group,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z5 = FiniteAbelianGroup((5,))

TEST_GROUPS = [
    FiniteAbelianGroup((2,)),
    FiniteAbelianGroup((5,)),
    FiniteAbelianGroup((2, 3)),
    FiniteAbelianGroup((4, 3)),
    FiniteAbelianGroup((2, 2, 3)),
    FiniteAbelianGroup((6, 10)),
]

# Groups on which the bucketed sums are compared with the term-by-term ones.
DIFFERENTIAL_GROUPS = [
    FiniteAbelianGroup((2, 2)),
    FiniteAbelianGroup((4, 3)),
    FiniteAbelianGroup((9,)),
    FiniteAbelianGroup((2, 3, 5)),
]


def test_enumeration_counts_and_order():
    assert FiniteAbelianGroup((2,)).elements() == ((0,), (1,))
    g = FiniteAbelianGroup((2, 3))
    assert len(g.elements()) == 6
    assert len(g.characters()) == 6
    assert g.elements() == tuple(sorted(g.elements()))
    trivial = FiniteAbelianGroup(())
    assert trivial.elements() == ((),)
    assert trivial.characters() == ((),)
    assert trivial.order == 1 and trivial.exponent == 1


def test_group_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    assert not FiniteAbelianGroup((2, 3)).contains((2, 0))


def test_char_value_frozen():
    g = FiniteAbelianGroup((2, 3))
    one = CycInt.one(g.exponent)
    for x in g.elements():
        assert g.char_value((0, 0), x) == one
    assert FiniteAbelianGroup((2,)).char_value((1,), (1,)) == CycInt(2, (-1,))
    assert FiniteAbelianGroup((3,)).char_value((1,), (2,)) == root_power(3, 2)


@settings(max_examples=50)
@given(st.sampled_from(TEST_GROUPS), st.data())
def test_char_value_multiplicative(g, data):
    pick = lambda: data.draw(st.sampled_from(g.elements()))
    chi, x, y = pick(), pick(), pick()
    assert g.char_value(chi, g.add(x, y)) == g.char_value(chi, x) * g.char_value(chi, y)


def test_orthogonality_exact():
    for g in TEST_GROUPS:
        assert g.order <= 60
        n = g.exponent
        for chi in g.characters():
            total = CycInt.zero(n)
            for x in g.elements():
                total = total + g.char_value(chi, x)
            if any(chi):
                assert total.is_zero()
            else:
                assert total == CycInt.from_int(n, g.order)


def test_transform_frozen_examples():
    g = FiniteAbelianGroup((3,))
    delta = GroupFunction(g, {(0,): 1})
    assert all(v == CycInt.one(3) for v in fourier_transform(delta).values())
    const = GroupFunction(g, {x: 1 for x in g.elements()})
    hat = fourier_transform(const)
    assert hat[(0,)] == CycInt.from_int(3, 3)
    assert hat[(1,)].is_zero() and hat[(2,)].is_zero()
    g2 = FiniteAbelianGroup((2,))
    hat2 = fourier_transform(GroupFunction(g2, {(1,): 1}))
    assert hat2[(0,)] == CycInt.one(2)
    assert hat2[(1,)] == CycInt(2, (-1,))


@settings(max_examples=30)
@given(st.sampled_from(TEST_GROUPS[:4]), st.integers(0, 2**32))
def test_transform_linearity(g, seed):
    rng = random.Random(seed)
    f1 = GroupFunction(g, {x: rng.randint(-5, 5) for x in g.elements()})
    f2 = GroupFunction(g, {x: rng.randint(-5, 5) for x in g.elements()})
    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
    combo = GroupFunction(g, {x: a * f1(x) + b * f2(x) for x in g.elements()})
    h1, h2, hc = fourier_transform(f1), fourier_transform(f2), fourier_transform(combo)
    for chi in g.characters():
        assert hc[chi] == a * h1[chi] + b * h2[chi]


def test_inversion_on_randoms():
    rng = random.Random(20260808)
    for g in [FiniteAbelianGroup((2, 3)), FiniteAbelianGroup((5,)), FiniteAbelianGroup((4, 3))]:
        for _ in range(100):
            f = GroupFunction(g, {x: rng.randint(-5, 5) for x in g.elements()})
            assert inversion_check(f)
    assert inversion_check(GroupFunction.zero(FiniteAbelianGroup((2, 2))))
    g5 = FiniteAbelianGroup((5,))
    for x in g5.elements():
        assert inversion_check(GroupFunction(g5, {x: 1}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_GROUPS), st.data())
def test_bucketed_sums_match_termwise(g, data):
    vec = data.draw(st.lists(st.integers(-4, 4), min_size=g.order, max_size=g.order))
    f = GroupFunction.from_vector(g, vec)
    assert fourier_transform(f) == termwise_fourier_transform(f)
    assert inversion_check(f) == termwise_inversion_check(f)


# Orders of small groups drawn by hypothesis, trivial factors and the
# empty product included.
small_orders = st.lists(st.integers(1, 6), max_size=3).map(tuple).filter(lambda o: prod(o) <= 36)


@st.composite
def group_functions(draw):
    g = FiniteAbelianGroup(draw(small_orders))
    entry = st.one_of(st.integers(-5, 5), st.integers(-(2**65), 2**65))
    return GroupFunction.from_vector(g, draw(st.lists(entry, min_size=g.order, max_size=g.order)))


@settings(max_examples=60, deadline=None)
@given(group_functions())
@example(GroupFunction(FiniteAbelianGroup((2, 2)), {(0, 1): 3, (1, 1): -2}))
@example(GroupFunction(FiniteAbelianGroup((4, 2)), {(3, 1): 1, (2, 0): 5, (1, 1): -4}))
@example(GroupFunction(FiniteAbelianGroup((3, 3)), {(1, 2): 2, (2, 2): -1, (0, 0): 7}))
def test_exponent_row_sums_match_termwise_on_drawn_groups(f):
    assert fourier_transform(f) == termwise_fourier_transform(f)
    assert inversion_check(f) and termwise_inversion_check(f)


@settings(max_examples=40, deadline=None)
@given(small_orders, st.data())
def test_exponent_row_is_the_pairing_at_every_element(orders, data):
    g = FiniteAbelianGroup(orders)
    chi = data.draw(st.sampled_from(g.characters()))
    assert groups._exponent_row(g, chi) == [g.pairing_exponent(chi, x) for x in g.elements()]


@pytest.mark.parametrize("g", DIFFERENTIAL_GROUPS)
def test_bucketed_sums_of_the_zero_function(g):
    f = GroupFunction.zero(g)
    hat = fourier_transform(f)
    assert hat == termwise_fourier_transform(f)
    assert all(value == CycInt.zero(g.exponent) for value in hat.values())
    assert inversion_check(f) and termwise_inversion_check(f)


def test_inversion_check_rejects_a_corrupted_transform(monkeypatch):
    g = FiniteAbelianGroup((4, 3))
    f = GroupFunction(g, {(1, 2): 3, (3, 0): -1})
    real = groups.fourier_transform

    def corrupted(func):
        hat = real(func)
        hat[(1, 1)] = hat[(1, 1)] + CycInt.one(g.exponent)
        return hat

    monkeypatch.setattr(groups, "fourier_transform", corrupted)
    assert not inversion_check(f)


@settings(max_examples=40)
@given(st.sampled_from(TEST_GROUPS[:4]), st.integers(0, 2**32))
def test_support_empty_iff_zero(g, seed):
    rng = random.Random(seed)
    f = GroupFunction(g, {x: rng.randint(-3, 3) for x in g.elements()})
    assert (len(fourier_support(f)) == 0) == f.is_zero()
    assert fourier_support(GroupFunction.zero(g)) == set()
    delta = GroupFunction(g, {g.elements()[0]: 1})
    assert fourier_support(delta) == set(g.characters())


def test_positive_dual_block_sizes():
    assert len(positive_dual_block((Z2, Z3))) == 2
    assert len(positive_dual_block((Z2, Z2))) == 1
    assert len(positive_dual_block((Z2, Z3, Z5))) == 8
    z22 = FiniteAbelianGroup((2, 2))
    assert len(positive_dual_block((z22, Z3))) == 6
    for chi in positive_dual_block((z22, Z3)):
        assert any(chi[:2]) and any(chi[2:])


def test_truncated_coefficient_pullback_avoids_block():
    # the coefficients of the 6th cyclotomic polynomial, carried to Z2 x Z3
    # by residues: support of the transform misses every all-slots-nontrivial
    # character
    coeffs = cyclotomic(6).coeffs
    g = product_group((Z2, Z3))
    values = {}
    for x in range(6):
        if x < len(coeffs) and coeffs[x]:
            values[(x % 2, x % 3)] = coeffs[x]
    f = GroupFunction(g, values)
    assert fourier_support(f).isdisjoint(set(positive_dual_block((Z2, Z3))))
    assert not f.is_zero()


def test_group_function_validation_and_vector():
    g = FiniteAbelianGroup((2, 2))
    with pytest.raises(ValueError):
        GroupFunction(g, {(2, 0): 1})
    f = GroupFunction.from_vector(g, [1, 0, -2, 0])
    assert f((0, 0)) == 1 and f((1, 0)) == -2
    assert f.as_vector() == (1, 0, -2, 0)
    assert f.support() == ((0, 0), (1, 0))
