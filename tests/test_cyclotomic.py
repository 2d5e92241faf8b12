"""Cyclotomic polynomial and cyclotomic integer arithmetic.

The oracle here is deliberately independent of the package: polynomials
over Fraction coefficients with their own multiplication and division,
recursing on proper divisors. Frozen expected values in this file were
computed with that oracle.
"""

import cmath
import importlib
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cofactor_cyclotomic, rotating_vanishes_at_root, rowsum_eval_at_root

from balacyc.cyclotomic import (
    CycInt,
    IntPoly,
    cofactor,
    cyclotomic,
    divisors,
    eval_at_root,
    euler_phi,
    mobius,
    root_power,
    vanishes_at_root,
    xn_minus_1,
)

# the package exports the function cyclotomic under the module's name
cyclotomic_module = importlib.import_module("balacyc.cyclotomic")


# --- independent oracle -------------------------------------------------


def _frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        coeff = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coeff
        for j, y in enumerate(b):
            a[shift + j] -= coeff * y
        a.pop()
    return q, a


def oracle_cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, via Fractions."""
    if n == 1:
        return [-1, 1]
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _frac_mul(den, [Fraction(c) for c in oracle_cyclotomic(d)])
    q, r = _frac_divmod(num, den)
    assert not any(r)
    assert all(c.denominator == 1 for c in q)
    return [int(c) for c in q]


# --- number theory helpers ----------------------------------------------


def test_euler_phi_against_gcd_count():
    for n in range(1, 80):
        assert euler_phi(n) == sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def test_divisors_brute_force():
    for n in range(1, 80):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_mobius_from_prime_factors():
    for n in range(1, 200):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        squarefree = all(n % (p * p) for p in primes)
        assert mobius(n) == ((-1) ** len(primes) if squarefree else 0)


def test_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            euler_phi(bad)
        with pytest.raises(ValueError):
            mobius(bad)
        with pytest.raises(ValueError):
            cyclotomic(bad)


# --- polynomials ---------------------------------------------------------


def test_intpoly_trims_and_degree():
    assert IntPoly((0, 0)).is_zero()
    assert IntPoly((1, 2, 0)).coeffs == (1, 2)
    assert IntPoly(()).degree == -1


def test_intpoly_divmod_requires_monic():
    with pytest.raises(ValueError):
        divmod(IntPoly((1, 1)), IntPoly((0, 2)))


def test_intpoly_json_round_trip():
    p = IntPoly((10**30, -1, 7))
    assert IntPoly.from_json(p.to_json()) == p
    assert p.to_json()[0] == str(10**30)


@given(
    st.lists(st.integers(-20, 20), max_size=6),
    st.lists(st.integers(-20, 20), max_size=6),
    st.lists(st.integers(-20, 20), max_size=6),
)
def test_intpoly_ring_laws(a, b, c):
    pa, pb, pc = IntPoly(tuple(a)), IntPoly(tuple(b)), IntPoly(tuple(c))
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(1, 5), st.integers(-9, 9))
def test_intpoly_divmod_inverts_mul(coeffs, deg, extra):
    monic = IntPoly(tuple(range(-deg, 0)) + (1,))
    other = IntPoly(tuple(coeffs))
    rem = IntPoly((extra,) * deg)
    q, r = divmod(other * monic + rem, monic)
    assert q * monic + r == other * monic + rem
    assert r.degree < monic.degree


# --- cyclotomic polynomials ----------------------------------------------


def test_cyclotomic_frozen_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)


def test_cyclotomic_against_oracle():
    for n in (1, 2, 3, 4, 6, 8, 9, 12, 15, 30, 36):
        assert list(cyclotomic(n).coeffs) == oracle_cyclotomic(n)


def test_cyclotomic_matches_cofactor_division():
    # the Moebius product of binomials against the division of z**n - 1 by
    # the product of the smaller cyclotomic polynomials
    for n in list(range(1, 401)) + [1155, 2310]:
        assert cyclotomic(n) == cofactor_cyclotomic(n)


def test_cyclotomic_15015_is_fast():
    # the first five-prime case; its largest coefficient is 23 in absolute value
    start = time.perf_counter()
    p = cyclotomic.__wrapped__(15015)
    assert time.perf_counter() - start < 1.0
    assert p.is_monic() and p.degree == 5760
    assert max(abs(c) for c in p.coeffs) == 23


def test_cyclotomic_inexact_division_raises(monkeypatch):
    # wrong Moebius exponents leave a nonzero remainder, which must not pass
    monkeypatch.setattr(cyclotomic_module, "mobius", lambda m: -1)
    with pytest.raises(AssertionError, match="non-exact"):
        cyclotomic.__wrapped__(6)


def test_cyclotomic_105_coefficient():
    # first index with a coefficient outside {-1, 0, 1}
    assert cyclotomic(105).coeffs[7] == -2
    assert oracle_cyclotomic(105)[7] == -2


def test_cyclotomic_monic_and_degree():
    for n in range(1, 121):
        p = cyclotomic(n)
        assert p.is_monic()
        assert p.degree == euler_phi(n)


def test_divisor_product_identity():
    for n in range(1, 121):
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == xn_minus_1(n)


def test_cyclotomic_vanishes_at_root():
    for n in range(1, 121):
        assert eval_at_root(cyclotomic(n), n).is_zero()


# --- the cofactor (z**n - 1) / Phi_n -------------------------------------

# 4, 8, 9, 12, 36 and 900 are not squarefree; the Fourier certificate uses
# the cofactor at the conductors 12, 36 and 900
COFACTOR_NS = list(range(1, 61)) + [385, 900, 2310]


@pytest.mark.parametrize("n", COFACTOR_NS)
def test_cofactor_times_cyclotomic_is_xn_minus_1(n):
    c = cofactor(n)
    assert c * cyclotomic(n) == xn_minus_1(n)
    assert c.is_monic() and c.degree == n - euler_phi(n)


def test_cofactor_is_the_product_of_the_smaller_cyclotomic_polynomials():
    for n in (1, 4, 8, 9, 12, 30, 36, 105):
        product = IntPoly((1,))
        for d in divisors(n)[:-1]:
            product = product * cyclotomic(d)
        assert cofactor(n) == product


def test_cofactor_inexact_division_raises(monkeypatch):
    monkeypatch.setattr(cyclotomic_module, "mobius", lambda m: 1)
    with pytest.raises(AssertionError, match="non-exact"):
        cofactor.__wrapped__(6)


@st.composite
def sparse_root_sums(draw):
    """(terms, n): a few (exponent, value) pairs, exponents past n too, and
    half the time a shifted multiple of Phi_n added, which vanishes."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 30, 36, 105]))
    terms = draw(st.lists(st.tuples(st.integers(0, 3 * n), st.integers(-4, 4)), max_size=6))
    if draw(st.booleans()):
        shift, k = draw(st.integers(0, 2 * n)), draw(st.integers(-3, 3))
        terms += [(shift + j, k * c) for j, c in enumerate(cyclotomic(n).coeffs)]
    return terms, n


@settings(max_examples=150, deadline=None)
@given(sparse_root_sums())
@example(([(0, 1), (2, 1), (4, 1)], 6))
@example(([(0, 1), (6, -1)], 6))
@example(([(1, 2), (4, 2), (7, 2)], 9))
def test_vanishing_by_the_cofactor_matches_the_power_table(case):
    # the cofactor's convolution against the power-table reduction
    terms, n = case
    buckets = [0] * n
    for e, v in terms:
        buckets[e % n] += v
    assert vanishes_at_root(terms, n) is eval_at_root(buckets, n).is_zero()


@st.composite
def packed_root_sums(draw):
    """(terms, n) for n up to 400: exponents drawn from a few values, so
    they repeat, negative ones and ones past n included; values up to
    2**40 in size; and half the time a multiple of Phi_n, shifted and
    scaled by up to 2**40, planted among them, so the sum vanishes
    exactly when the other terms cancel."""
    n = draw(st.integers(1, 400))
    exponents = draw(st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=4))
    big = st.integers(-(2**40), 2**40)
    terms = draw(st.lists(st.tuples(st.sampled_from(exponents), st.one_of(st.integers(-3, 3), big)), max_size=8))
    if draw(st.booleans()):
        shift, k = draw(st.integers(-n, 2 * n)), draw(st.one_of(st.integers(-3, 3), big))
        planted = [(shift + j, k * c) for j, c in enumerate(cyclotomic(n).coeffs)]
        terms = draw(st.permutations(terms + planted))
    return terms, n


@settings(max_examples=200, deadline=None)
@given(packed_root_sums())
@example(([(0, 2**40), (-6, -(2**40))], 6))
@example(([(0, 1), (1, -1), (1, 1), (-1, 0)], 1))
@example(([(j - 400, 2**40 * c) for j, c in enumerate(cyclotomic(400).coeffs)], 400))
@example(([(j, (2**40 - 1) * c) for j, c in enumerate(cyclotomic(399).coeffs)] + [(7, 1)], 399))
@example(([(1, 1), (0, -(2**8))], 6))
@example(([(1, 1), (0, -(2**16))], 6))
@example(([(1, 1), (0, -(2**40))], 6))
def test_packed_vanishing_matches_the_rotating_list(case):
    # the packed digit rotation against the list loop it replaced. With
    # c(z) = z - X, X = 2**W, the product c(z) * C_6(z) has degree 5, so it
    # is its own fold, and its digits in base X sum to c(X) * C_6(X) = 0:
    # a width that ignores the size of the values would call it vanishing
    terms, n = case
    assert vanishes_at_root(terms, n) is rotating_vanishes_at_root(terms, n)


def test_packed_vanishing_at_the_height_of_n373065():
    # C_n at n = 373065 = 3*5*7*11*17*19 has height 385, more than one
    # byte holds: a width probed at 8 bits would corrupt the packed digits.
    # The base columns of the CRT pullback (the fibres {a * n/p}) vanish,
    # and each with one more term does not; the list loop, at about 50 ms a
    # term here, reads the shortest column
    n, primes = 373065, (3, 5, 7, 11, 17, 19)
    assert max(map(abs, cofactor(n).coeffs)) == 385
    for i, p in enumerate(primes):
        column = [(a * (n // p), -1 if i % 2 else 1) for a in range(p)]
        for terms, vanishes in ((column, True), (column + [(i + 1, 1)], False)):
            assert vanishes_at_root(terms, n) is vanishes
            if i == 0:
                assert rotating_vanishes_at_root(terms, n) is vanishes


# --- cyclotomic integers -------------------------------------------------


def test_root_power_frozen():
    assert root_power(3, 2).coords == (-1, -1)
    assert root_power(6, 2).coords == (-1, 1)
    for n in (1, 2, 5, 12):
        assert root_power(n, 0) == CycInt.one(n)


def test_root_power_against_oracle_reduction():
    # reduce z**e modulo the oracle cyclotomic polynomial, over Fractions
    for n, e in [(5, 5), (6, 4), (12, 17), (30, 29)]:
        phi = euler_phi(n)
        mod = [Fraction(c) for c in oracle_cyclotomic(n)]
        z_e = [Fraction(0)] * (e % n) + [Fraction(1)]
        _, rem = _frac_divmod(z_e, mod)
        rem = [int(c) for c in rem] + [0] * (phi - len(rem))
        assert list(root_power(n, e).coords) == rem[:phi]


def test_root_power_fifth_roots_multiply_to_one():
    assert root_power(5, 2) * root_power(5, 3) == CycInt.one(5)


def test_cyc_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        root_power(3, 1) + root_power(6, 1)
    with pytest.raises(ValueError):
        root_power(3, 1) * root_power(6, 1)


def test_cyc_add_identity_and_scale():
    x = root_power(12, 7)
    assert x + CycInt.zero(12) == x
    assert 3 * x == x + x + x
    assert -1 * x == -x


conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15])


@st.composite
def cyc_int_triples(draw):
    n = draw(conductors)
    phi = euler_phi(n)
    mk = lambda: tuple(draw(st.lists(st.integers(-50, 50), min_size=phi, max_size=phi)))
    return CycInt(n, mk()), CycInt(n, mk()), CycInt(n, mk())


@settings(max_examples=60)
@given(cyc_int_triples())
def test_cyc_ring_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * CycInt.one(a.conductor) == a
    assert a + (-a) == CycInt.zero(a.conductor)


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 6, 8, 12, 30]), st.integers(-40, 40), st.integers(-40, 40))
def test_root_power_is_multiplicative(n, a, b):
    assert root_power(n, a) * root_power(n, b) == root_power(n, a + b)


@st.composite
def cyc_int_pairs(draw, bound=1000, conductors=conductors):
    n = draw(conductors)
    phi = euler_phi(n)
    mk = lambda: tuple(draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi)))
    return CycInt(n, mk()), CycInt(n, mk())


@settings(max_examples=80)
@given(cyc_int_pairs(conductors=st.sampled_from([1, 2, 5, 7, 9, 12, 15])))
@example((CycInt(9, (9, -8, 7, -6, 5, -4)), CycInt(9, (1, 2, 3, 4, 5, 6))))
def test_product_is_the_remainder_of_the_polynomial_product(pair):
    # exact, with no power table: at n = 5, 7, 9 the 2 * phi(n) - 1
    # product coefficients outnumber n and eval_at_root folds them first
    a, b = pair
    n = a.conductor
    _, rem = divmod(IntPoly(a.coords) * IntPoly(b.coords), cyclotomic(n))
    assert (a * b).coords == rem.coeffs + (0,) * (euler_phi(n) - len(rem.coeffs))


@settings(max_examples=40)
@given(cyc_int_pairs())
def test_float_shadow_of_multiplication(pair):
    a, b = pair
    exact = (a * b).complex_value()
    shadow = a.complex_value() * b.complex_value()
    assert abs(exact - shadow) <= 1e-6 * max(1.0, abs(shadow))


# --- evaluation map -------------------------------------------------------


def test_eval_delta_is_one():
    for n in (1, 2, 6, 30):
        vec = [0] * n
        vec[0] = 1
        assert eval_at_root(vec, n) == CycInt.one(n)


def test_eval_all_ones_z6_is_zero():
    value = eval_at_root([1] * 6, 6)
    assert value.is_zero()
    # numeric cross-check of the same sum
    z = cmath.exp(2j * cmath.pi / 6)
    assert abs(sum(z**k for k in range(6))) < 1e-9


def test_eval_matches_horner_embedding():
    vec = [3, -2, 0, 7, 1, -5]
    exact = eval_at_root(vec, 6).complex_value()
    z = cmath.exp(2j * cmath.pi / 6)
    direct = sum(c * z**k for k, c in enumerate(vec))
    assert abs(exact - direct) < 1e-9


@st.composite
def root_sums(draw):
    """(values, n): values shorter than, as long as, or longer than n, with
    small, negative and large entries, as a list or an IntPoly."""
    n = draw(st.sampled_from([1, 2, 3, 6, 30, 105]))
    length = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 1, 2 * n + 3, 3 * n]))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    values = draw(st.lists(entry, min_size=length, max_size=length))
    return (IntPoly(tuple(values)) if draw(st.booleans()) else values), n


@settings(max_examples=80, deadline=None)
@given(root_sums())
def test_column_sums_match_the_row_sums(case):
    values, n = case
    assert eval_at_root(values, n) == rowsum_eval_at_root(values, n)
