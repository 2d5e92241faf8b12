"""Exact arithmetic in cyclotomic integer rings.

Integer polynomials are dense coefficient tuples, lowest degree first.
An element of Z[zeta_N] is stored by its coordinates in the power basis
{1, zeta_N, ..., zeta_N**(phi(N)-1)}, reduced modulo the N-th cyclotomic
polynomial, so equality and zero tests are exact coordinate comparisons.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import mul


@lru_cache(maxsize=8)
def euler_phi(n: int) -> int:
    """Euler totient, by trial-division factorization.

    >>> [euler_phi(n) for n in (1, 2, 6, 30, 105)]
    [1, 1, 2, 8, 48]
    """
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order.

    >>> divisors(12)
    (1, 2, 3, 4, 6, 12)
    """
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate at desk scale."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of z**i.

    Trailing zeros are trimmed on construction, so the zero polynomial has
    an empty coefficient tuple and degree -1.

    >>> IntPoly((1, 0, 1)).degree
    2
    >>> IntPoly((0, 0)) == IntPoly(())
    True
    >>> IntPoly((-1, 1)) * IntPoly((1, 1))
    IntPoly(coeffs=(-1, 0, 1))
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPoly(tuple(summed))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        if len(a) < len(b):
            a, b = b, a
        prod = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(b):
            if c:
                prod[i : i + len(a)] = [x + c * y for x, y in zip(prod[i : i + len(a)], a)]
        return IntPoly(tuple(prod))

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Quotient and remainder by a monic divisor (exact over Z).

        >>> divmod(IntPoly((-1, 0, 0, 0, 0, 0, 1)), IntPoly((1, 1, 1)))
        (IntPoly(coeffs=(-1, 1, 0, -1, 1)), IntPoly(coeffs=()))
        """
        if not other.is_monic():
            raise ValueError("division is only supported by monic polynomials")
        rem = list(self.coeffs)
        d = other.degree
        if len(rem) <= d:
            return IntPoly(()), self
        quot = [0] * (len(rem) - d)
        body = other.coeffs[:-1]
        for top in range(len(rem) - 1, d - 1, -1):
            q = rem[top]
            quot[top - d] = q
            if q:
                rem[top] = 0
                for j, c in enumerate(body):
                    rem[top - d + j] -= q * c
        return IntPoly(tuple(quot)), IntPoly(tuple(rem[:d]))

    def __call__(self, x):
        """Evaluate by Horner's rule; works for any ring element."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> IntPoly:
        return cls(tuple(int(c) for c in data))


def xn_minus_1(n: int) -> IntPoly:
    """The polynomial z**n - 1."""
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)**(prime count).

    >>> [mobius(n) for n in (1, 2, 4, 6, 30)]
    [1, -1, 0, 1, -1]
    """
    if n < 1:
        raise ValueError("n must be positive")
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@lru_cache(maxsize=8)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Computed from Moebius inversion of z**n - 1 = prod_{d | n} Phi_d:
    Phi_n = prod_{d | n} (z**d - 1)**mu(n/d), by _binomial_passes.

    >>> cyclotomic(1).coeffs
    (-1, 1)
    >>> cyclotomic(2).coeffs
    (1, 1)
    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    >>> cyclotomic(105).coeffs[7]
    -2
    """
    if n < 1:
        raise ValueError("n must be positive")
    ds = divisors(n)
    up = [d for d in ds if mobius(n // d) == 1]
    down = [d for d in ds if mobius(n // d) == -1]
    return IntPoly(tuple(_binomial_passes(n, up, down)))


@lru_cache(maxsize=8)
def cofactor(n: int) -> IntPoly:
    """The cofactor C_n = (z**n - 1) / Phi_n = prod_{d | n, d < n} Phi_d,
    monic of degree n - phi(n).

    By the same inversion, C_n = prod_{d | n} (z**d - 1)**([d = n] - mu(n/d)),
    by _binomial_passes. Phi_n divides an integer polynomial c(z) exactly
    when c(z) * C_n(z) = 0 mod z**n - 1 (vanishes_at_root). That test
    reads C_n packed into two non-negative integers, its positive and its
    negative coefficients as fixed-width digits (_packed_cofactor), so
    that a product by z**s mod z**n - 1 is a rotation of those digits.

    >>> cofactor(1).coeffs
    (1,)
    >>> cofactor(6).coeffs
    (-1, -1, 0, 1, 1)
    >>> cofactor(12) * cyclotomic(12) == xn_minus_1(12)
    True
    """
    if n < 1:
        raise ValueError("n must be positive")
    ds = divisors(n)[:-1]
    up = [d for d in ds if mobius(n // d) == -1]
    down = [d for d in ds if mobius(n // d) == 1]
    return IntPoly(tuple(_binomial_passes(n, up, down)))


def _binomial_passes(n: int, up, down) -> list[int]:
    """prod_{d in up} (z**d - 1) / prod_{d in down} (z**d - 1), coefficients.

    The binomials of `up` are multiplied in first, then those of `down`
    are divided out exactly; each step is one shift-and-subtract pass over
    the coefficients, and a division that leaves a remainder raises.
    """
    poly = [1]
    for d in up:
        # times (z**d - 1): c_i <- c_(i-d) - c_i
        shifted = [0] * d + poly
        for i, c in enumerate(poly):
            shifted[i] -= c
        poly = shifted
    for d in down:
        # over (z**d - 1): q_i = q_(i-d) - c_i, low degree first; the top d
        # places then hold the remainder
        quot = [-c for c in poly]
        for i in range(d, len(quot)):
            quot[i] += quot[i - d]
        if any(quot[-d:]):
            raise AssertionError(f"non-exact cyclotomic division at n={n}")
        poly = quot[:-d]
    return poly


@dataclass(frozen=True)
class CycInt:
    """Cyclotomic integer: power-basis coordinates modulo Phi_conductor.

    Two values are equal exactly when conductor and coordinates agree;
    the representation is canonical, so ``is_zero`` is an exact test.
    """

    conductor: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.conductor < 1:
            raise ValueError("conductor must be positive")
        if len(self.coords) != euler_phi(self.conductor):
            raise ValueError(
                f"need {euler_phi(self.conductor)} coordinates for conductor {self.conductor}"
            )
        object.__setattr__(self, "coords", tuple(self.coords))

    @classmethod
    def zero(cls, conductor: int) -> CycInt:
        return cls(conductor, (0,) * euler_phi(conductor))

    @classmethod
    def one(cls, conductor: int) -> CycInt:
        return cls(conductor, (1,) + (0,) * (euler_phi(conductor) - 1))

    @classmethod
    def from_int(cls, conductor: int, value: int) -> CycInt:
        return cls(conductor, (value,) + (0,) * (euler_phi(conductor) - 1))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _require_same_ring(self, other: CycInt) -> None:
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )

    def __add__(self, other: CycInt) -> CycInt:
        self._require_same_ring(other)
        return CycInt(self.conductor, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: CycInt) -> CycInt:
        self._require_same_ring(other)
        return CycInt(self.conductor, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> CycInt:
        return CycInt(self.conductor, tuple(-a for a in self.coords))

    def __mul__(self, other):
        """Product in Z[zeta_N]: the coordinates are convolved and the
        2 * phi(N) - 1 sums reduced by eval_at_root, which folds them mod N."""
        if isinstance(other, int):
            return CycInt(self.conductor, tuple(other * a for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._require_same_ring(other)
        a, b = self.coords, other.coords
        m = len(a)
        conv = [0] * (2 * m - 1)
        for i, c in enumerate(a):
            if c:
                conv[i : i + m] = [x + c * y for x, y in zip(conv[i : i + m], b)]
        return eval_at_root(conv, self.conductor)

    __rmul__ = __mul__

    def complex_value(self) -> complex:
        """Float embedding at zeta_N = exp(2*pi*i/N); for shadow checks only."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(c * z**t for t, c in enumerate(self.coords))


def _remainders(n: int):
    """Power-basis coordinates of z**j mod Phi_n for j = 0, 1, 2, ..., endlessly.

    Each step multiplies by z and, when the degree reaches phi(n), replaces
    z**phi(n) by the tail of the monic relation Phi_n(z) = 0:
    r_(j+1) = z * r_j - lead(r_j) * Phi_n. Its readers are
    cyclo_family._root_relation_kernel and _power_columns; no certificate
    streams it (they decide vanishing with vanishes_at_root).
    """
    phi = euler_phi(n)
    mod = cyclotomic(n).coeffs[:phi]
    cur = [0] * phi
    cur[0] = 1
    while True:
        yield tuple(cur)
        lead = cur[-1]
        nxt = [0] + cur[:-1]
        if lead:
            nxt = [x - lead * c for x, c in zip(nxt, mod)]
        cur = nxt


@lru_cache(maxsize=8)
def _power_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The power table of Z[zeta_n], by columns: entry j of column t is
    coordinate t of zeta_n**j, for j = 0..n-1 and t = 0..phi(n)-1, read off
    the first n remainders of _remainders(n). It is the only power table;
    root_power and eval_at_root read it."""
    return tuple(zip(*islice(_remainders(n), n)))


def root_power(n: int, e: int) -> CycInt:
    """zeta_n**e as a reduced element of Z[zeta_n]; e may be any integer:
    entry e mod n of each column of _power_columns(n).

    >>> root_power(3, 2).coords
    (-1, -1)
    >>> root_power(6, 2).coords
    (-1, 1)
    >>> root_power(5, 0) == CycInt.one(5)
    True
    """
    if n < 1:
        raise ValueError("n must be positive")
    return CycInt(n, tuple(col[e % n] for col in _power_columns(n)))


def eval_at_root(values, n: int) -> CycInt:
    """Sum of values[l] * zeta_n**l, exponents taken modulo n.

    Accepts an IntPoly or any integer sequence. This is the evaluation
    map Z[Z_n] -> Z[zeta_n] behind every vanishing-sum test and CycInt
    product here. The values are first folded into n buckets, one per
    residue mod n; coordinate t of the result is then the sum of the
    buckets times column t of _power_columns(n), phi(n) sums in all.

    >>> eval_at_root(cyclotomic(6), 6).is_zero()
    True
    >>> eval_at_root([1, 1, 1, 1, 1, 1], 6).is_zero()
    True
    >>> eval_at_root([0, 0, 0, 0, 0, 0, 0, 1], 6) == root_power(6, 1)
    True
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = values.coeffs if isinstance(values, IntPoly) else values
    if len(coeffs) > n:
        coeffs = [sum(coeffs[r::n]) for r in range(n)]
    return CycInt(n, tuple(sum(map(mul, coeffs, col)) for col in _power_columns(n)))


def vanishes_at_root(terms, n: int) -> bool:
    """Whether the sum of v * zeta_n**e over the pairs (e, v) of terms is 0
    in Z[zeta_n]; exponents are taken modulo n.

    Phi_n is the minimal polynomial of zeta_n, so the sum vanishes exactly
    when Phi_n divides c(z) = sum v * z**(e mod n), and, Z[z] being a
    domain, exactly when c(z) * C_n(z) = 0 mod z**n - 1, C_n = cofactor(n).

    That product is summed as one integer, its n coefficients a_i as
    W-bit digits: the sum of a_i * X**i with X = 2**W. C_n is packed into
    two non-negative integers C+ and C- (_packed_cofactor), its positive
    and its negated negative coefficients, so that multiplying by z**s
    mod z**n - 1 is a digit rotation: a shift, an or and a mask. Each
    term adds v * (rot(C+, s) - rot(C-, s)). Every |a_i| is at most
    H * sum |v|, H the height of C_n (its largest |coefficient|), and W is
    chosen with 2**(W-2) > H * sum |v|, so |a_i| < X. Then the sum is 0
    exactly when every a_i is: if a_j is the lowest nonzero digit, the sum
    is a_j * X**j plus a multiple of X**(j+1), and X does not divide a_j.
    The width comes from the real height, which grows with n (385 at
    n = 373065), never from a guess. O(n * W) bit operations per term,
    with neither the power table nor the remainder stream.
    eval_at_root(...).is_zero() decides the same.

    >>> vanishes_at_root([(0, 1), (2, 1), (4, 1)], 6)
    True
    >>> vanishes_at_root([(0, 1), (7, 1)], 6)
    False
    """
    if n < 1:
        raise ValueError("n must be positive")
    terms = [(e % n, v) for e, v in terms if v]
    bound = max(map(abs, cofactor(n).coeffs)) * sum(abs(v) for _, v in terms)
    width = -(-(bound.bit_length() + 2) // 8) * 8  # whole bytes, for the packing
    plus, minus = _packed_cofactor(n, width)
    mask = (1 << width * n) - 1
    acc = 0
    for s, v in terms:
        # z**s * C mod z**n - 1: the top s digits wrap around to the bottom
        up, down = width * s, width * (n - s)
        acc += v * ((((plus << up) | (plus >> down)) & mask) - (((minus << up) | (minus >> down)) & mask))
    return acc == 0


@lru_cache(maxsize=8)
def _packed_cofactor(n: int, width: int) -> tuple[int, int]:
    """C+ and C-: the positive coefficients of cofactor(n), and the negated
    negative ones, as digits of `width` bits (a multiple of 8), lowest
    degree lowest; read by vanishes_at_root as n digits, the ones above
    degree n - phi(n) zero."""
    size = width // 8
    coeffs = cofactor(n).coeffs
    plus = b"".join((c if c > 0 else 0).to_bytes(size, "little") for c in coeffs)
    minus = b"".join((-c if c < 0 else 0).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(plus, "little"), int.from_bytes(minus, "little")
