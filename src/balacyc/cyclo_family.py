"""Balanced complexes indexed by cyclotomic coefficient data.

For distinct primes p_0, ..., p_k with product n, the residues mod n split
through the Chinese remainder map into the product of the Z_p_i. Each
subset A of {0, ..., phi(n)} determines a complex over the join of those
cyclic groups: its top cells are the CRT images of A together with all
residues above phi(n). The homology of these complexes is governed by the
coefficients of the n-th cyclotomic polynomial restricted to A; this
module builds the complexes, predicts their homology from the coefficient
data, and verifies every step exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from math import gcd, prod

from .complexes import (
    BalancedComplex,
    coboundary_restriction,
    cohomology_profile,
    homology_profile,
    is_coboundary,
    nested_elements,
    top_coboundary_domain,
    uct_holds,
)
from .cyclotomic import _remainders, cyclotomic, euler_phi, eval_at_root, is_prime, root_power
from .groups import FiniteAbelianGroup, GroupFunction, fourier_transform
from .intlinalg import (
    AbelianGroupStructure,
    FixedRowReduction,
    HermiteForm,
    IntMatrix,
    cokernel_structure,
    hermite_normal_form,
    reduce_fixed_rows,
)


def check_primes(primes) -> tuple[int, ...]:
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("at least two primes required (top dimension >= 1)")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return primes


def family_colors(primes) -> tuple[FiniteAbelianGroup, ...]:
    return tuple(FiniteAbelianGroup((p,)) for p in check_primes(primes))


def crt_split(primes, x: int) -> tuple[tuple[int, ...], ...]:
    """Residue of x modulo each prime, as a point of the product group.

    >>> crt_split((2, 3), 5)
    ((1,), (2,))
    """
    return tuple((x % p,) for p in primes)


@lru_cache(maxsize=8)
def _crt_inverse(primes: tuple[int, ...]) -> dict:
    n = prod(primes)
    return {crt_split(primes, x): x for x in range(n)}


def crt_unit(primes) -> int:
    """The sum over j of the product of the other primes, reduced mod n.

    This residue is coprime to n (mod p_j it is the product of the other
    primes); multiplication by it permutes the units of Z_n. It converts
    between the transform of a CRT pullback on Z_n and the transform on
    the product group.

    >>> crt_unit((2, 3)), crt_unit((2, 3, 5))
    (5, 1)
    """
    primes = check_primes(primes)
    n = prod(primes)
    u = sum(prod(q for q in primes if q != p) for p in primes) % n
    if gcd(u, n) != 1:
        raise AssertionError("twist residue must be a unit")
    return u


def upper_indices(n: int) -> tuple[int, ...]:
    """The residues phi(n)+1, ..., n-1: top cells present in every complex."""
    return tuple(range(euler_phi(n) + 1, n))


@dataclass(frozen=True)
class CycloComplexData:
    """Derived data for one (primes, subset) configuration."""

    primes: tuple[int, ...]
    subset: tuple[int, ...]
    n: int
    totient: int
    upper: tuple[int, ...]
    coeffs: tuple[int, ...]
    subset_coeffs: tuple[int, ...]
    coeff_gcd: int
    unit: int

    @classmethod
    def build(cls, primes, subset) -> CycloComplexData:
        primes = check_primes(primes)
        n = prod(primes)
        totient = euler_phi(n)
        subset = tuple(sorted(set(int(j) for j in subset)))
        if subset and not (0 <= subset[0] and subset[-1] <= totient):
            raise ValueError(f"subset must lie in 0..{totient}")
        coeffs = cyclotomic(n).coeffs
        sub = tuple(coeffs[j] for j in subset)
        return cls(
            primes=primes,
            subset=subset,
            n=n,
            totient=totient,
            upper=upper_indices(n),
            coeffs=coeffs,
            subset_coeffs=sub,
            coeff_gcd=gcd(*sub) if sub else 0,
            unit=crt_unit(primes),
        )

    @property
    def top_indices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.subset) | set(self.upper)))

    @property
    def pullback_indices(self) -> tuple[int, ...]:
        """The top indices in descending order: the row order of
        root_relation_lattice and of the pulled-back coboundary form."""
        return self.top_indices[::-1]


def build_family_complex(primes, subset):
    """The complex whose top cells are the CRT images of subset + upper part.

    >>> build_family_complex((2, 3), (0, 1, 2)).f_vector()
    (5, 6)
    >>> build_family_complex((2, 3), ()).f_vector()
    (5, 3)
    """
    return _family_complex(CycloComplexData.build(primes, subset))


def _family_complex(data: CycloComplexData) -> BalancedComplex:
    # distinct residues split into distinct points of the product, so the
    # points need none of build_complex's validation, only its sort
    tops = sorted(crt_split(data.primes, x) for x in data.top_indices)
    return BalancedComplex(family_colors(data.primes), tuple(tops))


def predicted_homology(primes, subset, i: int) -> AbelianGroupStructure:
    """Expected reduced homology in dimension i from the coefficient data.

    With d the gcd of the subset's cyclotomic coefficients (0 when they
    all vanish): dimension k-1 carries Z/d (so Z when d = 0), dimension k
    is free of rank |A| when d = 0 and |A|-1 otherwise, and every other
    dimension vanishes. The subset must be nonempty.
    """
    return _predicted_homology(CycloComplexData.build(primes, subset), i)


def _predicted_homology(data: CycloComplexData, i: int) -> AbelianGroupStructure:
    if not data.subset:
        raise ValueError("empty subsets are not covered by the closed form")
    k = len(data.primes) - 1
    if i == k - 1:
        return AbelianGroupStructure.from_parts(0, (data.coeff_gcd,))
    if i == k:
        size = len(data.subset)
        return AbelianGroupStructure.from_parts(size if data.coeff_gcd == 0 else size - 1)
    return AbelianGroupStructure.from_parts(0)


def predicted_cohomology(primes, subset, i: int) -> AbelianGroupStructure:
    """Expected reduced cohomology: Z^(|A|-1) + Z/d at the top, Z below it
    exactly when d = 0, zero elsewhere."""
    return _predicted_cohomology(CycloComplexData.build(primes, subset), i)


def _predicted_cohomology(data: CycloComplexData, i: int) -> AbelianGroupStructure:
    if not data.subset:
        raise ValueError("empty subsets are not covered by the closed form")
    k = len(data.primes) - 1
    if i == k - 1:
        return AbelianGroupStructure.from_parts(1 if data.coeff_gcd == 0 else 0)
    if i == k:
        return AbelianGroupStructure.from_parts(
            len(data.subset) - 1, (data.coeff_gcd,)
        )
    return AbelianGroupStructure.from_parts(0)


@lru_cache(maxsize=8)
def _root_relation_kernel(n: int) -> HermiteForm:
    """Saturated kernel of evaluating integer vectors at zeta_n, canonical.

    A vector f on Z_n is read as the polynomial f(z) of degree < n, and
    evaluation at zeta_n vanishes exactly when Phi_n divides f(z). With
    rows in descending residue order n-1, ..., 0, the Hermite form of that
    kernel is [I; -R]: the column for residue d = n-1, ..., phi(n) is
    z**d - (z**d mod Phi_n), a unit at residue d and the negated remainder
    of z**d in the residues below phi(n). These columns lie in the kernel,
    and they span it, because a kernel vector minus its upper coordinates
    times them is a multiple of Phi_n of degree < phi(n), hence zero. The
    remainders come from the recurrence of cyclotomic._remainders, read
    once here and not kept. The cache holds a few n; at n = 1155 one form
    is 1155 x 675.
    """
    phi = euler_phi(n)
    width = n - phi
    tails = list(islice(_remainders(n), phi, n))[::-1]  # z**d mod Phi_n, d = n-1, ..., phi(n)
    below = (-r[i] for i in reversed(range(phi)) for r in tails)
    return HermiteForm(IntMatrix(n, width, tuple(chain(IntMatrix.identity(width).entries, below))))


def root_relation_lattice(primes, subset) -> HermiteForm:
    """Vanishing-evaluation functions restricted to the top index set.

    The rows of the kernel's form for subset + upper part are selected in
    descending residue order (CycloComplexData.pullback_indices). When
    phi(n) is in the subset they keep every unit row n-1, ..., phi(n) in
    order, so they are already the canonical form; otherwise the selection
    is brought to Hermite form once.
    """
    data = CycloComplexData.build(primes, subset)
    # row r of the kernel's form holds residue n-1-r
    selected = _root_relation_kernel(data.n).h.select_rows([data.n - 1 - x for x in data.pullback_indices])
    if data.totient in data.subset:
        return HermiteForm(selected)
    return hermite_normal_form(selected)


def _coboundary_form(data: CycloComplexData) -> HermiteForm:
    """Canonical form of the top coboundary lattice of the complex, pulled
    back along the CRT bijection to the residues of data.pullback_indices.

    The pullback is a pure reindexing of coordinates from product-group
    points to residues; the form is eliminated from the restricted
    coboundary matrix itself and uses neither Phi_n nor its remainders.
    """
    points = [crt_split(data.primes, x) for x in data.pullback_indices]
    return hermite_normal_form(coboundary_restriction(family_colors(data.primes), points))


def _coboundary_rows(primes: tuple[int, ...]) -> tuple[dict[int, int], ...]:
    """The full join's top coboundary as sparse rows on the residues of Z_n.

    rows[x] maps the column of (i, g without slot i) in
    top_coboundary_domain to (-1)**i, with g = crt_split(primes, x).
    """
    column = {label: c for c, label in enumerate(top_coboundary_domain(family_colors(primes)))}
    rows = []
    for x in range(prod(primes)):
        g = crt_split(primes, x)
        rows.append({column[(i, g[:i] + g[i + 1 :])]: -1 if i % 2 else 1 for i in range(len(g))})
    return tuple(rows)


def _summed_columns(n: int, rows) -> set[int]:
    """The columns of the sparse rows on Z_n whose sums decide whether every
    column evaluates to 0 in Z[zeta_n]: the base columns, those through
    residue 0, and every column that is not a translate of one.

    Lemma: a column whose (residue, entry) list, less its least residue x0,
    is a base column's list evaluates to zeta_n**x0 times that base column,
    so it vanishes exactly when the base column does. In the join's top
    coboundary the column of (i, t) holds the fibre x0 + (n/p_i) * Z_p_i,
    each entry (-1)**i: a translate of the base column of color i. So only
    the k+1 base columns are summed there.
    """
    entries: dict[int, list[tuple[int, int]]] = {}
    for x, row in enumerate(rows):
        for c, e in row.items():
            entries.setdefault(c, []).append((x, e))
    bases = {tuple(entries[c]) for c in rows[0]}
    translates = {c for c, e in entries.items() if tuple((x - e[0][0], v) for x, v in e) in bases}
    return set(rows[0]) | (entries.keys() - translates)


def _carried_rows(rows, upper: FixedRowReduction, phi: int) -> tuple[tuple[dict[int, int], ...], tuple[int, ...]]:
    """The rows of the residues 0, ..., phi each carried through the upper
    pivots (FixedRowReduction.carry) once, kept without repeats.

    Returns (carried, shared): the distinct carried rows, and for each
    residue a the index of its own among them.
    """
    index: dict[frozenset, int] = {}
    carried = []
    shared = []
    for a in range(phi + 1):
        row = upper.carry(rows[a])
        key = frozenset(row.items())
        if key not in index:
            index[key] = len(carried)
            carried.append(row)
        shared.append(index[key])
    return tuple(carried), tuple(shared)


@lru_cache(maxsize=8)
def _pulled_back_coboundary(primes: tuple[int, ...]) -> tuple:
    """The full join's top coboundary on the residues of Z_n, its
    containment in the kernel of Z[Z_n] -> Z[zeta_n], and its upper rows
    eliminated once.

    Returns (rows, contained, top, upper, carried, shared). rows are those
    of _coboundary_rows. contained says whether every column lies in the
    kernel, that is, whether its residues, with their entries, sum to 0 in
    Z[zeta_n]; the sums are taken over the power-basis coordinates of
    z**x mod Phi_n, read once from cyclotomic._remainders and not kept,
    and only for the columns of _summed_columns: every other column is a
    translate of a base column and vanishes with it. A full column in the
    kernel K restricts to a vector of the restriction of K to any top
    index set, so this one check gives the containment half of
    pullback_matches_root_kernel for every subset: a contained lattice of
    the same rank shares the saturation of the restricted kernel, and is
    equal to it exactly when the products of their nonzero invariant
    factors agree. top is z**phi(n) mod Phi_n, the kernel column that the
    residues below phi(n) see (see _kernel_rank_and_index). upper is
    reduce_fixed_rows of these same rows at the upper residues
    phi(n)+1, ..., n-1, which every top index set contains, and carried
    and shared are _carried_rows: the subset rows each carried through
    upper's pivots once. The index half of each subset then reduces only
    the leftover upper rows and its distinct carried rows
    (_pulled_back_factors). At n = 2310 the rows hold 11550 entries, the
    reduction's S about 77k, and the 481 residues up to phi(n) carry to
    407 distinct rows with about 31k entries; 5 partial sums are held.
    """
    n = prod(primes)
    phi = euler_phi(n)
    rows = _coboundary_rows(primes)
    sums = {c: [0] * phi for c in _summed_columns(n, rows)}
    for x, r in zip(range(n), _remainders(n)):
        for c, e in rows[x].items():
            if c in sums:
                sums[c] = [s + e * y for s, y in zip(sums[c], r)]
        if x == phi:
            top = r
    contained = not any(any(s) for s in sums.values())
    upper = reduce_fixed_rows([rows[x] for x in reversed(upper_indices(n))])
    return (rows, contained, top, upper) + _carried_rows(rows, upper, phi)


def _pulled_back_factors(primes: tuple[int, ...], subset) -> tuple[int, ...]:
    """Nonzero invariant factors of the pulled-back coboundary rows at the
    subset plus the upper residues, from the cache entry of
    _pulled_back_coboundary: the upper rows left over and the subset's
    distinct carried rows, each eliminated once. Rows that carry alike
    span nothing new, so the factors are those of sparse_invariant_factors
    on all those top rows.
    """
    _, _, _, upper, carried, shared = _pulled_back_coboundary(primes)
    return upper.carried_factors(carried[i] for i in sorted({shared[a] for a in subset}))


def _kernel_rank_and_index(data: CycloComplexData, top) -> tuple[int, int]:
    """Rank and product of the nonzero invariant factors of the kernel's
    restriction to the top indices (root_relation_lattice).

    The restriction is spanned by the columns of the kernel's form [I; -R]
    (see _root_relation_kernel) on those indices. The column of each
    residue d > phi(n), always a top index, keeps its unit at d, and so
    does the column of phi(n) when phi(n) is in the subset: then every
    factor is 1. Otherwise the column of phi(n) is -top on the subset and
    zero on every other top index, so it adds one factor, the gcd of top
    over the subset, when that gcd is nonzero. top is z**phi(n) mod Phi_n
    from _pulled_back_coboundary.
    """
    units = data.n - 1 - data.totient
    if data.totient in data.subset:
        return units + 1, 1
    d = gcd(*(top[a] for a in data.subset))
    return (units + 1, d) if d else (units, 1)


def pullback_matches_root_kernel(primes, subset) -> bool:
    """Whether the pulled-back coboundary lattice equals the evaluation kernel's
    restriction to the top indices (root_relation_lattice).

    Lemma: if L_cob is contained in L_ker and both have the same rank, they
    have the same saturation, so they are equal exactly when the products
    of their nonzero invariant factors are equal. The containment is
    checked once per prime tuple, on the full join, by summing each base
    column and each column that is not a translate of one
    (_pulled_back_coboundary). The coboundary side's factors are those of
    its rows at the top indices, with neither Phi_n nor its remainders.
    The top indices are the subset plus the upper residues, whose rows
    every subset shares and whose unit pivots are eliminated once per
    prime tuple (reduce_fixed_rows); every residue up to phi(n) is carried
    through those pivots once as well, and each call runs
    sparse_invariant_factors on the upper rows left over and the subset's
    distinct carried rows (_pulled_back_factors). Repeated rows span
    nothing new, so the factors are those of sparse_invariant_factors on
    all the top rows. The kernel side's rank
    and product are read off the kernel's form (_kernel_rank_and_index),
    not from any (co)homology computation.
    """
    data = CycloComplexData.build(primes, subset)
    _, contained, top, *_ = _pulled_back_coboundary(data.primes)
    if not contained:
        return False
    factors = _pulled_back_factors(data.primes, data.subset)
    return (len(factors), prod(factors)) == _kernel_rank_and_index(data, top)


def transform_pullback_check(primes, h: GroupFunction, m: int | None = None) -> bool:
    """Exact intertwining of the two Fourier transforms through the CRT map.

    The Z_n-transform of the pullback of h, taken at unit * m, must equal
    the product-group transform of h at the character indexed by the CRT
    split of m. With m=None every residue of Z_n is checked against one
    shared transform. Also checks that multiplication by the unit permutes
    the units of Z_n.

    The Z_n side is summed in the group ring Z[Z_n], h(x) going into bucket
    residue(x) * unit * m mod n, and reduced to Z[zeta_n] once. Its
    exponents come from the CRT residues, the product-group side's from
    pairing_exponent; the two meet only as reduced values in Z[zeta_n].
    """
    data = CycloComplexData.build(primes, ())
    n = data.n
    if h.group != product_group_of(data.primes):
        raise ValueError("function does not live on the expected product group")
    units = {x for x in range(n) if gcd(x, n) == 1}
    if {(data.unit * x) % n for x in units} != units:
        return False
    inverse = _crt_inverse(data.primes)
    residues = {x: inverse[tuple((xi,) for xi in x)] for x in h.values}
    hat = fourier_transform(h)
    for point in range(n) if m is None else (m,):
        buckets = [0] * n
        for x, v in h.values.items():
            buckets[residues[x] * data.unit * point % n] += v
        if eval_at_root(buckets, n) != hat[tuple(point % p for p in data.primes)]:
            return False
    return True


def product_group_of(primes) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(check_primes(primes)))


def coefficient_vector_is_coboundary(primes) -> bool:
    """The truncated cyclotomic coefficient vector is a top coboundary.

    The function on Z_n equal to the coefficients of the n-th cyclotomic
    polynomial up to degree phi(n) and zero above, carried to the product
    group through the CRT map, must lie in the image of the top coboundary
    over the full join.
    """
    data = CycloComplexData.build(primes, ())
    colors = family_colors(data.primes)
    inverse = _crt_inverse(data.primes)
    values = []
    for g in nested_elements(colors):
        x = inverse[g]
        values.append(data.coeffs[x] if x <= data.totient else 0)
    return is_coboundary(colors, nested_elements(colors), values)


@dataclass(frozen=True)
class PresentationReport:
    """Two computations of the top-cell quotient, plus generator checks."""

    expected: AbelianGroupStructure
    ambient_quotient: AbelianGroupStructure
    column_quotient: AbelianGroupStructure
    generator_membership: tuple[tuple[int, bool], ...]

    @property
    def quotient_ok(self) -> bool:
        return self.expected == self.ambient_quotient == self.column_quotient

    @property
    def ok(self) -> bool:
        return self.quotient_ok and all(m for _, m in self.generator_membership)


def quotient_presentation(primes, subset) -> PresentationReport:
    """Present the quotient by the vanishing lattice two independent ways.

    (a) directly, as the cokernel of the restricted kernel lattice
    (root_relation_lattice) inside the full top index set; (b) as the
    cokernel of the single column of subset coefficients. Both must give
    free rank |A|-1 plus one cyclic factor of order gcd. Additionally each
    upper index t is checked constructively: the vector that places 1 at t
    and the negated power-basis coordinates of zeta_n**t at the subset
    indices lies in the pulled-back coboundary lattice (_coboundary_form),
    which rewrites the class of t in subset classes inside the lattice the
    theorem is about. The kernel's form is read off the same remainders as
    those coordinates, so checking them against it would test the table
    against itself. The vectors are indexed like the rows of both forms,
    in descending residue order (CycloComplexData.pullback_indices); the
    cokernels do not depend on the order. pullback_matches_root_kernel
    does not compare these forms: it decides the same equality by
    containment plus index.
    """
    data = CycloComplexData.build(primes, subset)
    if not data.subset:
        raise ValueError("presentation requires a nonempty subset")
    ambient = cokernel_structure(root_relation_lattice(primes, subset).h)
    column = IntMatrix.from_columns([data.subset_coeffs], rows=len(data.subset))
    small = cokernel_structure(column)
    expected = AbelianGroupStructure.from_parts(len(data.subset) - 1, (data.coeff_gcd,))

    coboundary = _coboundary_form(data)
    indices = data.pullback_indices
    position = {x: r for r, x in enumerate(indices)}
    checks = []
    for t in data.upper:
        coords = root_power(data.n, t).coords
        vec = [0] * len(indices)
        for j in data.subset:
            if j < len(coords):
                vec[position[j]] = -coords[j]
        vec[position[t]] += 1
        checks.append((t, coboundary.contains(vec)))
    return PresentationReport(expected, ambient, small, tuple(checks))


@dataclass(frozen=True)
class HomologyVerification:
    """Computed versus predicted (co)homology for one configuration."""

    primes: tuple[int, ...]
    n: int
    subset: tuple[int, ...]
    coeff_gcd: int
    computed_homology: tuple[AbelianGroupStructure, ...]
    predicted_homology: tuple[AbelianGroupStructure, ...]
    computed_cohomology: tuple[AbelianGroupStructure, ...]
    predicted_cohomology: tuple[AbelianGroupStructure, ...]
    match: bool
    euler_poincare: bool
    uct: bool

    def to_json_dict(self) -> dict:
        def table(groups):
            return {str(i): g.to_json_dict() for i, g in enumerate(groups)}

        return {
            "primes": list(self.primes),
            "n": self.n,
            "A": list(self.subset),
            "dA": self.coeff_gcd,
            "predicted": {
                "homology": table(self.predicted_homology),
                "cohomology": table(self.predicted_cohomology),
            },
            "computed": {
                "homology": table(self.computed_homology),
                "cohomology": table(self.computed_cohomology),
            },
            "match": self.match,
            "euler_poincare": self.euler_poincare,
            "uct": self.uct,
        }


def verify_homology_tables(primes, subset) -> HomologyVerification:
    """Compute all reduced (co)homology of the complex and grade it.

    Every dimension 0..k is computed by homology_profile and
    cohomology_profile, from the invariant factors of the join's top
    cycles restricted to the points outside the top cells (see
    complexes.reduced_homology), and compared with the coefficient
    predictions, including the dimensions where the prediction is zero.
    That matrix uses neither Phi_n nor the Fourier argument, so the
    comparison is a real check. Universal-coefficient consistency of the
    two computed profiles, two separate eliminations, is checked
    alongside. So is the rank bookkeeping identity
    rank H_k - rank H_(k-1) = |A| - 1, but on this route it holds by
    construction: both ranks come from the same rank r, and their
    difference is the column count phi(n) minus the row count
    phi(n) + 1 - |A|. The tests check the reduced Euler characteristic
    against the f-vector independently.
    """
    data = CycloComplexData.build(primes, subset)
    if not data.subset:
        raise ValueError("verification requires a nonempty subset")
    k = len(data.primes) - 1
    x = _family_complex(data)
    computed_h = homology_profile(x)
    computed_c = cohomology_profile(x)
    predicted_h = {i: _predicted_homology(data, i) for i in range(k + 1)}
    predicted_c = {i: _predicted_cohomology(data, i) for i in range(k + 1)}
    match = all(
        computed_h[i] == predicted_h[i] and computed_c[i] == predicted_c[i]
        for i in range(k + 1)
    )
    euler = computed_h[k].free_rank - computed_h[k - 1].free_rank == len(data.subset) - 1
    return HomologyVerification(
        primes=data.primes,
        n=data.n,
        subset=data.subset,
        coeff_gcd=data.coeff_gcd,
        computed_homology=tuple(computed_h[i] for i in range(k + 1)),
        predicted_homology=tuple(predicted_h[i] for i in range(k + 1)),
        computed_cohomology=tuple(computed_c[i] for i in range(k + 1)),
        predicted_cohomology=tuple(predicted_c[i] for i in range(k + 1)),
        match=match,
        euler_poincare=euler,
        uct=uct_holds(computed_h, computed_c),
    )
