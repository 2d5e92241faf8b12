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

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, compress, cycle, islice
from math import gcd, prod
from operator import mul

from .complexes import (
    BalancedComplex,
    _assemble_cycles,
    _coboundary_columns,
    _coboundary_of,
    _cycle_groups,
    _dense,
    _peel,
    _radix,
    _translation_closed,
    nested_elements,
    uct_holds,
)
from .cyclotomic import _remainders, cyclotomic, euler_phi, eval_at_root, is_prime, vanishes_at_root
from .groups import FiniteAbelianGroup, GroupFunction, fourier_transform, product_group
from .intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    cokernel_structure,
    hermite_normal_form,
)


def check_primes(primes) -> tuple[int, ...]:
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("at least two primes required (top dimension >= 1)")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        # type, not isinstance, as for subset entries: 2.0 and True are not primes
        if type(p) is not int:
            raise ValueError(f"primes must be integers, not {p!r}")
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


def _crt_index(primes: tuple[int, ...], stop: int) -> list[int]:
    """The index (complexes._radix) of crt_split(primes, x) for x = 0, ...,
    stop - 1: the sum over i of (x mod p_i) * low_i, low_i the product of
    the primes after p_i. Each term steps through 0, low_i, ...,
    (p_i - 1) * low_i and wraps, so the indices are summed from one cycle
    per prime at C speed, with no point tuple and no division per residue.
    """
    terms = (cycle(range(0, block, low)) for _, low, block in _radix(family_colors(primes)))
    return list(islice(map(sum, zip(*terms)), stop))


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


def _family(primes) -> CycloComplexData:
    """The cached data of the empty subset: everything that depends on the
    primes alone, validated as check_primes does.

    The entries' types are checked before the cached lookup: (2.0, 3)
    equals (2, 3) as a key, so it would otherwise be answered by the
    record of (2, 3). That check is one C-level pass.
    """
    primes = tuple(primes)
    if list(map(type, primes)).count(int) != len(primes):
        check_primes(primes)  # raises, naming the entry
    return _family_record(primes)


@lru_cache(maxsize=8)
def _family_record(primes: tuple[int, ...]) -> CycloComplexData:
    """The cache behind _family: a few tuples of primes, each with Phi_n's
    coefficients (shared with cyclotomic's cache) and n - phi(n) upper
    residues; no CRT table."""
    primes = check_primes(primes)
    n = prod(primes)
    coeffs, unit = cyclotomic(n).coeffs, crt_unit(primes)
    return CycloComplexData(primes, (), n, euler_phi(n), upper_indices(n), coeffs, (), 0, unit)


def _check_subset(subset: tuple, totient: int) -> None:
    """ValueError unless every entry is an int in 0..totient, in C-level
    passes: the entries' types, then min and max."""
    # type, not isinstance: True is an int too, and nothing is truncated
    if list(map(type, subset)).count(int) != len(subset):
        bad = next(j for j in subset if type(j) is not int)
        raise ValueError(f"subset entries must be integers, not {bad!r}")
    if subset and not (0 <= min(subset) and max(subset) <= totient):
        raise ValueError(f"subset must lie in 0..{totient}")


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
        """Validate the primes and the subset and derive the data.

        Everything that depends on the primes alone (n, phi(n), the upper
        residues, Phi_n's coefficients and the CRT unit) is read off the
        cached data of the empty subset (_family); only the subset's
        fields are computed here, in O(|A| log |A|). ValueError names a
        non-int prime or subset entry (True included), and a subset
        outside 0..phi(n).
        """
        family = _family(primes)
        subset = tuple(subset)
        _check_subset(subset, family.totient)
        subset = tuple(sorted(set(subset)))
        sub = tuple(family.coeffs[j] for j in subset)
        return replace(family, subset=subset, subset_coeffs=sub, coeff_gcd=gcd(*sub))

    @property
    def top_indices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.subset) | set(self.upper)))

    @property
    def pullback_indices(self) -> tuple[int, ...]:
        """The top indices in descending order: the row order of the
        kernel's selection and of the pulled-back coboundary form."""
        return self.top_indices[::-1]


def build_family_complex(primes, subset):
    """The complex whose top cells are the CRT images of subset + upper part.

    >>> build_family_complex((2, 3), (0, 1, 2)).f_vector()
    (5, 6)
    >>> build_family_complex((2, 3), ()).f_vector()
    (5, 3)
    """
    data = CycloComplexData.build(primes, subset)
    colors = family_colors(data.primes)
    # every point but the free ones is a top cell, taken in nested_elements
    # order, which is the canonical order: no validation and no sort
    free = set(_free_indices(data))
    return BalancedComplex(colors, tuple(g for f, g in enumerate(nested_elements(colors)) if f not in free))


def _free_indices(data: CycloComplexData) -> list[int]:
    """The sorted indices of the free points: those of the CRT points of
    the free residues {0, ..., phi(n)} minus the subset (_crt_index)."""
    keep = bytearray(b"\x01") * (data.totient + 1)
    for j in data.subset:
        keep[j] = 0
    return sorted(compress(_crt_index(data.primes, data.totient + 1), keep))


@lru_cache(maxsize=8)
def _family_cycles(primes: tuple[int, ...]) -> tuple[tuple[dict[int, int], ...], list[int]]:
    """P_S, the restricted top cycles of the empty subset, once per tuple
    of primes: its rows (complexes._assemble_cycles over the sorted
    indices of the CRT points of the residues S = {0, ..., phi(n)}), and
    for each residue x its row. The rows come in index order, not residue
    order. Row x depends on x alone, so the cycle matrix P_A of any subset
    A is P_S without the rows of A (_cycle_rows). Every subset shares
    these rows, and no reader modifies them. At n = 2310 P_S has 481 rows
    and 3,487 entries, at n = 15015 5,761 rows and 73,920."""
    index = _crt_index(primes, prod(p - 1 for p in primes) + 1)
    order = sorted(range(len(index)), key=index.__getitem__)
    rows = _assemble_cycles(family_colors(primes), [index[x] for x in order])
    return rows, sorted(range(len(order)), key=order.__getitem__)


def _cycle_rows(data: CycloComplexData) -> tuple[dict[int, int], ...]:
    """The rows of P_A, as complexes._assemble_cycles gives them over
    _free_indices(data): the rows of the cached P_S (_family_cycles)
    outside the subset, kept in order by one compress and shared, not
    copied."""
    rows, row_of = _family_cycles(data.primes)
    keep = bytearray(b"\x01") * len(rows)
    for j in data.subset:
        keep[row_of[j]] = 0
    return tuple(compress(rows, keep))


def predicted_homology(primes, subset, i: int) -> AbelianGroupStructure:
    """Expected reduced homology in dimension i from the coefficient data.

    With d the gcd of the subset's cyclotomic coefficients (0 when they
    all vanish): dimension k-1 carries Z/d (so Z when d = 0), dimension k
    is free of rank |A| when d = 0 and |A|-1 otherwise, and every other
    dimension vanishes. The subset must be nonempty and 0 <= i <= k.
    """
    return _predicted_at(primes, subset, i)[0]


def predicted_cohomology(primes, subset, i: int) -> AbelianGroupStructure:
    """Expected reduced cohomology: Z^(|A|-1) + Z/d at the top, Z below it
    exactly when d = 0, zero elsewhere; as predicted_homology otherwise."""
    return _predicted_at(primes, subset, i)[1]


def _predicted_at(primes, subset, i: int) -> tuple[AbelianGroupStructure, AbelianGroupStructure]:
    homology, cohomology = _predicted_groups(CycloComplexData.build(primes, subset))
    if i not in homology:
        raise ValueError("dimension out of range")
    return homology[i], cohomology[i]


def _predicted_groups(data: CycloComplexData) -> tuple[dict, dict]:
    """Predicted reduced homology and cohomology, dimension -> group for
    0..k, in the shape of complexes._cycle_groups."""
    if not data.subset:
        raise ValueError("empty subsets are not covered by the closed form")
    k = len(data.primes) - 1
    d, size = data.coeff_gcd, len(data.subset)
    groups = AbelianGroupStructure.from_parts
    below = {i: groups(0) for i in range(k - 1)}
    homology = {**below, k - 1: groups(0, (d,)), k: groups(size if d == 0 else size - 1)}
    cohomology = {**below, k - 1: groups(1 if d == 0 else 0), k: groups(size - 1, (d,))}
    return homology, cohomology


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
    once here and not kept. Column n-1-t is the relation of residue t. The
    cache holds a few n; at n = 1155 one form is 1155 x 675.
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
    is brought to Hermite form once. No command reads it: it is the
    reference of the per-subset pullback comparison in the tests.
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
    points to residues (_crt_index); the form is eliminated from the
    sparse columns over those points alone and uses neither Phi_n nor its
    remainders.
    """
    index = list(map(_crt_index(data.primes, data.n).__getitem__, data.pullback_indices))
    return hermite_normal_form(_dense(len(index), _coboundary_columns(family_colors(data.primes), index)))


@lru_cache(maxsize=8)
def _pullback_certificate(primes: tuple[int, ...]) -> tuple[bool, bool, bool, dict[int, int], dict[int, int]]:
    """One exact certificate per prime tuple that the full join's top
    coboundary lattice, carried to Z_n (L_cob), equals the kernel L_ker of
    Z[Z_n] -> Z[zeta_n].

    Returns (contained, closed, solved, cochain, remainder), read off the
    sparse columns of the join's top coboundary with row x the CRT point
    of residue x (_coboundary_columns over _crt_index). That index is
    computed once, and the peel reads it too:
    - closed: L_cob is closed under multiplication by z: each column,
      shifted by one residue, is a column up to sign
      (complexes._translation_closed with the single move x -> x + 1).
    - contained: each column through residue 0, a base column of the
      join, read as c(z) = sum of its entries times z**x, is a multiple
      of Phi_n: c(z) times the cofactor (z**n - 1) / Phi_n is 0 mod
      z**n - 1, one sum of packed rotations of the cofactor per base
      column (cyclotomic.vanishes_at_root). With closed, a column c
      through x, shifted n - x times, is +-a column through 0, so
      z**(n-x) * c, and with it c, vanishes too: L_cob lies in L_ker.
    - cochain and remainder: the peel (complexes._peel) of f, the
      coefficients of Phi_n up to degree phi(n) and zero above.
    - solved: the columns applied to the cochain give f exactly, so Phi_n
      lies in L_cob; the peel itself is not trusted.
    With closed and solved, L_cob holds every z**j * Phi_n, which span
    L_ker as Phi_n is monic; with contained, L_cob = L_ker. At n = 2310
    the entry holds a cochain of 1181 entries; the columns are not kept.
    """
    n = prod(primes)
    phi = euler_phi(n)
    colors = family_colors(primes)
    index = _crt_index(primes, n)
    columns = _coboundary_columns(colors, index)
    contained = all(vanishes_at_root(column.items(), n) for column in columns if 0 in column)
    coeffs = cyclotomic(n).coeffs
    f = {x: coeffs[x] for x in range(phi + 1) if coeffs[x]}
    cochain, remainder = _peel(colors, index, columns, f)
    solved = _coboundary_of(columns, cochain) == f
    return contained, _translation_closed(columns, [[*range(1, n), 0]]), solved, cochain, remainder


def pullback_matches_root_kernel(primes, subset) -> bool:
    """Whether the pulled-back coboundary lattice equals the evaluation kernel's
    restriction to the top indices (root_relation_lattice).

    Every pullback item for one n shares one verdict: if the two lattices
    are equal on all of Z_n, their restrictions to any top index set are
    equal too. The subset is validated and the verdict read off
    _pullback_certificate, which uses neither a dense matrix nor the
    kernel's form. The per-subset Hermite comparison is the test oracle.

    An item costs O(|A|) once its n has been seen: the primes are looked
    up in the cached data of _family, and the subset gets the checks of
    CycloComplexData.build, with the same messages, in C-level passes
    (_check_subset); no CycloComplexData is built.
    """
    family = _family(primes)
    _check_subset(tuple(subset), family.totient)
    contained, closed, solved, *_ = _pullback_certificate(family.primes)
    return contained and closed and solved


def transform_pullback_check(primes, h: GroupFunction) -> bool:
    """Exact intertwining of the two Fourier transforms through the CRT map.

    For every residue m of Z_n, the Z_n-transform of the pullback of h,
    taken at unit * m, must equal the product-group transform of h at the
    character indexed by the CRT split of m; all n residues share one
    product-group transform. Also checks that multiplication by the unit
    permutes the units of Z_n.

    The Z_n side is summed in the group ring Z[Z_n], h(x) going into bucket
    residue(x) * unit * m mod n, and reduced to Z[zeta_n] once per m by
    eval_at_root. The twisted residue residue(x) * unit mod n is computed
    once per support point, before the loop over m. The Z_n side's
    exponents come from the CRT residues, the product-group side's from
    the pairing (fourier_transform's exponent rows); the two meet only as
    reduced values in Z[zeta_n]. A support point x has the index
    sum x_i * low_i (complexes._radix); _crt_index, inverted once per
    call, gives its residue.
    """
    data = CycloComplexData.build(primes, ())
    n = data.n
    if h.group != product_group(family_colors(data.primes)):
        raise ValueError("function does not live on the expected product group")
    units = {x for x in range(n) if gcd(x, n) == 1}
    if {(data.unit * x) % n for x in units} != units:
        return False
    residue = sorted(range(n), key=_crt_index(data.primes, n).__getitem__)
    weights = [low for _, low, _ in _radix(family_colors(data.primes))]
    twisted = [(residue[sum(map(mul, x, weights))] * data.unit % n, v) for x, v in h.values.items()]
    hat = fourier_transform(h)
    for m in range(n):
        buckets = [0] * n
        for r, v in twisted:
            buckets[r * m % n] += v
        if eval_at_root(buckets, n) != hat[tuple(m % p for p in data.primes)]:
            return False
    return True


def coefficient_vector_is_coboundary(primes) -> bool:
    """The truncated cyclotomic coefficient vector is a top coboundary.

    The function on Z_n equal to the coefficients of the n-th cyclotomic
    polynomial up to degree phi(n) and zero above, carried to the product
    group through the CRT map, must lie in the image of the top coboundary
    over the full join. The peel of _pullback_certificate gives a cochain
    for it, and the top coboundary applied to that cochain must give the
    vector back exactly.
    """
    data = CycloComplexData.build(primes, ())
    return _pullback_certificate(data.primes)[2]


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

    (a) Directly, as the cokernel of the evaluation kernel's form
    (_root_relation_kernel) at the top indices, its rows selected once in
    descending residue order (CycloComplexData.pullback_indices); (b) as the
    cokernel of the single column of subset coefficients. Both must give
    free rank |A|-1 plus one cyclic factor of order gcd. Additionally each
    upper index t is checked constructively: the selection's column for
    residue t, 1 at t and the negated power-basis coordinates of zeta_n**t
    at the subset indices, lies in the pulled-back coboundary lattice
    (_coboundary_form), which rewrites the class of t in subset classes
    inside the lattice the theorem is about. That form is eliminated from
    the coboundary alone, so the check does not test the kernel against
    itself. pullback_matches_root_kernel does not compare these lattices:
    it decides the same equality once per n, on the full join
    (_pullback_certificate).
    """
    data = CycloComplexData.build(primes, subset)
    if not data.subset:
        raise ValueError("presentation requires a nonempty subset")
    # row r of the kernel's form holds residue n-1-r, and so does column r
    selected = _root_relation_kernel(data.n).h.select_rows([data.n - 1 - x for x in data.pullback_indices])
    ambient = cokernel_structure(selected)
    small = cokernel_structure(IntMatrix.from_columns([data.subset_coeffs], rows=len(data.subset)))
    expected = AbelianGroupStructure.from_parts(len(data.subset) - 1, (data.coeff_gcd,))
    coboundary = _coboundary_form(data)
    checks = tuple((t, coboundary.contains(selected.column(data.n - 1 - t))) for t in data.upper)
    return PresentationReport(expected, ambient, small, checks)


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

    Every dimension 0..k is computed by complexes._cycle_groups, from the
    invariant factors of the join's top cycles restricted to the points
    outside the top cells: the matrix P_A, cut from the cached P_S of the
    primes by dropping the subset's rows (_cycle_rows). No complex is
    built and the join is not enumerated. Each subset still eliminates its
    own P_A, over its rows and over its columns, so nothing is inferred
    from P_S: it only saves assembling the same rows again. The groups are
    compared with the coefficient predictions, including the dimensions
    where the prediction is zero. That matrix uses neither Phi_n nor the
    Fourier argument, and no prediction feeds it, so the comparison is a
    real check. Universal-coefficient consistency of the two computed
    profiles, two separate eliminations, is checked alongside. So is the
    rank bookkeeping identity rank H_k - rank H_(k-1) = |A| - 1, but on
    this route it holds by construction: both ranks come from the same
    rank r, and their difference is the column count phi(n) minus the row
    count phi(n) + 1 - |A|. The tests check the reduced Euler
    characteristic against the f-vector independently.
    """
    data = CycloComplexData.build(primes, subset)
    if not data.subset:
        raise ValueError("verification requires a nonempty subset")
    k = len(data.primes) - 1
    computed_h, computed_c = _cycle_groups(k, _cycle_rows(data), data.totient)
    predicted_h, predicted_c = _predicted_groups(data)
    match = computed_h == predicted_h and computed_c == predicted_c
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
