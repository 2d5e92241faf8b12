"""Reference routes that the closed forms in balacyc replaced.

Each is the generic computation the library used before it switched to a
closed form, to a Hermite form or to a faster elimination. They are slow
but follow the definitions directly, so the tests compare the library's
results against them.
"""

from __future__ import annotations

from functools import lru_cache

from balacyc.complexes import BalancedComplex, _boundary_columns, _with_rows
from balacyc.cyclotomic import CycInt, IntPoly, divisors, euler_phi, root_power, xn_minus_1
from balacyc.groups import positive_dual_block, product_group
from balacyc.intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    smith_normal_form,
    sparse_invariant_factors,
)


def smith_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Saturated kernel of m: the trailing columns of the Smith column transform v."""
    snf = smith_normal_form(m)
    return IntMatrix.from_columns([snf.v.column(j) for j in range(snf.rank, m.cols)], rows=m.cols)


def smith_solve(m: IntMatrix, b) -> tuple[int, ...] | None:
    """An integer x with m @ x = b, or None, through u @ m @ v = d.

    With c = u @ b, the system d @ y = c is diagonal: y[i] = c[i] / d[i]
    must be exact for i < rank and c must vanish below; then x = v @ y.
    """
    snf = smith_normal_form(m)
    c = snf.u.apply(b)
    y = [0] * m.cols
    for i, ci in enumerate(c):
        if i < snf.rank:
            di = snf.d.at(i, i)
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return snf.v.apply(y)


def reference_hermite_normal_form(m: IntMatrix) -> HermiteForm:
    """Column-style Hermite normal form, back-reducing inside the echelon pass.

    At each new pivot the earlier, still unfinished columns are reduced
    against it over their full length.

    Column operations only (right-unimodular), so the column lattice is
    preserved; zero columns are dropped from the result. The output is the
    unique canonical basis described on HermiteForm.
    """
    rows, cols = m.rows, m.cols
    # work column-major
    c = [list(m.column(j)) for j in range(cols)]
    piv = 0
    for r in range(rows):
        best = None
        for j in range(piv, cols):
            x = c[j][r]
            if x and (best is None or abs(x) < abs(c[best][r])):
                best = j
                if abs(x) == 1:
                    break
        if best is None:
            continue
        c[piv], c[best] = c[best], c[piv]
        while True:
            for j in range(piv + 1, cols):
                x = c[j][r]
                if x:
                    q = x // c[piv][r]
                    c[j] = [y - q * z for y, z in zip(c[j], c[piv])]
            nxt = None
            for j in range(piv + 1, cols):
                x = c[j][r]
                if x and (nxt is None or abs(x) < abs(c[nxt][r])):
                    nxt = j
            if nxt is None:
                break
            c[piv], c[nxt] = c[nxt], c[piv]
        if c[piv][r] < 0:
            c[piv] = [-y for y in c[piv]]
        p = c[piv][r]
        for j in range(piv):
            q = c[j][r] // p
            if q:
                c[j] = [y - q * z for y, z in zip(c[j], c[piv])]
        piv += 1
        if piv == cols:
            break
    basis = c[:piv]
    return HermiteForm(IntMatrix(rows, piv, tuple(basis[j][i] for i in range(rows) for j in range(piv))))


@lru_cache(maxsize=None)
def cofactor_cyclotomic(n: int) -> IntPoly:
    """Phi_n as z**n - 1 divided by the product of Phi_d over the proper divisors d."""
    if n == 1:
        return IntPoly((-1, 1))
    cofactor = IntPoly((1,))
    for d in divisors(n)[:-1]:
        cofactor = cofactor * cofactor_cyclotomic(d)
    quot, rem = divmod(xn_minus_1(n), cofactor)
    assert rem.is_zero()
    return quot


def evaluation_kernel(n: int) -> IntMatrix:
    """Saturated kernel of Z[Z_n] -> Z[zeta_n] from the Smith column transform.

    Column l of the evaluated matrix holds the power-basis coordinates of
    zeta_n**l.
    """
    cols = [root_power(n, e).coords for e in range(n)]
    return smith_kernel_basis(IntMatrix.from_columns(cols, rows=euler_phi(n)))


def full_block_vanishing_matrix(colors) -> IntMatrix:
    """phi(N) coordinate rows for every character nontrivial in every slot."""
    colors = tuple(colors)
    g = product_group(colors)
    phi = euler_phi(g.exponent)
    points = g.elements()
    rows = []
    for chi in positive_dual_block(colors):
        cols = [g.char_value(chi, x).coords for x in points]
        for t in range(phi):
            rows.append([col[t] for col in cols])
    if not rows:
        return IntMatrix.zero(0, len(points))
    return IntMatrix.from_rows(rows)


def termwise_fourier_transform(f) -> dict:
    """Each character sum built one CycInt product and sum per term."""
    g = f.group
    n = g.exponent
    out = {}
    for chi in g.characters():
        acc = CycInt.zero(n)
        for x, v in f.values.items():
            acc = acc + v * g.char_value(chi, x)
        out[chi] = acc
    return out


def termwise_inversion_check(f) -> bool:
    """|G| * f(x) = sum_chi fhat(chi) * chi(-x), one CycInt product per term."""
    g = f.group
    n = g.exponent
    hat = termwise_fourier_transform(f)
    for x in g.elements():
        neg = g.neg(x)
        rhs = CycInt.zero(n)
        for chi, val in hat.items():
            rhs = rhs + val * g.char_value(chi, neg)
        if rhs != CycInt.from_int(n, g.order * f(x)):
            return False
    return True


def _boundary_factors(x: BalancedComplex, i: int, over_columns: bool) -> tuple[int, ...]:
    """Invariant factors of the boundary map from i-chains.

    Eliminated over its rows, or over its columns (the coboundary) when
    over_columns is set. One above the top dimension the map is zero.
    Kept on the complex; the boundary map itself is not.
    """
    if i == x.top_dim + 1:
        return ()
    key = ("factors", i, over_columns)
    if key not in x._memo:
        rows, columns = _with_rows(*_boundary_columns(x, i))
        x._memo[key] = sparse_invariant_factors(columns if over_columns else rows)
    return x._memo[key]


def reduced_homology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral homology in dimension i, from invariant factors.

    Each boundary is reduced by sparse unit-pivot elimination over its
    rows, with a dense Smith form of the leftover core.
    """
    down = _boundary_factors(x, i, False)
    up = _boundary_factors(x, i + 1, False)
    free = x.f_vector()[i] - len(down) - len(up)
    return AbelianGroupStructure.from_parts(free, tuple(d for d in up if d > 1))


def reduced_cohomology(x: BalancedComplex, i: int) -> AbelianGroupStructure:
    """Reduced integral cohomology in dimension i, from the coboundaries.

    Computed directly from the coboundary complex rather than by dualizing
    homology: each boundary is eliminated over its columns, a separate run
    with its own pivot order, so universal-coefficient consistency with
    reduced_homology cross-checks two eliminations.
    """
    into = _boundary_factors(x, i, True)
    out_of = _boundary_factors(x, i + 1, True)
    free = x.f_vector()[i] - len(into) - len(out_of)
    return AbelianGroupStructure.from_parts(free, tuple(d for d in into if d > 1))


def boundary_homology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    """Reduced homology in every dimension 0..k from the boundary maps of x."""
    return {i: reduced_homology(x, i) for i in range(x.top_dim + 1)}


def boundary_cohomology_profile(x: BalancedComplex) -> dict[int, AbelianGroupStructure]:
    """Reduced cohomology in every dimension 0..k from the coboundary maps of x."""
    return {i: reduced_cohomology(x, i) for i in range(x.top_dim + 1)}
