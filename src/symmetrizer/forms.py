"""Symmetric d-linear forms over the rationals.

A form F is stored by the polynomial coefficients of P(x) = F(x, ..., x);
multilinear access goes through the alpha!/d! polarization factor, so the
polarized values are fully symmetric by construction. The canonical
monomial order everywhere is descending lexicographic. The `SymForm`
constructor owns it: it sorts the terms it is given into that order and
refuses a monomial given twice, so callers pass terms in any order.

Every symmetrizer test reads one table per form, cached on the instance
(`SymForm.hessian_table`): the Hessian slices H_beta[k][j] =
F(e_k, e_j, e^beta), one per degree-(d-2) monomial beta, side by side as
K[k][b·n + j] = H_b[k][j], b the index of beta in canonical order, in
integers over a common denominator. Each slice is symmetric, so its row
j is K[j][b·n:(b+1)·n]. g is in g_F iff every g^T H_beta is symmetric,
the constraint rows of g_F are the table's entries, and a pairing
F(u, w, e^beta) is u^T H_beta w. The symmetrizer test combines whole
rows: row_i = sum_k g[k][i]·K[k] holds (g^T H_b)[i][j] at b·n + j, so g
symmetrizes F iff row_i[j::n] = row_j[i::n] for every i < j, one
integer combination of table rows per column of g, skipping its zero
entries. The witness is the first mismatch, pairs (i, j) first, then
monomials beta.

The table answers Ker(∂F) too. Row i of the table, (H_beta[i][j]) over
all beta and j, holds F(e_i, e^gamma) with gamma = beta + e_j: row i of
the Jacobian with each column scaled by the positive factor
gamma!/(d-1)! and some columns repeated. So its left kernel is Ker(∂F);
rank n mod P of the table's own n rows proves that zero (a matrix has
the rank of its transpose), and otherwise the exact null space of the
table's transpose is the one of J^T, since both transposes have the
row space Ker(∂F)^⊥ and the rref depends only on the row space. The
Jacobian matrix and the inverse of its block on the pivot columns,
cached on the form, serve transport, which compares Jacobian images by
one exact product (see `algebra`).

The domain's constraints are not enforced here, since contraction and
Jacobian rows naturally produce lower-degree forms: a SymForm needs only
n >= 1 and d >= 0. Both boundaries, `parse_poly` and the corpus
generator, require d >= 3; only the generator requires n >= 2, so
`parse_poly("x0^3")` is a form in one variable. `parse_poly` and the
CLI's `generate` and `census` specs refuse a shape whose
`cost_estimate` exceeds MAX_CELLS, before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm, log10
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Vec,
    integer_row,
    nullspace,
    rank_mod_p,
    rref,
    vector,
)

Exponents = tuple[int, ...]


class DegenerateFormError(ValueError):
    """A nondegenerate form was required. Carries a kernel basis of ∂F."""

    def __init__(self, message: str, kernel: list[Vec]):
        super().__init__(message)
        self.kernel = kernel

    @classmethod
    def of(cls, F: "SymForm") -> "DegenerateFormError":
        """The engine's one error for a degenerate F, with Ker(∂F)."""
        return cls("form is degenerate; Im(∂F) has positive-dimensional kernel", jacobian_kernel(F))


class SizeLimitError(ValueError):
    """A form's shape costs more than MAX_CELLS (`check_size`)."""


class NotASymmetrizerError(ValueError):
    """Twist verification failed: F(g·v1, v2, ...) is not slot-symmetric.

    Attributes pin down one witness: the offending slot pair and the basis
    tuple on which the two evaluations differ.
    """

    def __init__(self, slot_pair: tuple[int, int], basis_tuple: tuple[int, ...]):
        super().__init__(
            f"not a symmetrizer: swapping slots {slot_pair} changes the value "
            f"on basis tuple {basis_tuple}"
        )
        self.slot_pair = slot_pair
        self.basis_tuple = basis_tuple


@lru_cache(maxsize=None)
def enumerate_monomials(nvars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent vectors of total degree `degree` in `nvars` variables,
    descending lexicographic. This order is canonical module-wide."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in enumerate_monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[Exponents, int]:
    return {a: i for i, a in enumerate(enumerate_monomials(nvars, degree))}


def monomial_count(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


@lru_cache(maxsize=None)
def _table_cells(alpha: Exponents) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(alpha!, cells): the (k, b·n + j) cells of the Hessian table that
    hold the value of x^alpha, one per k, j in its support with
    alpha - e_k - e_j = beta, the b-th degree-(d-2) monomial. Built once
    per monomial, like `monomial_index` once per shape."""
    n = len(alpha)
    index = monomial_index(n, sum(alpha) - 2)
    support = [i for i, e in enumerate(alpha) if e]
    cells = []
    for k in support:
        for j in support:
            beta = list(alpha)
            beta[k] -= 1
            beta[j] -= 1
            if beta[j] >= 0:  # k == j needs alpha[k] >= 2
                cells.append((k, index[tuple(beta)] * n + j))
    return alpha_factorial(alpha), tuple(cells)


def monomial_slots(alpha: Exponents) -> tuple[int, ...]:
    """Expand an exponent vector into the sorted tuple of slot indices it
    repeats, e.g. (2, 1) -> (0, 0, 1)."""
    return tuple(i for i, e in enumerate(alpha) for _ in range(e))


# the largest shape any command accepts; the largest benchmark input,
# the Fermat cubic in 9 variables, costs 26,250
MAX_CELLS = 10**6

# C(n+d-3, d-2) is computed with its lower index capped here, so the
# estimate stays cheap: exact when n <= 65 or d <= 66, and otherwise a
# lower bound above 2^64
_COMB_INDEX_CAP = 64


def cost_estimate(nvars: int, degree: int) -> int:
    """Work units a form of this shape costs before its first answer: the
    cells of its constraint system, C(n,2)·C(n+d-3, d-2) rows by n²
    unknowns, plus d·bitlength(d), a bound on the bit length of the
    polarization factor d! (so one variable of huge degree counts too).
    Cheap for any shape; past the cap above it is a lower bound."""
    n, d = nvars, degree
    k = max(min(n - 1, d - 2, _COMB_INDEX_CAP), 0)
    cells = comb(n, 2) * comb(n + d - 3, k) * n * n if d >= 2 else 0
    return cells + d * d.bit_length()


def check_size(nvars: int, degree: int) -> None:
    """Raise SizeLimitError when the shape's cost estimate exceeds
    MAX_CELLS."""
    estimate = cost_estimate(nvars, degree)
    if estimate > MAX_CELLS:
        raise SizeLimitError(
            f"n = {nvars}, d = {degree}: estimated cost "
            f"{_scientific(estimate)} cells exceeds the limit {MAX_CELLS}"
        )


def _scientific(x: int) -> str:
    """x itself below a million, else d.dde+k (any size of int)."""
    if x < 10**6:
        return str(x)
    e = int(log10(x))
    m = round(10 ** (log10(x) - e), 2)
    if m >= 10:
        m, e = m / 10, e + 1
    return f"{m:.2f}e+{e}"


def basis_vector(nvars: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(nvars))


def alpha_factorial(alpha: Exponents) -> int:
    out = 1
    for e in alpha:
        out *= factorial(e)
    return out


@dataclass(frozen=True)
class SymForm:
    """Symmetric multilinear form of arity `degree` on Q^nvars.

    `terms` holds (exponents, coefficient) pairs for the defining
    polynomial. The constructor sorts them into the canonical monomial
    order and refuses a zero coefficient or a monomial given twice, so
    equality of forms is equality of the dataclass whatever order the
    terms came in. `from_coeffs` merges repeats and drops zeros first.
    """

    nvars: int
    degree: int
    terms: tuple[tuple[Exponents, Fraction], ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.degree < 0:
            raise ValueError("negative degree")
        terms = tuple(sorted(self.terms, reverse=True))
        previous = None
        for alpha, c in terms:
            if len(alpha) != self.nvars or any(e < 0 for e in alpha):
                raise ValueError(f"bad exponent vector {alpha}")
            if sum(alpha) != self.degree:
                raise ValueError(
                    f"exponent vector {alpha} is not homogeneous of degree {self.degree}"
                )
            if c == 0:
                raise ValueError("zero coefficient stored; use from_coeffs")
            if alpha == previous:
                raise ValueError(f"monomial {alpha} stored twice; use from_coeffs")
            previous = alpha
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_coeffs(
        nvars: int,
        degree: int,
        coeffs: Mapping[Exponents, object] | Iterable[tuple[Exponents, object]],
    ) -> "SymForm":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[Exponents, Fraction] = {}
        for alpha, c in items:
            alpha = tuple(map(int, alpha))
            c = c if type(c) is Fraction else Fraction(c)
            merged[alpha] = merged[alpha] + c if alpha in merged else c
        order = monomial_index(nvars, degree)
        unknown = [a for a in merged if a not in order]
        if unknown:
            raise ValueError(f"exponent vector {unknown[0]} out of range")
        return SymForm(nvars, degree, tuple((a, c) for a, c in merged.items() if c))

    @staticmethod
    def zero(nvars: int, degree: int) -> "SymForm":
        return SymForm(nvars, degree, ())

    @cached_property
    def coeff_map(self) -> dict[Exponents, Fraction]:
        return dict(self.terms)

    @cached_property
    def hessian_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, K) with K[k][b·n + j] / den = H_b[k][j] = F(e_k, e_j, e^beta)
        for the b-th degree-(d-2) monomial beta in canonical order: row k
        of every Hessian slice side by side. Each slice is a symmetric
        n×n integer matrix, so its row j is K[j][b·n:(b+1)·n].

        F(e^alpha) = c·alpha!/d!, so over D = L·d!, L the lcm of the
        coefficient denominators, every value is the integer N = c·L·alpha!.
        Dividing D and every N by their gcd g leaves den = D/g, which is the
        lcm of the values' reduced denominators D/gcd(D, N), with no
        Fraction built. Each term's alpha! and cells come from
        `_table_cells`, planned once per monomial."""
        n, d = self.nvars, self.degree
        lc = lcm(*(c.denominator for _, c in self.terms))
        plans = [_table_cells(alpha) for alpha, _ in self.terms]
        nums = [
            c.numerator * (lc // c.denominator) * f for (_, c), (f, _) in zip(self.terms, plans)
        ]
        D = lc * factorial(d)
        g = gcd(D, *nums)
        den = D // g
        K = [[0] * (monomial_count(n, d - 2) * n) for _ in range(n)]
        for (_, cells), v in zip(plans, nums):
            v //= g
            for k, col in cells:
                K[k][col] = v
        return den, tuple(map(tuple, K))

    @cached_property
    def jacobian_kernel(self) -> tuple[Vec, ...]:
        """Basis of Ker(∂F), read off the Hessian table (see the module
        docstring): empty when rank mod P proves it zero, else the exact
        null space. Forms of degree below 2 have no table."""
        if self.degree < 2:
            raise ValueError("the kernel of ∂F is read off the Hessian table: need degree >= 2")
        n, K = self.nvars, self.hessian_table[1]
        # K and its transpose have one rank; the kernel is the transpose's
        if rank_mod_p(K, len(K[0])) == n:
            return ()
        # column b·n + j of the table is column j of H_b, so its row j
        rows = tuple(c for c in zip(*K) if any(c))
        return tuple(nullspace(Matrix(rows, 1, n)))

    @cached_property
    def jacobian(self) -> Matrix:
        """Row i holds the coefficients of (1/d) ∂P/∂x_i, i.e. of the
        contraction F(e_i, ., ..., .), in the canonical degree-(d-1) order."""
        n = self.nvars
        rows = [self.contract(basis_vector(n, i)).coeff_vector() for i in range(n)]
        return Matrix.from_rows(rows, monomial_count(n, self.degree - 1))

    @cached_property
    def jacobian_pivot_inverse(self) -> tuple[tuple[int, ...], Matrix]:
        """(p, E): the pivot columns p of the Jacobian's rref and the
        inverse E of its n×n block on them. The pivot columns of a matrix
        are independent, so the block is invertible exactly when the rank
        is n: a degenerate form is refused with `DegenerateFormError`."""
        _, pivots, rank = rref(self.jacobian)
        if rank != self.nvars:
            raise DegenerateFormError.of(self)
        return pivots, pivot_columns(self.jacobian, pivots).inverse()

    def coeff_vector(self) -> Vec:
        """Coefficients in the canonical monomial order, dense."""
        cm = self.coeff_map
        return tuple(
            cm.get(a, Fraction(0)) for a in enumerate_monomials(self.nvars, self.degree)
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def contract(self, u: Sequence) -> "SymForm":
        """The (degree-1)-form F(u, ., ..., .) = (1/d) * directional
        derivative of the defining polynomial along u."""
        if self.degree < 1:
            raise ValueError("cannot contract a 0-form")
        u = vector(u)
        if len(u) != self.nvars:
            raise ValueError("shape mismatch")
        d = self.degree
        out: dict[Exponents, Fraction] = {}
        for alpha, c in self.terms:
            for i, e in enumerate(alpha):
                if e == 0 or u[i] == 0:
                    continue
                beta = alpha[:i] + (e - 1,) + alpha[i + 1 :]
                out[beta] = out.get(beta, Fraction(0)) + Fraction(e, d) * u[i] * c
        return SymForm.from_coeffs(self.nvars, d - 1, out)

    def evaluate(self, *vectors: Sequence) -> Fraction:
        """Multilinear value F(v1, ..., vd) by iterated contraction."""
        if len(vectors) != self.degree:
            raise ValueError("argument count must equal the arity")
        g: SymForm = self
        for v in vectors:
            g = g.contract(v)
        return g.coeff_map.get((0,) * self.nvars, Fraction(0))

    def __str__(self) -> str:
        from .polytext import format_poly

        return format_poly(self)


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of projective space; first nonzero coordinate normalized to 1."""

    coords: Vec

    @staticmethod
    def from_vector(v: Sequence) -> "ProjectivePoint":
        v = vector(v)
        lead = next((x for x in v if x != 0), None)
        if lead is None:
            raise ValueError("the zero vector does not define a projective point")
        return ProjectivePoint(tuple(x / lead for x in v))

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "[" + " : ".join(str(x) for x in self.coords) + "]"


@dataclass(frozen=True)
class GrassmannPoint:
    """Canonical representative of Im(∂F) inside degree-(d-1) forms.

    `basis` is the reduced echelon form of the Jacobian matrix; since the
    echelon form is unique for the row space, two forms get equal points
    exactly when their Jacobian images agree.
    """

    nvars: int
    degree: int
    basis: Matrix


def jacobian_matrix(F: SymForm) -> Matrix:
    """The Jacobian matrix of F, built once per form (`SymForm.jacobian`)."""
    return F.jacobian


def jacobian_kernel(F: SymForm) -> list[Vec]:
    """Basis of Ker(∂F) = directions u with F(u, ., ..., .) = 0, built
    once per form (`SymForm.jacobian_kernel`)."""
    return list(F.jacobian_kernel)


def is_nondegenerate(F: SymForm) -> bool:
    return not F.jacobian_kernel


def pivot_columns(M: Matrix, columns: Sequence[int]) -> Matrix:
    """The columns of M at these indices, in this order."""
    return Matrix(tuple(tuple(r[c] for c in columns) for r in M.ints), M.den, len(columns))


def grassmann_point(F: SymForm) -> GrassmannPoint:
    """The point J(F): the span of the partial derivatives, canonically.

    Only defined away from cones, so degenerate forms are refused. No
    command computes it: transport compares images by one product.
    """
    red, _, rank = rref(F.jacobian)
    if rank != F.nvars:
        raise DegenerateFormError.of(F)
    return GrassmannPoint(F.nvars, F.degree, red)


def symmetry_violation(
    F: SymForm, g: Matrix
) -> tuple[tuple[int, int], tuple[int, ...]] | None:
    """Search for a witness that g fails to symmetrize F.

    F(g·e_i, e_j, e^beta) = (g^T H_beta)[i][j], so g symmetrizes F iff
    every g^T H_beta is symmetric, which combinations of the rows of
    `SymForm.hessian_table` decide (see the module docstring). The
    witness is the first pair i < j whose slices differ, at the first
    monomial beta where they do. Symmetry of F in its last d-1 slots
    makes this single swap equivalent to full slot-symmetry of the twist.
    """
    _require_endomorphism(F, g)
    n = F.nvars
    K = F.hessian_table[1]
    rows = []
    for col in zip(*g.ints):
        row = None
        for c, Kk in zip(col, K):
            if c:
                scaled = Kk if c == 1 else tuple(map(c.__mul__, Kk))
                row = scaled if row is None else tuple(map(add, row, scaled))
        rows.append((0,) * len(K[0]) if row is None else row)
    for i in range(n):
        for j in range(i + 1, n):
            mine, theirs = rows[i][j::n], rows[j][i::n]
            if mine != theirs:
                b = next(b for b, (x, y) in enumerate(zip(mine, theirs)) if x != y)
                beta = enumerate_monomials(n, F.degree - 2)[b]
                return (0, 1), (i, j) + monomial_slots(beta)
    return None


def _require_endomorphism(F: SymForm, g: Matrix) -> None:
    if g.nrows != F.nvars or g.ncols != F.nvars:
        raise ValueError("endomorphism dimension must match the form")


def pairings_vanish(F: SymForm, us: Sequence[Sequence], ws: Sequence[Sequence]) -> bool:
    """True iff F(u, w, e^beta) = u^T H_beta w is 0 for every u in `us`,
    w in `ws` (rational or integer entries) and degree-(d-2) monomial beta."""
    n, K = F.nvars, F.hessian_table[1]
    us = [integer_row(u)[1] for u in us]
    for w in ws:
        _, w = integer_row(w)
        for b in range(0, len(K[0]), n):
            Hw = [sum(map(mul, row[b:b + n], w)) for row in K]
            if any(sum(map(mul, u, Hw)) for u in us):
                return False
    return True


def is_symmetrizer(F: SymForm, g: Matrix) -> bool:
    return symmetry_violation(F, g) is None


def twist(F: SymForm, g: Matrix, check: bool = True) -> SymForm:
    """The form F^g with values F(g·v1, v2, ..., vd).

    With `check` on (the default), g is first verified to be a
    symmetrizer, which is exactly the condition for F^g to be symmetric.
    With `check` off the result is the symmetrization of the values.
    Either way g must be n×n.
    """
    _require_endomorphism(F, g)
    if check:
        witness = symmetry_violation(F, g)
        if witness is not None:
            raise NotASymmetrizerError(*witness)
    n, d = F.nvars, F.degree
    # every e * c * g_ij as an integer over den = d * g.den * lcm(c.denominator)
    lc = lcm(*(c.denominator for _, c in F.terms))
    den = d * g.den * lc
    out: dict[Exponents, int] = {}
    for alpha, c in F.terms:
        c = c.numerator * (lc // c.denominator)
        for i, e in enumerate(alpha):
            if e == 0:
                continue
            # (1/d) * x_i-partial, then multiply by the linear form (g·x)_i
            base = alpha[:i] + (e - 1,) + alpha[i + 1 :]
            scale = e * c
            for j, gij in enumerate(g.ints[i]):
                if gij == 0:
                    continue
                beta = base[:j] + (base[j] + 1,) + base[j + 1 :]
                out[beta] = out.get(beta, 0) + scale * gij
    return SymForm(n, d, tuple((beta, Fraction(v, den)) for beta, v in out.items() if v))


def vanishing_order(F: SymForm, u: Sequence | ProjectivePoint) -> int:
    """Order of vanishing of F at [u]: the least k such that some value
    F(u, ..., u, v1, ..., vk) with d-k copies of u is nonzero; d if F = 0.

    0 means [u] is off the hypersurface; >= 2 means a singular point.
    Scaling-invariant in u.
    """
    coords = u.coords if isinstance(u, ProjectivePoint) else vector(u)
    if not any(coords):
        raise ValueError("vanishing order needs a nonzero vector")
    if len(coords) != F.nvars:
        raise ValueError("shape mismatch")
    deepest = -1
    g = F
    for j in range(F.degree + 1):
        if not g.is_zero:
            deepest = j
        if j < F.degree:
            g = g.contract(coords)
    if deepest < 0:
        return F.degree
    return F.degree - deepest


def compose_linear(F: SymForm, A: Matrix) -> SymForm:
    """The m-form (v1, ..., vd) -> F(A·v1, ..., A·vd) for an n × m matrix A,
    n = F.nvars: its polynomial is P(A·y) in m variables y.

    A square invertible A changes coordinates. A narrow A (m < n) with
    independent columns restricts F to their span, in the coordinates the
    columns give. A wide A whose rows are distinct rows of the m × m
    identity moves F's variables to those positions among m variables.
    """
    n, m = F.nvars, A.ncols
    if A.nrows != n:
        raise ValueError("substitution needs one row per variable of the form")
    # row i of A gives the substitution x_i -> sum_j A[i][j] * y_j
    unit = lambda j: tuple(1 if k == j else 0 for k in range(m))
    images = [{unit(j): a for j, a in enumerate(row) if a != 0} for row in A.rows]
    out: dict[Exponents, Fraction] = {}
    for alpha, c in F.terms:
        acc: dict[Exponents, Fraction] = {(0,) * m: c}
        for i, e in enumerate(alpha):
            for _ in range(e):
                nxt: dict[Exponents, Fraction] = {}
                for mono, mc in acc.items():
                    for lin, lc in images[i].items():
                        key = tuple(a + b for a, b in zip(mono, lin))
                        nxt[key] = nxt.get(key, Fraction(0)) + mc * lc
                acc = nxt
        for mono, mc in acc.items():
            out[mono] = out.get(mono, Fraction(0)) + mc
    return SymForm.from_coeffs(m, F.degree, out)
