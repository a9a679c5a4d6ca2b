"""Symmetrizer algebras and everything they force.

For a symmetric d-form F, the symmetrizer algebra g_F is the space of
endomorphisms g with F(g·v1, v2, ..., vd) still fully symmetric. This
module computes g_F exactly, splits it into semisimple (torus) and
nilpotent (unipotent) parts, derives direct-sum decompositions of F from
the torus, locates the singular points forced by square-zero nilpotents,
and transports forms along shared Jacobian images. Identity checks over
all of these are bundled at the end; a failing check is an engine bug,
never a property of the input.

g_F is read off the Hessian pencil. g is in g_F iff every H_beta g is
symmetric, i.e. g^T H_beta = H_beta g, so also for H = sum_b H_b and
H' = sum_b (b + 1) H_b. (A) When H has rank n mod P it is invertible,
g^T = H g H^-1, and g commutes with M = H^-1 H'. (B) When the integer
flats of I, M, ..., M^(n-1) have rank n mod P, M is nonderogatory, so
its centralizer is Q[M] and g_F lies in it. (B) and the rank of R below
are computed on M mod P: M's denominators divide det H, a unit mod P by
(A), so M^k mod P is a unit multiple of M^k's integer flat, and each
column of R mod P a unit multiple of its integer column. Then
g = sum_k a_k M^k is in g_F iff a is in the kernel of R, the system with
one row per (i < j, beta) and column k holding (H_beta M^k)[j][i] -
(H_beta M^k)[i][j]: n unknowns against the n² of `constraint_matrix`.
Column 0 is zero, and so is every row of H and H' themselves (both
H M^k and H' M^k are symmetric).

R is not built: its sketch R_c is, the rows of the single slices
H_c = sum_b c^b H_b for c in `SKETCH`, taken mod P. Every row of R_c is
a combination of rows of R, so rank R_c <= rank R mod P <= rank R over
Q, and dim g_F <= n - rank R_c. Rank n - 1 proves g_F = <I> with no
exact elimination. Otherwise the kernel of R_c mod P, with I, gives
n - rank R_c elements sum_k a_k M^k mod P, independent by (B); their
reduced echelon form mod P with the columns reversed (the order of
`PivotBasis(..., last=True)`) is reconstructed entry by entry as
fractions with |num|, den <= sqrt(P/2) = 23,170 (Wang, Guy and
Davenport; P = 2^30 − 35 keeps every residue one digit of a CPython
int), and each matrix must pass the exact integer test
`symmetry_violation`.
Those that pass lie in g_F; reconstruction keeps every 0 and 1, so they
are still in reduced echelon form, with distinct pivots, and
independent; they number n - rank R_c >= dim g_F, so they are a basis
of g_F. A space has one reduced echelon basis, so they are exactly the
basis `nullspace(constraint_matrix(F))` gives. None of this depends on
the prime, and a refused candidate set is never returned: when an entry
does not reconstruct (it lies past the bound, or P divides a
denominator) or a test fails, the exact kernel of R over the exact
powers of M gives g_F. Under (A), F is nondegenerate: H u = 0 for every
u in Ker ∂F, and H is invertible. When (A) or (B) fails (cones, forms
with a vanishing Hessian, a derogatory M), g_F is the exact null space
of `constraint_matrix`, which gives the same canonical basis.

So every basis `symmetrizer_algebra` returns is in free-column shape,
the reduced echelon form with the columns reversed: each element b is 1
at its free column c_b, its last nonzero entry, and 0 at every other
element's free column. Then g = sum_b a_b b forces a_b = g[c_b], and g
is in g_F exactly when g - sum_b g[c_b] b = 0, one integer pass with no
elimination (`SymmetrizerAlgebra.contains`, by `linalg.PivotBasis`).
Each route builds its basis in that shape, with its pivots: the
reduced rows mod P read back, the exact route's `PivotBasis` and the
constraint system's `integer_nullspace`. `SymmetrizerAlgebra.from_bases`
keeps it as it is, and puts in that shape only a basis put together
otherwise (`dataclasses.replace`); a space has one such basis, so its
length is the dimension and equality with `integer_nullspace`'s basis
is equality of spans. The trace-form radical below is kept in reduced
echelon form and handed over the same way, and `nilpotent_report` reads
coordinates over it at its pivot columns and checks the residue the
same way.

The identity suite's fiber check proves, for every invertible g in g_F,
that g_{F^g} = g_F, Ker ∂F^g = g^-1·Ker ∂F and J(F^g) = g^T·J_F, from
the basis alone. `twist` is linear in g (its body is one sum over g's
entries), so once K(F^b) = b^T·K(F) holds on the Hessian tables for
every basis element b, singular ones included, it holds on all of g_F.
That says J(F^g) = g^T·J_F: every table column is a Jacobian column
gamma scaled by gamma!/(d-1)! > 0, and every Jacobian column occurs in
the table. So u is in Ker ∂F^g exactly when g·u is in Ker ∂F. Next,
H^g_beta = g^T H_beta = H_beta g, so h is in g_{F^g} exactly when every
H_beta g h is symmetric, i.e. when g h is in g_F: g_{F^g} = g^-1·g_F. By
Cayley–Hamilton g^-1 is a polynomial in g, so it lies in g_F by the
suite's `identity_element` and `product_closure`, and g^-1·g_F = g_F.
What is left to check independently is g_F itself, once, at g = I:
every basis element symmetrizes F, and dim g_F is bounded on F's own
pencil by the certificates (`_pencil_certificates`, which `_pencil_basis`
shares; its basis is not read): when (A) and (B) hold,
dim g_F = n - rank R <= n - rank of the sketch. Only when a certificate
fails or that bound exceeds the basis's dimension are the n²-wide rows
of `constraint_matrix(F)` ranked mod P, and their exact null space is
compared only when that falls short too. For a degenerate F each b also
maps Ker ∂F into itself (F(b·v, x, ...) = F(v, b·x, ...) = 0 for v in
it), which the suite tests as v^T·(b^T·K(F)) = 0; so g^-1·Ker ∂F is
Ker ∂F. `fiber_invariance_check` stays as the same check for one g,
with the bound read off the pencil of F^g.

Transport decides fiber membership by one exact product, J_Ft = g^T·J_F
with g invertible and g^T read off F's pivot block. No Grassmann point
is computed.

The unipotent part of a nondegenerate g_F is the radical of its trace
form (x, y) -> tr(xy) (Dickson's criterion): the kernel of the Gram
matrix G_ij = tr(b_i b_j) on the basis. (a) A nilpotent x commuting with
y makes xy nilpotent, so tr(xy) = 0; (b) a radical x has tr(x^m) = 0 for
every m >= 1, so x is nilpotent in characteristic 0. So the radical is
exactly the set of nilpotent elements of the commutative algebra g_F,
which is the span of the Jordan–Chevalley nilpotent parts of the basis;
full rank of G mod P proves it zero. The split parts themselves are
computed only when something asks for them: the torus for
`st_decompose`, and both parts for the split checks of the suite, which
compare their spans with the radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import comb, lcm
from operator import mul, sub
from typing import Sequence

from .forms import (
    DegenerateFormError,
    NotASymmetrizerError,
    ProjectivePoint,
    SymForm,
    compose_linear,
    is_nondegenerate,
    jacobian_kernel,
    jacobian_matrix,
    pairings_vanish,
    pivot_columns,
    symmetry_violation,
    twist,
    vanishing_order,
)
from .linalg import (
    InvariantError,
    Matrix,
    PivotBasis,
    Span,
    Vec,
    integer_nullspace,
    is_invertible,
    jordan_chevalley,
    kernel_mod_p,
    minimal_polynomial,
    nilpotency_index,
    nullspace,
    poly_at_matrix,
    rank_mod_p,
    rational_row_mod_p,
    rref_mod_p,
    solve_matrix,
    solve_mod_p,
)
from .polys import P, Poly, factor_rational, is_squarefree, poly_gcd
from .rng import SplitMix64


class FiberMismatchError(ValueError):
    """The two forms lie in different fibers of the Jacobian map (different
    images, or different shapes); no transport exists."""


# ---------------------------------------------------------------------------
# The algebra itself


def constraint_matrix(F: SymForm) -> Matrix:
    """Linear system cutting out g_F inside End(V), flattened row-major.

    One row per (pair i < j, degree-(d-2) monomial beta), encoding

        sum_k g[k][i] F(e_k, e_j, e^beta) - sum_k g[k][j] F(e_k, e_i, e^beta) = 0,

    i.e. the slot-1/slot-2 swap symmetry of F(g·v1, v2, ...). Since F is
    already symmetric in slots 2..d, this single swap is equivalent to
    symmetry under every permutation, so the nullspace is exactly g_F.
    The unknown g[k][i] sits at flat index k*n + i, so the row is row j
    of slice b, K[j][b·n:(b+1)·n], at stride n from i, minus row i from
    j, over the denominator of the table K (`SymForm.hessian_table`).

    `symmetrizer_algebra` solves this n²-unknown system only when a
    certificate of the pencil route fails (see the module docstring);
    it is also that route's test oracle, and the fiber check's system.
    """
    n = F.nvars
    den, K = F.hessian_table
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(0, len(K[0]), n):
                row = [0] * (n * n)
                row[i::n] = K[j][b:b + n]
                row[j::n] = [-x for x in K[i][b:b + n]]
                rows.append(tuple(row))
    return Matrix(tuple(rows), den, n * n)


@dataclass(frozen=True)
class SymmetrizerAlgebra:
    """g_F with its semisimple/nilpotent split.

    The split fields are None when the form is degenerate: commutativity
    can fail there, and with it the meaning of the torus/unipotent split.
    dim_total = 1 + dim_torus + dim_unipotent always holds when populated.
    `unipotent_basis` is the trace-form radical; the Jordan–Chevalley
    parts of the basis elements are computed on first access.
    """

    form: SymForm
    basis: tuple[Matrix, ...]
    unipotent_basis: tuple[Matrix, ...] | None
    dim_total: int
    dim_torus: int | None
    dim_unipotent: int | None

    @property
    def nondegenerate(self) -> bool:
        return self.dim_torus is not None

    @classmethod
    def from_bases(
        cls, F: SymForm, canonical: PivotBasis, radical: PivotBasis | None
    ) -> SymmetrizerAlgebra:
        """g_F from its free-column basis and, for nondegenerate F, the
        rref basis of its trace-form radical (None for degenerate F), both
        kept as `_canonical` and `_radical`: neither is eliminated again."""
        n = F.nvars
        basis = _matrices(canonical, n)
        unipotent = dim_torus = dim_unip = None
        if radical is not None:
            unipotent = _matrices(radical, n)
            dim_unip = len(unipotent)
            dim_torus = len(basis) - 1 - dim_unip
        A = cls(
            form=F, basis=basis, unipotent_basis=unipotent,
            dim_total=len(basis), dim_torus=dim_torus, dim_unipotent=dim_unip,
        )
        vars(A).update(_canonical=canonical, _radical=radical)
        return A

    @cached_property
    def _canonical(self) -> PivotBasis:
        """The basis's span over its free-column basis (see the module
        docstring): the one `from_bases` was given, else eliminated from
        the basis."""
        return PivotBasis([b.flat_ints() for b in self.basis], self.form.nvars**2, last=True)

    @cached_property
    def _radical(self) -> PivotBasis | None:
        """The rref basis of `unipotent_basis`, None when that is None:
        the one `from_bases` was given, else eliminated from it."""
        if self.unipotent_basis is None:
            return None
        return PivotBasis([u.flat_ints() for u in self.unipotent_basis], self.form.nvars**2)

    @property
    def dim(self) -> int:
        return len(self._canonical.pivots)

    def contains(self, g: Matrix) -> bool:
        return self._canonical.coordinates(g.flat_ints()) is not None

    def spans_kernel(self, kernel: Sequence[tuple[int, list[int]]]) -> bool:
        """Whether the basis spans the space with the `integer_nullspace`
        basis `kernel`: a space has one free-column basis."""
        return self._canonical.basis == kernel

    @cached_property
    def semisimple_parts(self) -> tuple[Matrix, ...] | None:
        """The semisimple Jordan–Chevalley part of each basis element, or
        None when the form is degenerate."""
        return self._split[0]

    @cached_property
    def nilpotent_parts(self) -> tuple[Matrix, ...] | None:
        """The nilpotent Jordan–Chevalley part of each basis element, or
        None when the form is degenerate."""
        return self._split[1]

    @cached_property
    def _split(self) -> tuple[tuple[Matrix, ...] | None, tuple[Matrix, ...] | None]:
        if not self.nondegenerate:
            return None, None
        sems, nils = [], []
        for b in self.basis:
            S, N = jordan_chevalley(b)
            # S is a polynomial in b, so closure keeps it (and N = b - S) in
            # g_F; violation would mean the nullspace itself is wrong
            if not self.contains(S):
                raise InvariantError("semisimple/nilpotent part left the algebra")
            if nilpotency_index(N) is None:
                raise InvariantError("nilpotent part is not nilpotent")
            sems.append(S)
            nils.append(N)
        return tuple(sems), tuple(nils)

    @cached_property
    def decomposition(self) -> STDecomposition | None:
        """st_decompose of the form, or None when the form is degenerate or
        the torus is zero. Computed once, for the report and the checks."""
        if not self.nondegenerate or self.dim_torus == 0:
            return None
        return st_decompose(self.form, algebra=self)

    @cached_property
    def nilpotents(self) -> NilpotentReport | None:
        """nilpotent_report of the algebra, or None when the form is degenerate."""
        return nilpotent_report(self) if self.nondegenerate else None


def symmetrizer_algebra(F: SymForm) -> SymmetrizerAlgebra:
    """Compute g_F and, for nondegenerate F, its torus/unipotent split."""
    n = F.nvars
    canonical = _pencil_basis(F)
    # the pencil route runs only under certificate A, which proves F
    # nondegenerate (see the module docstring)
    nondegenerate = canonical is not None
    if canonical is None:
        canonical = integer_nullspace(constraint_matrix(F))
        nondegenerate = is_nondegenerate(F)
    radical = _trace_form_radical(canonical, n) if nondegenerate else None
    A = SymmetrizerAlgebra.from_bases(F, canonical, radical)
    if nondegenerate:
        for u in A.unipotent_basis:
            if nilpotency_index(u) is None:
                raise InvariantError("trace-form radical holds a non-nilpotent element")
        if A.dim_torus < 0:
            raise InvariantError("split dimensions exceed the algebra dimension")
    if not A.contains(Matrix.identity(n)):
        raise InvariantError("identity endomorphism missing from the algebra")
    return A


# the sketch of R: the pencil rows of H_c = sum_b c^b H_b at these c
# (c = 1 gives H, whose rows are zero)
SKETCH = (2, 3)


def _slice_sums(F: SymForm, weights: Sequence[Sequence[int]]) -> list[list[list[int]]]:
    """sum_b w[b]·H_b over the slices b of F's Hessian table, one integer
    matrix per weight sequence w, in one pass over the table's rows."""
    n, K = F.nvars, F.hessian_table[1]
    sums = [[[0] * n for _ in K] for _ in weights]
    for j, row in enumerate(K):
        for l in range(n):
            # column b·n + l of table row j is H_b[j][l], so row[l::n] runs over b
            segment = row[l::n]
            if any(segment):
                for S, w in zip(sums, weights):
                    S[j][l] = sum(map(mul, w, segment))
    return sums


def _pencil_weights(m: int) -> list[Sequence[int]]:
    """The weights of H = sum_b H_b, H′ = sum_b (b + 1) H_b and the
    sketch's slices H_c = sum_b c^b H_b over m slices."""
    return [(1,) * m, range(1, m + 1)] + [[c**b for b in range(m)] for c in SKETCH]


def _sparse(rows: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Each row as its nonzero (l, entry) pairs, the slices `_pencil_rows` reads."""
    return [[(l, h) for l, h in enumerate(row) if h] for row in rows]


def _pencil_certificates(F: SymForm) -> tuple[list, list, int] | None:
    """Certificates A and B on F's own Hessian table (see the module
    docstring), then the sketch of the pencil system R mod P:
    (M^1, ..., M^(n-1) mod P, the reduced echelon of the sketch mod P,
    its rank), or None when A or B fails. When they hold,
    dim g_F = n − rank R over Q ≤ n − rank."""
    n = F.nvars
    H, H2, *sketch = _slice_sums(F, _pencil_weights(len(F.hessian_table[1][0]) // n))
    M = solve_mod_p(H, H2)
    if M is None:  # certificate A: H is invertible
        return None
    powers = [M] if n > 1 else []  # M^1, ..., M^(n-1) mod P
    while len(powers) < n - 1:
        powers.append(_product_mod_p(powers[-1], M))
    # certificate B: M is nonderogatory, when I, M, ..., M^(n-1) are
    # independent; M^k·u independent for u = (1, ..., 1), the row sums of
    # M^k, prove it from n rows of width n, and the flats decide otherwise
    krylov = [[1] * n] + [[sum(r) for r in T] for T in powers]
    if rank_mod_p(krylov, n) < n:
        flats = [Matrix.identity(n).flat_ints()] + [list(chain.from_iterable(T)) for T in powers]
        if rank_mod_p(flats, n * n) < n:
            return None
    echelon = rref_mod_p(_pencil_rows(map(_sparse, sketch), powers, n), n - 1)
    return powers, echelon, len(echelon)


def _pencil_basis(F: SymForm) -> PivotBasis | None:
    """g_F as the kernel of the pencil system R inside Q[M], M = H⁻¹H′,
    in free-column shape, or None when certificate A or B fails (see the
    module docstring).
    The basis is the one `nullspace(constraint_matrix(F))` gives: read
    off the sketch mod P and checked exactly, or, when reconstruction or
    the check fails, from the exact kernel of R."""
    certified = _pencil_certificates(F)
    if certified is None:
        return None
    powers, echelon, rank = certified
    n = F.nvars
    if rank == n - 1:  # I is 1 at its last entry
        return PivotBasis.canonical([(1, Matrix.identity(n).flat_ints())], [n * n - 1])
    return _modular_pencil_basis(F, powers, echelon) or _exact_pencil_basis(F)


def _modular_pencil_basis(F: SymForm, powers: Sequence, echelon) -> PivotBasis | None:
    """g_F from the sketch (see the module docstring): I and
    sum_k a_k M^k mod P for each kernel vector a of the sketch's reduced
    echelon form, reduced mod P with the columns reversed, every entry
    reconstructed as a fraction, every matrix tested on F. None when an
    entry does not reconstruct or a matrix does not symmetrize F.
    Reconstruction keeps each pivot's 1, so the reduced rows, read back
    in column order, are the free-column basis with its pivots."""
    n, nn = F.nvars, F.nvars**2
    # entry t of every power, t from the last: the columns reversed
    entries = list(zip(*(list(chain.from_iterable(T))[::-1] for T in powers)))
    gens = [Matrix.identity(n).flat_ints()]  # the same reversed
    for a in kernel_mod_p(echelon, n - 1):
        gens.append([sum(map(mul, a, e)) for e in entries])
    reduced = rref_mod_p(gens, nn)
    if len(reduced) != len(gens):
        raise InvariantError("pencil powers dependent mod P under certificate B")
    basis = []
    for _, row in reversed(reduced):
        rational = rational_row_mod_p(row[::-1])
        if rational is None or symmetry_violation(F, _square(*rational, n)) is not None:
            return None
        basis.append(rational)
    return PivotBasis.canonical(basis, [nn - 1 - c for c, _ in reversed(reduced)])


def _exact_pencil_basis(F: SymForm) -> PivotBasis:
    """g_F from the exact kernel of R over the exact powers of M = H⁻¹H′,
    for a form that passes certificates A and B: the fallback when the
    sketch's basis is refused."""
    n, K = F.nvars, F.hessian_table[1]
    pair = _slice_sums(F, _pencil_weights(len(K[0]) // n)[:2])
    H, H2 = (Matrix(tuple(map(tuple, T)), 1, n) for T in pair)
    exact = [solve_matrix(H, H2)]
    while len(exact) < n - 1:
        exact.append(exact[-1] * exact[0])
    slices = [_sparse([row[b:b + n] for row in K]) for b in range(0, len(K[0]), n)]
    R = Matrix(tuple(map(tuple, _pencil_rows(slices, [T.ints for T in exact], n))), 1, n - 1)
    entries = list(zip(*(T.flat_ints() for T in exact)))  # entry t of every power
    gens = [Matrix.identity(n).flat_ints()]
    for _, c in integer_nullspace(R).basis:
        gens.append([sum(map(mul, c, e)) for e in entries])
    return PivotBasis(gens, n * n, last=True)


def _square(den: int, flat: Sequence[int], n: int) -> Matrix:
    """The n×n matrix with row-major integer entries `flat` over den."""
    return Matrix(tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)), den, n)


def _matrices(basis: PivotBasis, n: int) -> tuple[Matrix, ...]:
    """The elements of a basis of n×n matrices, as Matrices."""
    return tuple(_square(den, row, n) for den, row in basis.basis)


def _pencil_rows(sparse, powers: Sequence, n: int):
    """The nonzero rows of R, one per (beta, i < j), for the sparse slices
    and the integer matrices T_1, ..., T_(n-1) of `powers`: column k - 1
    holds (H_beta T_k)[j][i] - (H_beta T_k)[i][j]. The column of T_0 = I
    is zero, since every H_beta is symmetric, and is left out. Lazy, so a
    rank test that reaches its bound stops building rows."""
    # row l of every power side by side: stack[l][(k-1)n + i] = T_k[l][i]
    stack = [list(chain.from_iterable(T[l] for T in powers)) for l in range(n)]
    for Hb in sparse:
        # prods[j][(k-1)n + i] = (H_beta T_k)[j][i]; None for a zero row j
        prods = []
        for row in Hb:
            acc = None
            for l, h in row:
                s = stack[l]
                acc = [h * x for x in s] if acc is None else [a + h * x for a, x in zip(acc, s)]
            prods.append(acc)
        for i in range(n):
            pi = prods[i]
            for j in range(i + 1, n):
                pj = prods[j]
                if pj is None:
                    if pi is None:
                        continue
                    r = [-x for x in pi[j::n]]
                elif pi is None:
                    r = pj[i::n]
                else:
                    r = list(map(sub, pj[i::n], pi[j::n]))
                if any(r):
                    yield r


def _product_mod_p(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(map(mul, r, c)) % P for c in cols] for r in A]


def _trace_form_radical(basis: PivotBasis, n: int) -> PivotBasis:
    """The rref basis of {sum c_i b_i : c in Ker G}, G_ij = tr(b_i b_j),
    over the integer n×n matrices of the basis (see the module docstring)."""
    flats = [row for _, row in basis.basis]
    m = len(flats)
    if m == 1:
        return PivotBasis.canonical([], [])
    # tr(x y) = sum_kl x[k][l] y[l][k]: x's entries against y's transposed ones
    transposed = [[x for l in range(n) for x in f[l::n]] for f in flats]
    gram = tuple(tuple(sum(map(mul, x, yt)) for yt in transposed) for x in flats)
    if rank_mod_p(gram, m) == m:
        return PivotBasis.canonical([], [])
    entries = list(zip(*flats))  # entry t of every basis matrix
    combos = []
    for _, c in integer_nullspace(Matrix(gram, 1, m)).basis:
        combos.append([sum(map(mul, c, e)) for e in entries])
    return PivotBasis(combos, n * n)


# ---------------------------------------------------------------------------
# Structural checks on the algebra


@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    product_in_span: bool
    commutes: bool | None  # None when commutativity is not guaranteed


@dataclass(frozen=True)
class ClosureReport:
    pairs: tuple[PairCheck, ...]

    @property
    def all_in_span(self) -> bool:
        return all(p.product_in_span for p in self.pairs)

    @property
    def all_commute(self) -> bool:
        return all(p.commutes is not False for p in self.pairs)

    @property
    def ok(self) -> bool:
        return self.all_in_span and self.all_commute


def algebra_closure_check(A: SymmetrizerAlgebra) -> ClosureReport:
    """Verify products of basis elements stay in the span, and commute
    when the form is nondegenerate."""
    basis = A.basis
    check_comm = A.nondegenerate
    pairs = []
    for i, gi in enumerate(basis):
        for j in range(i, len(basis)):
            prod = gi * basis[j]
            rev = prod if i == j else basis[j] * gi
            in_span = A.contains(prod) and (rev == prod or A.contains(rev))
            commutes = (prod == rev) if check_comm else None
            pairs.append(PairCheck(i, j, in_span, commutes))
    return ClosureReport(tuple(pairs))


def kernel_image_vanishing(F: SymForm, h: Matrix) -> bool:
    """True iff F(u, w, e^beta) = 0 for all u in Im(h), w in Ker(h), and
    all degree-(d-2) basis tuples. Multilinearity makes the basis check
    decide the universally quantified statement."""
    witness = symmetry_violation(F, h)
    if witness is not None:
        raise NotASymmetrizerError(*witness)
    image = Span(h.transpose().ints, F.nvars).basis
    return pairings_vanish(F, image, [v for _, v in integer_nullspace(h).basis])


# ---------------------------------------------------------------------------
# Direct-sum decomposition driven by the torus


@dataclass(frozen=True)
class STBlock:
    """One summand: ambient basis of the subspace, the restricted form in
    block coordinates, and the irreducible factor that cut the block out."""

    basis: tuple[Vec, ...]
    form: SymForm
    factor: Poly


@dataclass(frozen=True)
class STDecomposition:
    blocks: tuple[STBlock, ...]
    splitting_element: Matrix
    k: int

    def change_of_basis(self) -> Matrix:
        """Columns are the block bases, concatenated in block order."""
        cols = [v for b in self.blocks for v in b.basis]
        return Matrix.from_rows(cols).transpose()


def st_decompose(
    F: SymForm, algebra: SymmetrizerAlgebra | None = None
) -> STDecomposition | None:
    """Split F into the finest direct sum over the rationals of forms on
    independent subspaces, or None when the torus gives no rational split.

    The torus algebra T, the span of the semisimple parts S_i, is
    commutative and semisimple of dimension t = 1 + dim_torus; its
    primitive idempotents cut out the finest split. A primitive element
    s of T (minimal polynomial of degree t, so Q[s] = T) has them as the
    projections onto the kernels of the irreducible factors of its
    minimal polynomial. No seed is needed: s is the first of
    s_m = sum_i m^i S_i, m = 0, 1, 2, ..., of full degree. Two distinct
    characters of T agree on s_m only at a root of a nonzero polynomial
    in m of degree below len(S), so the search ends within
    C(t, 2)·(len(S) − 1) + 1 values of m. The decomposition is certified
    before returning: the blocks must sum to V, and F rewritten in the
    block basis B, P(B·y), may have no term in the variables of two
    blocks. Its terms in the variables of one block make up that block's
    form, F restricted to the block in the coordinates of its basis.
    """
    A = algebra if algebra is not None else symmetrizer_algebra(F)
    if not A.nondegenerate:
        raise DegenerateFormError(
            "direct-sum decomposition needs a nondegenerate form", jacobian_kernel(F)
        )
    if A.dim_torus == 0:
        return None
    n = F.nvars
    sems, t = A.semisimple_parts, 1 + A.dim_torus
    for m in range(comb(t, 2) * (len(sems) - 1) + 1):
        # scaling changes no kernel of a factor, and a primitive integer s
        # has a monic integer minimal polynomial, the cheap case to factor
        s = sum((m**i * S for i, S in enumerate(sems)), Matrix.zeros(n)).primitive()
        mp = minimal_polynomial(s)
        if mp.degree == t:
            break
    else:
        raise InvariantError("no primitive element of the torus within the search bound")
    factors = factor_rational(mp)
    # ahead of the k < 2 return, so a single repeated factor is caught too
    if any(mult != 1 for _, mult in factors):
        raise InvariantError("semisimple minimal polynomial not squarefree")
    k = len(factors)
    if k < 2:
        return None

    bases = []
    for p, _ in factors:
        basis = nullspace(poly_at_matrix(p, s))
        if not basis:
            raise InvariantError("irreducible factor with trivial kernel")
        bases.append(basis)
    if sum(map(len, bases)) != n:
        raise InvariantError("block dimensions do not fill the space")
    B = Matrix.from_rows([v for basis in bases for v in basis]).transpose()
    if B.rank() != n:
        raise InvariantError("block bases are not independent")

    # each term of P(B·y) belongs to the block of its first variable
    block_of = [b for b, basis in enumerate(bases) for _ in basis]
    starts = list(accumulate(map(len, bases), initial=0))
    pieces: list[dict] = [{} for _ in bases]
    for alpha, c in compose_linear(F, B).terms:
        b = block_of[next(i for i, e in enumerate(alpha) if e)]
        if any(alpha[starts[b + 1]:]):
            raise InvariantError("cross-block values fail to vanish")
        pieces[b][alpha[starts[b]:starts[b + 1]]] = c
    blocks = tuple(
        STBlock(tuple(basis), SymForm.from_coeffs(len(basis), F.degree, piece), p)
        for basis, piece, (p, _) in zip(bases, pieces, factors)
    )
    return STDecomposition(blocks, s, k)


# ---------------------------------------------------------------------------
# Nilpotents: square-zero classes and the singular points they force


@dataclass(frozen=True)
class SquareZeroClass:
    """A projective class of h in the unipotent part with h^2 = 0.

    `coefficients` are over the unipotent basis, first nonzero entry 1.
    Each image point carries its verified vanishing order (always >= d-1
    on a nondegenerate form).
    """

    coefficients: Vec
    matrix: Matrix
    image_dim: int
    image_points: tuple[tuple[ProjectivePoint, int], ...]


@dataclass(frozen=True)
class NilpotentReport:
    classes: tuple[SquareZeroClass, ...]
    max_nilpotency_index: int
    cube_zero_all: bool
    search_complete: bool
    infinite_family: bool


def _power_table(unip: Sequence[Matrix], n: int) -> tuple[int, list[Matrix]]:
    """Products of the commuting nilpotents f_i over nondecreasing index
    tuples, one level per length k, kept while nonzero. Returns the
    largest nilpotency index over their span (the smallest k with every
    k-fold product zero; the generic element realizes it) and each f_i's
    last nonzero power f_i^(l_i - 1), held by the last level with key
    (i,)*k. A level still nonzero at k = n proves some f_i not nilpotent."""
    last = list(unip)
    level = {(): Matrix.identity(n)}
    for k in range(1, n + 1):
        nxt = {}
        for key, prod in level.items():
            start = key[-1] if key else 0
            for idx in range(start, len(unip)):
                q = prod * unip[idx]
                if not q.is_zero:
                    nxt[key + (idx,)] = q
        if not nxt:
            return k, last
        last = [nxt.get((i,) * k, p) for i, p in enumerate(last)]
        level = nxt
    raise InvariantError("commuting nilpotents survived n-fold products")


def nilpotent_report(A: SymmetrizerAlgebra) -> NilpotentReport:
    """Find square-zero elements of the unipotent part and the singular
    points their images force.

    Search strategy: (a) h = f^(l-1) for each unipotent basis element f
    of nilpotency index l, read off the product table that also gives
    the largest index over the span (`_power_table`); (b) for unipotent
    dimension <= 2, solve h^2 = 0 exactly over the rationals on the
    projective parameter space (entries are quadratics in at most two
    parameters); (c) in dimension >= 3 only the (a)-classes are reported
    and the search is flagged incomplete.
    """
    if A.unipotent_basis is None:
        raise DegenerateFormError(
            "nilpotent analysis needs a nondegenerate form",
            jacobian_kernel(A.form),
        )
    F = A.form
    n, d = F.nvars, F.degree
    # the radical's rref basis, as `_trace_form_radical` built it: each u
    # is 1 at its pivot and 0 at the others', so h's coordinates are its
    # entries there, and the residue decides membership
    U = A._radical
    unip = _matrices(U, n)
    classes: dict[Vec, SquareZeroClass] = {}

    def register(h: Matrix, coeffs: Vec | None = None):
        if coeffs is None:
            ints = U.coordinates(h.flat_ints())
            if ints is None:
                raise InvariantError("square-zero element left the unipotent part")
            coeffs = tuple(Fraction(x, h.den) for x in ints)
        lead = next((c for c in coeffs if c != 0), None)
        if lead is None:
            raise InvariantError("zero element offered as a square-zero class")
        coeffs = tuple(c / lead for c in coeffs)
        if coeffs in classes:
            return
        hn = (Fraction(1) / lead) * h
        if not (hn * hn).is_zero:
            raise InvariantError("square-zero candidate fails h^2 = 0")
        image = [row for _, row in PivotBasis(hn.transpose().ints, n).basis]
        points = []
        for v in image:
            pt = ProjectivePoint.from_vector(v)
            order = vanishing_order(F, pt)
            if order < d - 1:
                raise InvariantError(
                    "image of a square-zero symmetrizer is insufficiently singular"
                )
            points.append((pt, order))
        classes[coeffs] = SquareZeroClass(coeffs, hn, len(image), tuple(points))

    # (a) the power construction, always available
    max_index, last_powers = _power_table(unip, n)
    for h in last_powers:
        register(h)

    infinite_family = False
    search_complete = True
    dim = len(unip)
    if dim == 2:
        f1, f2 = unip
        cross = f1 * f2 + f2 * f1
        sq1, sq2 = f1 * f1, f2 * f2
        entry_polys = [
            Poly.from_coeffs([sq1.entry(r, c), cross.entry(r, c), sq2.entry(r, c)])
            for r in range(n)
            for c in range(n)
        ]
        g = Poly.zero()
        for p in entry_polys:
            g = poly_gcd(g, p)
        if g.is_zero:
            # (f1 + b f2)^2 = 0 identically: a whole line of classes
            infinite_family = True
        elif g.degree >= 1:
            roots = sorted(
                -q.coeffs[0]
                for q, _ in factor_rational(g)
                if q.degree == 1 and q.coeffs[1] == 1
            )
            for b0 in roots:
                register(f1 + b0 * f2, coeffs=(Fraction(1), b0))
    elif dim >= 3:
        search_complete = False

    ordered = tuple(classes[key] for key in sorted(classes))
    return NilpotentReport(
        classes=ordered,
        max_nilpotency_index=max_index,
        cube_zero_all=max_index <= 3,
        search_complete=search_complete,
        infinite_family=infinite_family,
    )


# ---------------------------------------------------------------------------
# Fiber transport along the Jacobian image


def recover_symmetrizer(F: SymForm, Ft: SymForm) -> Matrix:
    """The unique g with twist(F, g) = Ft, for forms sharing a Jacobian
    image.

    J_F has rank n, so Ft shares its image exactly when J_Ft = g^T·J_F
    for an invertible g, and column j of g then rewrites the j-th partial
    of Ft over the partials of F. On the pivot columns p of J_F's rref
    the n×n block J_F[:, p] is invertible, so the only candidate is
    g^T = J_Ft[:, p]·E with E = J_F[:, p]⁻¹, computed once per source
    form (`SymForm.jacobian_pivot_inverse`, which refuses a degenerate
    F). One exact product decides membership: when g^T·J_F ≠ J_Ft or g
    is singular, Ft is degenerate (read off its own Hessian table) or
    off F's fiber. Otherwise g must symmetrize F, and for a symmetrizer
    g^T·J_F = J_Ft is F^g = Ft: row i of J(F^g) is
    F(g·e_i, ., ..., .) = sum_k g[k][i]·F(e_k, ., ..., .), so
    J(F^g) = g^T·J_F, and by Euler's identity, P(x) = sum_i x_i·(row i
    of J)(x), a form is determined by its Jacobian."""
    if (F.nvars, F.degree) != (Ft.nvars, Ft.degree):
        raise FiberMismatchError("forms live in different spaces")
    pivots, E = F.jacobian_pivot_inverse
    Jt = jacobian_matrix(Ft)
    gT = pivot_columns(Jt, pivots) * E
    if gT * jacobian_matrix(F) != Jt or not is_invertible(gT):
        if not is_nondegenerate(Ft):
            raise DegenerateFormError.of(Ft)
        raise FiberMismatchError("forms have different Jacobian images")
    g = gT.transpose()
    if symmetry_violation(F, g) is not None:
        raise InvariantError("fiber transport is not a symmetrizer")
    return g


@dataclass(frozen=True)
class FiberInvarianceReport:
    algebra_match: bool
    kernel_match: bool
    grassmann_match: bool | None  # None when the form is degenerate

    @property
    def ok(self) -> bool:
        return self.algebra_match and self.kernel_match and self.grassmann_match is not False


def _table(F: SymForm) -> Matrix:
    """The Hessian table of F (`SymForm.hessian_table`) as a Matrix."""
    den, K = F.hessian_table
    return Matrix(K, den, len(K[0]))


def fiber_invariance_check(
    F: SymForm,
    g: Matrix,
    algebra: SymmetrizerAlgebra | None = None,
    twisted: SymForm | None = None,
) -> FiberInvarianceReport:
    """Check that twisting by an invertible symmetrizer g preserves the
    symmetrizer algebra, transports Ker(∂F) by g^{-1}, and, for a
    nondegenerate F, gives J(F^g) = g^T·J_F, so the same Jacobian image,
    which it tests as K(F^g) = g^T·K(F) on the Hessian tables.

    `algebra` is g_F and `twisted` is F^g when the caller has them. The
    algebras agree when every basis element of g_F symmetrizes F^g and
    dim g_{F^g} ≤ dim g_F. The bound is read off the Hessian pencil of
    F^g's own table: when certificates A and B hold there, dim g_{F^g}
    ≤ n − rank of the sketch of R^g mod P, from n − 1 columns.
    (H^g_beta = g^T H_beta gives M^g = M, so they hold whenever they
    hold for F and det g is a unit mod P.) Only when a certificate fails
    or that bound exceeds dim g_F are the n²-wide constraint rows of F^g
    ranked mod P, asking for rank ≥ n² − dim g_F; when that also falls
    short, or the inclusion fails, g_{F^g} is the exact null space of
    those rows, and is compared."""
    witness = symmetry_violation(F, g)
    if witness is not None:
        raise NotASymmetrizerError(*witness)
    n = F.nvars
    if not is_invertible(g):
        raise ValueError("twisting element must be invertible")
    Fg = twisted if twisted is not None else twist(F, g, check=False)

    A = algebra if algebra is not None else symmetrizer_algebra(F)
    algebra_match = _spans_algebra(Fg, A)

    kernel_F = jacobian_kernel(F)
    if kernel_F:
        ginv = g.inverse()
        transported = [ginv.apply(v) for v in kernel_F]
        kernel_match = Span(transported, n) == Span(jacobian_kernel(Fg), n)
        return FiberInvarianceReport(algebra_match, kernel_match, None)
    # Ker(∂F) = 0 is transported onto Ker(∂F^g) iff that is 0 too
    kernel_match = not jacobian_kernel(Fg)
    grassmann_match = g.transpose() * _table(F) == _table(Fg)
    return FiberInvarianceReport(algebra_match, kernel_match, grassmann_match)


def _spans_algebra(G: SymForm, A: SymmetrizerAlgebra) -> bool:
    """Whether A's basis spans g_G: every element symmetrizes G and
    dim g_G ≤ A.dim, read off G's pencil when certificates A and B hold
    there, else off G's n²-wide constraint rows ranked mod P; when either
    falls short, the exact null space of those rows is compared."""
    n, nn, dim = G.nvars, G.nvars**2, A.dim
    included = all(symmetry_violation(G, b) is None for b in A.basis)
    certified = _pencil_certificates(G) if included else None
    if certified is not None and n - certified[-1] <= dim:
        return True
    C = constraint_matrix(G)
    if included and rank_mod_p(C.ints, nn) >= nn - dim:
        return True
    return A.spans_kernel(integer_nullspace(C).basis)


def sample_invertible_symmetrizers(
    F: SymForm,
    algebra: SymmetrizerAlgebra | None = None,
    seed: int = 0,
    count: int = 20,
) -> list[Matrix]:
    """Deterministic invertible elements of g_F: seeded integer
    combinations of the basis, keeping the invertible ones (full rank
    mod P certifies most of them)."""
    A = algebra if algebra is not None else symmetrizer_algebra(F)
    n = F.nvars
    # the basis as integer flats over one common denominator
    den = lcm(*(b.den for b in A.basis))
    scaled = [[x * (den // b.den) for x in b.flat_ints()] for b in A.basis]
    entries = list(zip(*scaled)) if scaled else [()] * (n * n)
    rng = SplitMix64(seed)
    out: list[Matrix] = []
    for _ in range(64 * count):
        if len(out) >= count:
            break
        coeffs = [rng.int_in(-5, 5) for _ in A.basis]
        flat = [sum(map(mul, coeffs, e)) for e in entries]
        g = Matrix(tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)), den, n)
        if is_invertible(g):
            out.append(g)
    if not out:
        out.append(Matrix.identity(n))
    return out


# ---------------------------------------------------------------------------
# The identity suite


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


def _passfail(ok: bool, detail: str = "") -> CheckResult:
    return CheckResult("pass" if ok else "fail", detail if not ok else "")


def check_identities(
    F: SymForm,
    seed: int = 0,
    samples: int = 8,
    assume_finite_singular: bool = False,
    algebra: SymmetrizerAlgebra | None = None,
) -> dict[str, CheckResult]:
    """Run every identity the engine promises on this form.

    Each check passes, fails with a certificate string, or is skipped
    with the unmet hypothesis. Failures are engine bugs by construction.
    The finiteness of the singular locus cannot be decided here, so the
    checks needing it run only when the caller asserts it.
    """
    A = algebra if algebra is not None else symmetrizer_algebra(F)
    nondeg = A.nondegenerate
    d = F.degree
    out: dict[str, CheckResult] = {}

    closure = algebra_closure_check(A)
    out["product_closure"] = _passfail(
        closure.all_in_span,
        "basis product left the span at pairs "
        + str([(p.i, p.j) for p in closure.pairs if not p.product_in_span]),
    )
    if nondeg:
        out["commutativity"] = _passfail(
            closure.all_commute,
            "non-commuting basis pairs "
            + str([(p.i, p.j) for p in closure.pairs if p.commutes is False]),
        )
    else:
        out["commutativity"] = CheckResult(
            "skip", "degenerate form: commutativity is not guaranteed"
        )
    out["identity_element"] = _passfail(
        A.contains(Matrix.identity(F.nvars)), "identity not in span"
    )

    bad = [
        i for i, h in enumerate(A.basis) if not kernel_image_vanishing(F, h)
    ]
    out["kernel_image_vanishing"] = _passfail(
        not bad, f"failed for basis elements {bad}"
    )

    if nondeg:
        # g_F is the direct sum of the torus, spanned by the semisimple
        # parts, and the unipotent part: the torus has dimension
        # dim_total - dim_unipotent = 1 + dim_torus, and the nilpotent
        # parts span the trace-form radical, computed independently
        nn = F.nvars**2
        torus = Span([S.flat_ints() for S in A.semisimple_parts], nn)
        unipotent = Span([N.flat_ints() for N in A.nilpotent_parts], nn)
        out["split_additivity"] = _passfail(
            torus.dim == 1 + A.dim_torus
            and unipotent == Span([u.flat_ints() for u in A.unipotent_basis], nn),
            f"dims ({A.dim_total}, {A.dim_torus}, {A.dim_unipotent})",
        )
        # `_split` has already proved each nilpotent part nilpotent
        ok_split = all(is_squarefree(minimal_polynomial(S)) for S in A.semisimple_parts)
        out["split_parts"] = _passfail(ok_split, "a split part has the wrong type")
    else:
        skip = CheckResult("skip", "degenerate form: split not computed")
        out["split_additivity"] = skip
        out["split_parts"] = skip

    gs = sample_invertible_symmetrizers(F, A, seed=seed, count=samples)
    bad_inv = [
        i for i, g in enumerate(gs) if symmetry_violation(F, g.inverse()) is not None
    ]
    out["group_inverses"] = _passfail(not bad_inv, f"inverse fails at samples {bad_inv}")
    bad_prod = [
        i
        for i in range(len(gs) - 1)
        if symmetry_violation(F, gs[i] * gs[i + 1]) is not None
    ]
    out["group_products"] = _passfail(not bad_prod, f"product fails at samples {bad_prod}")

    out["fiber_invariance"] = _fiber_invariance_on_basis(F, A)

    if nondeg:
        rt_bad = [
            i for i, g in enumerate(gs) if not _recovers(F, twist(F, g, check=False), g)
        ]
        out["twist_roundtrip"] = _passfail(not rt_bad, f"failed at samples {rt_bad}")
    else:
        out["twist_roundtrip"] = CheckResult(
            "skip", "degenerate form: transport undefined"
        )

    dec = None
    if not nondeg:
        reason = "degenerate form"
    elif A.dim_torus == 0:
        reason = "torus is trivial: nothing splits"
    elif (dec := A.decomposition) is None:
        reason = (
            "splitting elements have irreducible minimal polynomials over "
            "the rationals; no rational block decomposition"
        )
    if dec is None:
        out["block_decomposition"] = out["block_algebra_sum"] = CheckResult("skip", reason)
    else:
        out["block_decomposition"] = _cross_block_check(F, dec)
        out["block_algebra_sum"] = _block_algebra_sum_check(F, A, dec)

    if nondeg:
        rep = A.nilpotents
        if A.dim_unipotent == 0:
            out["square_zero_exists"] = CheckResult("skip", "unipotent part is zero")
        else:
            out["square_zero_exists"] = _passfail(
                bool(rep.classes), "nonzero unipotent part but no square-zero class"
            )
        if rep.classes:
            out["square_zero_images_singular"] = _passfail(
                all(o >= d - 1 for cl in rep.classes for _, o in cl.image_points),
                "an image point has too small a vanishing order",
            )
        else:
            out["square_zero_images_singular"] = CheckResult(
                "skip", "no square-zero classes"
            )
        if assume_finite_singular and rep.classes:
            out["square_zero_image_lines"] = _passfail(
                all(cl.image_dim == 1 for cl in rep.classes),
                "a square-zero image is not a line",
            )
            images = [cl.image_points[0][0] for cl in rep.classes]
            out["square_zero_images_distinct"] = _passfail(
                len(set(images)) == len(images), "two classes share an image point"
            )
            out["cube_vanishing"] = _passfail(
                rep.cube_zero_all,
                f"max nilpotency index {rep.max_nilpotency_index} exceeds 3",
            )
        else:
            reason = (
                "no square-zero classes"
                if not rep.classes
                else "finiteness of the singular locus not asserted"
            )
            skip = CheckResult("skip", reason)
            out["square_zero_image_lines"] = skip
            out["square_zero_images_distinct"] = skip
            out["cube_vanishing"] = skip
    else:
        skip = CheckResult("skip", "degenerate form")
        for key in (
            "square_zero_exists",
            "square_zero_images_singular",
            "square_zero_image_lines",
            "square_zero_images_distinct",
            "cube_vanishing",
        ):
            out[key] = skip

    return out


def _fiber_invariance_on_basis(F: SymForm, A: SymmetrizerAlgebra) -> CheckResult:
    """`fiber_invariance` for every invertible g in g_F at once (see the
    module docstring): the basis spans g_F, bounded at g = I, and
    K(F^b) = b^T·K(F) and b·Ker(∂F) ⊆ Ker(∂F) for each basis element b."""
    if not _spans_algebra(F, A):
        return CheckResult("fail", "algebra bound failed at g = I")
    K = _table(F)
    kernel = Matrix.from_rows(jacobian_kernel(F), F.nvars)  # its rows span Ker(∂F)
    bad = []
    for i, b in enumerate(A.basis):
        bK = b.transpose() * K
        # v^T·(b^T·K) = (b·v)^T·K is zero exactly when b·v is in Ker(∂F)
        if bK != _table(twist(F, b, check=False)) or (
            kernel.nrows and any(chain.from_iterable((kernel * bK).ints))
        ):
            bad.append(i)
    return _passfail(not bad, f"failed at basis elements {bad}")


def _recovers(F: SymForm, Fg: SymForm, g: Matrix) -> bool:
    """Whether transport gives g back; a transport error fails it."""
    try:
        return recover_symmetrizer(F, Fg) == g
    except (DegenerateFormError, FiberMismatchError, InvariantError):
        return False


def _cross_block_check(F: SymForm, dec: STDecomposition) -> CheckResult:
    """Explicit cross-block vanishing: B_a^T H_beta B_b = 0 for the bases
    of every two blocks a < b and every degree-(d-2) monomial beta."""
    blocks = dec.blocks
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if not pairings_vanish(F, blocks[a].basis, blocks[b].basis):
                return CheckResult("fail", f"blocks {a},{b} have a nonzero cross value")
    return CheckResult("pass", f"{dec.k} blocks")


def _block_algebra_sum_check(
    F: SymForm, A: SymmetrizerAlgebra, dec: STDecomposition
) -> CheckResult:
    """g_F, conjugated into block coordinates, must equal the direct sum
    of the block algebras."""
    n = F.nvars
    B = dec.change_of_basis()
    Binv = B.inverse()
    conjugated = Span([(Binv * g * B).flat_ints() for g in A.basis], n * n)

    embedded = []
    off = 0
    for blk in dec.blocks:
        dim = len(blk.basis)
        # E m Eᵀ is m in the diagonal block at rows and columns off..off+dim-1
        E = Matrix.from_rows([r[off:off + dim] for r in Matrix.identity(n).rows], dim)
        sub = symmetrizer_algebra(blk.form)
        embedded += [(E * m * E.transpose()).flat_ints() for m in sub.basis]
        off += dim
    ok = conjugated == Span(embedded, n * n)
    return _passfail(ok, "block algebras do not sum to the whole algebra")
