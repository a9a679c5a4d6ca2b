"""Dense exact linear algebra over the rationals.

Everything here is a pure function of immutable inputs: matrices are
frozen row tuples of Fraction, echelon reduction scans for the first
nonzero pivot top to bottom (exact arithmetic needs no magnitude
pivoting), and all outputs are deterministic.

Inputs and outputs are Fraction, but the two hot kernels run on Python
ints. `rref` scales each row to integers by the lcm of its denominators
and eliminates fraction-free, dividing every updated row by its gcd; it
divides by the pivots only when it builds its output. By Cramer's rule
every row at every step is a rational multiple of a vector of minors of
the scaled input; being primitive, it is that vector divided by its gcd.
So no intermediate entry exceeds the largest minor of order at most
rank+1, the bound Bareiss's elimination also obeys. `Matrix.__mul__`
scales each row of the left factor and each column of the right factor
to integers and builds one Fraction per entry from an integer dot
product. `Span` keeps a family's integer echelon rows, so that repeated
membership tests against one family reduce each vector once.

Rank lower bounds come from one fixed prime P. Scaled to integers, a
matrix has a nonzero (r × r) minor exactly when its rank over the
rationals is at least r; that minor is an integer, and if it is nonzero
mod P it is nonzero. So the rank mod P of the integer rows never exceeds
the rank over the rationals, and `rank_mod_p` reaching a bound proves
the bound (the certificate of Dixon's modular method). It can only fall
short, when P divides every such minor; callers then run the exact
elimination, so every answer is exact and none depends on P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .polys import Poly, squarefree_part

Vec = tuple[Fraction, ...]

P = 2**61 - 1  # the prime of the modular rank certificates


class InvariantError(RuntimeError):
    """An internal consistency check failed. Always a bug, never bad input."""


def vector(entries: Iterable) -> Vec:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def vec_is_zero(v: Vec) -> bool:
    return all(e == 0 for e in v)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def integer_row(v: Sequence) -> tuple[int, list[int]]:
    """(den, ints) with v == ints / den, den the lcm of v's denominators."""
    den = lcm(*[e.denominator for e in v])
    return den, [e.numerator * (den // e.denominator) for e in v]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (unchanged when zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix. Rows are tuples; equality is exact."""

    rows: tuple[Vec, ...]
    ncols: int

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: int | None = None) -> "Matrix":
        converted = tuple(vector(row) for row in rows)
        if converted:
            width = len(converted[0])
            if any(len(r) != width for r in converted):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Matrix(converted, ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            ),
            n,
        )

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix(tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n)), m)

    @staticmethod
    def from_flat(n: int, flat: Sequence) -> "Matrix":
        """n×n matrix from a row-major flat sequence of length n²."""
        if len(flat) != n * n:
            raise ValueError("flat entry count is not n*n")
        it = iter(flat)
        return Matrix.from_rows([[next(it) for _ in range(n)] for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def flatten(self) -> Vec:
        """Row-major flattening; entry (i, j) lands at index i*ncols + j."""
        return tuple(e for r in self.rows for e in r)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.column(j) for j in range(self.ncols)), self.nrows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)), self.ncols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-e for e in r) for r in self.rows), self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = [integer_row(col) for col in other.transpose().rows]
            rows = [integer_row(row) for row in self.rows]
            return Matrix(
                tuple(
                    tuple(Fraction(sum(map(mul, a, b)), da * db) for db, b in cols)
                    for da, a in rows
                ),
                other.ncols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(tuple(tuple(c * e for e in r) for r in self.rows), self.ncols)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rank(self) -> int:
        return rref(self)[2]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix.from_rows(
            [list(self.rows[i]) + [Fraction(1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        )
        red, pivots, rank = rref(aug)
        if rank != n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix(tuple(r[n:] for r in red.rows), n)

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        ) + "]"


def rank_mod_p(int_rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank mod P of integer rows of width ncols: a lower bound on their
    rank over the rationals (see the module docstring)."""
    # (c, row): the row is 0 before column c, 1 at c, and 0 at the columns
    # of the earlier pivots, so reducing in this order refills no column
    pivots: list[tuple[int, list[int]]] = []
    for row in int_rows:
        row = [x % P for x in row]
        for c, prow in pivots:
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], prow[c:])]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            inv = pow(row[c], -1, P)
            pivots.append((c, [x * inv % P for x in row]))
            if len(pivots) == ncols:
                break
    return len(pivots)


def is_invertible(M: Matrix) -> bool:
    """Exact invertibility of a square matrix: full rank mod P certifies
    it, and only when that falls short does the exact rank decide."""
    if not M.is_square:
        return False
    n = M.nrows
    return rank_mod_p([integer_row(r)[1] for r in M.rows], n) == n or M.rank() == n


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """a*row - b*prow with the smallest integers a, b that zero column c."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return [a * x - b * y for x, y in zip(row, prow)]


def _echelon(
    vectors: Sequence[Sequence], ncols: int
) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan on the vectors scaled to integer rows.

    Returns (rows, pivots): row r has its pivot in column pivots[r] and
    zeros in every other pivot column; rows past the rank are zero. Each
    row is divided by its gcd after every update, so it stays primitive.
    """
    rows = [_primitive(integer_row(v)[1]) for v in vectors]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = _primitive(_eliminate(rows[i], prow, c))
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form with pivot columns and rank.

    Pivot choice: first row with a nonzero entry in the current column,
    scanning top to bottom. Output is canonical for the row space.
    """
    rows, pivots = _echelon(M.rows, M.ncols)
    zero = Fraction(0)
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append(tuple(Fraction(x, p) if x else zero for x in row))
    out += [(zero,) * M.ncols] * (len(rows) - len(pivots))
    return Matrix(tuple(out), M.ncols), pivots, len(pivots)


def nullspace(M: Matrix) -> list[Vec]:
    """Basis of Ker(M), one vector per free column, ascending column order.

    Each basis vector carries 1 in its free coordinate and the negated
    reduced-echelon coefficients in the pivot coordinates.
    """
    red, pivots, _ = rref(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * M.ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][free]
        basis.append(tuple(v))
    return basis


def solve(M: Matrix, b: Vec) -> Vec | None:
    """One exact solution of M x = b (free variables set to 0), or None."""
    if len(b) != M.nrows:
        raise ValueError("shape mismatch")
    aug = Matrix.from_rows(
        [list(row) + [b[i]] for i, row in enumerate(M.rows)], M.ncols + 1
    )
    red, pivots, _ = rref(aug)
    if M.ncols in pivots:
        return None
    x = [Fraction(0)] * M.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][M.ncols]
    return tuple(x)


def row_space_basis(vectors: Sequence[Vec], width: int | None = None) -> list[Vec]:
    """Canonical basis (nonzero rref rows) of the span of the given vectors."""
    if not vectors:
        return []
    red, _, rank = rref(Matrix.from_rows(vectors, width))
    return [red.rows[i] for i in range(rank)]


class Span:
    """The span of a family of vectors of width ncols, reduced to integer
    echelon form once, so that each membership test is one reduction."""

    def __init__(self, vectors: Sequence[Sequence], ncols: int):
        if any(len(u) != ncols for u in vectors):
            raise ValueError("ragged rows")
        self.ncols = ncols
        rows, pivots = _echelon(vectors, ncols)
        self._rows = list(zip(rows, pivots))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, v: Sequence) -> bool:
        """Whether v (rational or integer entries) lies in the span."""
        if len(v) != self.ncols:
            raise ValueError("ragged rows")
        _, w = integer_row(v)
        for row, c in self._rows:
            if w[c]:
                w = _eliminate(w, row, c)
        return not any(w)


def span_contains(vectors: Sequence[Vec], v: Vec) -> bool:
    return Span(vectors, len(v)).contains(v)


def span_equal(a: Sequence[Vec], b: Sequence[Vec], width: int | None = None) -> bool:
    return row_space_basis(a, width) == row_space_basis(b, width)


def coordinates_in_span(basis: Sequence[Vec], v: Vec) -> Vec | None:
    """Coefficients expressing v over the given vectors, or None.

    When the vectors are dependent the returned coordinates are the ones
    with free coefficients zeroed; callers needing uniqueness should pass
    an independent family.
    """
    if not basis:
        return () if vec_is_zero(v) else None
    return solve(Matrix.from_rows(basis).transpose(), v)


def minimal_polynomial(A: Matrix) -> Poly:
    """Lowest-degree monic annihilator, found from the Krylov sequence
    of flattened powers I, A, A², ..."""
    if not A.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = A.nrows
    powers = [Matrix.identity(n)]
    flats = [powers[0].flatten()]
    for k in range(1, n + 1):
        powers.append(powers[-1] * A)
        target = powers[-1].flatten()
        coeffs = coordinates_in_span(flats, target)
        if coeffs is not None:
            return Poly.from_coeffs([-c for c in coeffs] + [Fraction(1)])
        flats.append(target)
    raise InvariantError("matrix not annihilated by degree-n polynomial")


def poly_at_matrix(p: Poly, A: Matrix) -> Matrix:
    """Evaluate p at a square matrix (Horner: each step adds the
    coefficient to the diagonal of acc·A)."""
    if not A.is_square:
        raise ValueError("polynomial of a non-square matrix")
    n = A.nrows
    acc = Matrix.zeros(n)
    for c in reversed(p.coeffs):
        rows = (acc * A).rows
        acc = Matrix(
            tuple(r[:i] + (r[i] + c,) + r[i + 1 :] for i, r in enumerate(rows)), n
        )
    return acc


def jordan_chevalley(A: Matrix) -> tuple[Matrix, Matrix]:
    """Split A = S + N with S semisimple, N nilpotent, S N = N S.

    Newton iteration on the squarefree part P of the minimal polynomial:
    S ← S − P(S)·P′(S)⁻¹. P′(S) stays invertible throughout because P is
    squarefree, and the iteration lands in at most ⌈log₂ n⌉ steps. Both
    parts are polynomials in A, hence commute with everything commuting
    with A.
    """
    if not A.is_square:
        raise ValueError("decomposition of a non-square matrix")
    n = A.nrows
    P = squarefree_part(minimal_polynomial(A))
    dP = P.derivative()
    S = A
    budget = (n - 1).bit_length() + 1
    while not (PS := poly_at_matrix(P, S)).is_zero:
        if budget == 0:
            raise InvariantError("semisimple-part iteration failed to converge")
        budget -= 1
        S = S - PS * poly_at_matrix(dP, S).inverse()
    N = A - S
    if S * N != N * S or S * A != A * S:
        raise InvariantError("split parts stopped commuting")
    return S, N


def nilpotency_index(A: Matrix) -> int | None:
    """Smallest ℓ ≥ 1 with A^ℓ = 0, or None when A is not nilpotent.

    The zero matrix has index 1 under this convention.
    """
    if not A.is_square:
        raise ValueError("nilpotency of a non-square matrix")
    power = A
    for ell in range(1, A.nrows + 1):
        if power.is_zero:
            return ell
        power = power * A
    return None
