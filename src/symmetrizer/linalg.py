"""Dense exact linear algebra over the rationals.

Everything here is a pure function of immutable inputs, and all outputs
are deterministic. A `Matrix` stores integer rows over one positive
denominator in lowest terms: the gcd of the denominator and every entry
is 1, so the zero matrix has denominator 1 and equal rational matrices
have equal fields, which makes dataclass equality and hashing exact.
Arithmetic runs on the ints; `rows`, `entry`, `column` and `flatten`
derive Fractions at the boundary. Vectors (`Vec`) are Fraction tuples.

Echelon reduction takes the first nonzero pivot top to bottom (exact
arithmetic needs no magnitude pivoting) and eliminates fraction-free,
dividing every updated row by its gcd; the rref's denominator is the lcm
of the pivots. By Cramer's rule every row at every step is a rational
multiple of a vector of minors of the input; being primitive, it is that
vector divided by its gcd, so no entry exceeds the largest minor of
order at most rank+1, Bareiss's bound. `PivotBasis` keeps its rows
primitive with a positive pivot: the one such multiple of an rref row,
so equal spans have equal rows. Each row is then den at its own pivot
and 0 at the others', which decides membership without elimination
(see `PivotBasis`); `Span` is the same basis over rational vectors.
`minimal_polynomial` reduces the Krylov rows den·[flat(A^k) | e_k], den
the denominator of A^k, so each tail counts multiples of A^k itself and
a row whose matrix part reduces to zero holds the relation in its tail.

Rank lower bounds come from one fixed prime P = 2^30 − 35, the largest
below 2^30: CPython stores an int in 30-bit digits, so a residue mod P
is one digit and a product of two residues is two. Integer rows have a
nonzero (r × r) minor exactly when their rank is at least r, and a minor
nonzero mod P is nonzero, so `rank_mod_p` reaching a bound proves it
(the certificate of Dixon's modular method). It falls short only when P
divides every such minor; callers then run the exact elimination, so no
answer depends on P. `rref_mod_p` and `kernel_mod_p` give the reduced
echelon form and a kernel basis mod P, and `rational_mod_p` reads a
residue back as the one fraction with numerator and denominator at most
√(P/2) = 23,170, when there is one. A reconstructed value is only a
candidate: callers check it exactly and fall back to the exact
elimination, which is also the route for any value past that bound.

The same prime gives a second certificate, in `jordan_chevalley`: a
minimal polynomial that `polys.squarefree_mod_p` proves squarefree shows
A semisimple, so S = A and N = 0 without the Newton iteration; failing
the certificate, one exact gcd gives the squarefree part, which decides
the same and starts the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .polys import P, Poly, squarefree_part, squarefree_mod_p

Vec = tuple[Fraction, ...]


class InvariantError(RuntimeError):
    """An internal consistency check failed. Always a bug, never bad input."""


def vector(entries: Iterable) -> Vec:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def integer_row(v: Sequence) -> tuple[int, list[int]]:
    """(den, ints) with v == ints / den, den the lcm of v's denominators."""
    den = lcm(*[e.denominator for e in v])
    return den, [e.numerator * (den // e.denominator) for e in v]


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (unchanged when zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix: the integer rows `ints` over the
    denominator `den`, reduced to lowest terms on construction."""

    ints: tuple[tuple[int, ...], ...]
    den: int
    ncols: int

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(self.den, *chain.from_iterable(self.ints))
        if g > 1:
            ints = tuple(tuple(x // g for x in r) for r in self.ints)
            object.__setattr__(self, "ints", ints)
            object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: int | None = None) -> "Matrix":
        converted = [vector(row) for row in rows]
        if converted:
            width = len(converted[0])
            if any(len(r) != width for r in converted):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        den = lcm(*(e.denominator for r in converted for e in r))
        ints = tuple(tuple(e.numerator * (den // e.denominator) for e in r) for r in converted)
        return Matrix(ints, den, ncols)

    @staticmethod
    @cache
    def identity(n: int) -> "Matrix":
        """The n×n identity, built once per n: a Matrix is immutable."""
        return Matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix(((0,) * m,) * n, 1, m)

    @staticmethod
    def from_flat(n: int, flat: Sequence) -> "Matrix":
        """n×n matrix from a row-major flat sequence of length n²."""
        if len(flat) != n * n:
            raise ValueError("flat entry count is not n*n")
        it = iter(flat)
        return Matrix.from_rows([[next(it) for _ in range(n)] for _ in range(n)])

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        """The entries as Fraction rows."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.ints)

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def flatten(self) -> Vec:
        """Row-major flattening; entry (i, j) lands at index i*ncols + j."""
        return tuple(e for r in self.rows for e in r)

    def flat_ints(self) -> list[int]:
        """The integer entries, row-major: den times flatten(). A span or a
        membership test is blind to the scale, so these stand for the matrix."""
        return list(chain.from_iterable(self.ints))

    def primitive(self) -> "Matrix":
        """The positive multiple with coprime integer entries (zero stays zero)."""
        g = gcd(*self.flat_ints()) or 1
        return Matrix(tuple(tuple(x // g for x in r) for r in self.ints), 1, self.ncols)

    def _columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.ints)) if self.ints else ((),) * self.ncols

    def transpose(self) -> "Matrix":
        return Matrix(self._columns(), self.den, self.nrows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = zip(self.ints, other.ints)
        ints = tuple(tuple(a * x + b * y for x, y in zip(r, s)) for r, s in pairs)
        return Matrix(ints, den, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in r) for r in self.ints), self.den, self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = other._columns()
            ints = tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.ints)
            return Matrix(ints, self.den * other.den, other.ncols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        ints = tuple(tuple(c.numerator * x for x in r) for r in self.ints)
        return Matrix(ints, self.den * c.denominator, self.ncols)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        den, w = integer_row(v)
        den *= self.den
        return tuple(Fraction(sum(map(mul, r, w)), den) for r in self.ints)

    def rank(self) -> int:
        return rref(self)[2]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        inv = solve_matrix(self, Matrix.identity(self.nrows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        ) + "]"


def _beside(A: Matrix, B: Matrix) -> Matrix:
    """The block matrix [A | B] of two matrices with equally many rows."""
    ints = tuple(
        tuple(x * B.den for x in r) + tuple(y * A.den for y in s)
        for r, s in zip(A.ints, B.ints, strict=True)
    )
    return Matrix(ints, A.den * B.den, A.ncols + B.ncols)


def _echelon_mod_p(int_rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """(c, row) per pivot in the order found: the row is 0 before column c,
    1 at c, and 0 at the columns of the earlier pivots, so reducing in this
    order refills no column. Stops at rank ncols, so lazy rows stop too."""
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
    return pivots


def rank_mod_p(int_rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank mod P of integer rows of width ncols: a lower bound on their
    rank over the rationals (see the module docstring)."""
    return len(_echelon_mod_p(int_rows, ncols))


def rref_mod_p(int_rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """The reduced row echelon form mod P of integer rows: (c, row) per
    pivot in ascending column order, the row 0 before c, 1 at c and 0 at
    every other pivot column. Its length is `rank_mod_p`'s rank."""
    pivots = sorted(_echelon_mod_p(int_rows, ncols))
    # clear each pivot column from the rows above it, last pivot first: the
    # clearing row is then 0 at every other pivot column already
    for i in reversed(range(len(pivots))):
        c, prow = pivots[i]
        for _, row in pivots[:i]:
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], prow[c:])]
    return pivots


def kernel_mod_p(echelon: Sequence[tuple[int, Sequence[int]]], ncols: int) -> list[list[int]]:
    """A basis mod P of the kernel of a reduced echelon form (`rref_mod_p`):
    per free column f, ascending, the vector 1 at f and −row[f] at the
    pivot column of each row."""
    pivot_set = {c for c, _ in echelon}
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = [0] * ncols
            v[f] = 1
            for c, row in echelon:
                v[c] = -row[f] % P
            basis.append(v)
    return basis


# |num| and den at most this: 2·_HALF² < P, so at most one such fraction
# is congruent to a given residue (Wang, Guy and Davenport)
_HALF = isqrt(P // 2)


def rational_mod_p(a: int) -> tuple[int, int] | None:
    """(num, den) in lowest terms with num ≡ a·den mod P, |num| ≤ √(P/2)
    and 0 < den ≤ √(P/2), or None when no such fraction exists: the
    first remainder of the extended Euclidean algorithm on (P, a) within
    the bound, with its cofactor. 0 gives 0/1 and 1 gives 1/1."""
    r0, r1, s0, s1 = P, a % P, 0, 1
    while r1 > _HALF:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _HALF or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def rational_row_mod_p(row: Sequence[int]) -> tuple[int, list[int]] | None:
    """(den, ints) with every entry of the row reconstructed as ints[i] / den
    (`rational_mod_p`), den the lcm of the denominators; None when an entry
    has no fraction within the bound."""
    fracs = []
    for x in row:
        # a residue within the bound is its own numerator over 1
        f = (x, 1) if 0 <= x <= _HALF else rational_mod_p(x)
        if f is None:
            return None
        fracs.append(f)
    den = lcm(*(v for _, v in fracs))
    return den, [u * (den // v) for u, v in fracs]


def solve_mod_p(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """A⁻¹B mod P for a square integer A and an integer B with as many
    rows, or None when A is singular mod P. A pivot in every column is
    `rank_mod_p`'s certificate that A is invertible over the rationals."""
    n = len(A)
    rows = [[x % P for x in chain(a, b)] for a, b in zip(A, B)]
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return None
        rows[c], rows[sel] = rows[sel], rows[c]
        inv = pow(rows[c][c], -1, P)
        prow = rows[c] = [x * inv % P for x in rows[c]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != c:
                rows[i] = [(x - f * y) % P for x, y in zip(row, prow)]
    return [r[n:] for r in rows]


def is_invertible(M: Matrix) -> bool:
    """Exact invertibility of a square matrix: full rank mod P certifies
    it, and only when that falls short does the exact rank decide."""
    if not M.is_square:
        return False
    n = M.nrows
    return rank_mod_p(M.ints, n) == n or M.rank() == n


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """a*row - b*prow with the smallest integers a, b that zero column c."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return [a * x - b * y for x, y in zip(row, prow)]


def _echelon(
    int_rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[Sequence[int]], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan on integer rows.

    Returns (rows, pivots): row r has its pivot in column pivots[r] and
    zeros in every other pivot column; rows past the rank are zero. Each
    row is divided by its gcd after every update, so it stays primitive.
    """
    rows = [_primitive(r) for r in int_rows]
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


def _reduce(w: list[int], rows: Iterable[tuple[Sequence[int], int]]) -> list[int]:
    """w reduced by (row, pivot) pairs, each row zero at the earlier pivots."""
    for row, c in rows:
        if w[c]:
            w = _primitive(_eliminate(w, row, c))
    return w


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form with pivot columns and rank.

    Pivot choice: first row with a nonzero entry in the current column,
    scanning top to bottom. Output is canonical for the row space.
    """
    rows, pivots = _echelon(M.ints, M.ncols)
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    out = [tuple(x * (den // row[c]) for x in row) for row, c in zip(rows, pivots)]
    out += [(0,) * M.ncols] * (len(rows) - len(pivots))
    return Matrix(tuple(out), den, M.ncols), pivots, len(pivots)


def integer_nullspace(M: Matrix) -> PivotBasis:
    """Ker(M) as its `last` `PivotBasis` (see there), read off the rref
    with no second elimination: the basis `nullspace` returns, as
    (den, ints) pairs, each vector ints / den with ints primitive and
    equal to den at its free column, its pivot, so den is the lcm of the
    entries' denominators. Zero rows are dropped first: they change
    neither the kernel nor the rref."""
    nonzero = tuple(r for r in M.ints if any(r))
    if len(nonzero) < M.nrows:
        M = Matrix(nonzero, 1, M.ncols)
    red, pivots, _ = rref(M)
    pivot_set = set(pivots)
    basis, free = [], [c for c in range(M.ncols) if c not in pivot_set]
    for c in free:
        v = [0] * M.ncols
        v[c] = red.den
        for r, p in enumerate(pivots):
            v[p] = -red.ints[r][c]
        g = gcd(*v)
        basis.append((red.den // g, [x // g for x in v]))
    return PivotBasis.canonical(basis, free)


def nullspace(M: Matrix) -> list[Vec]:
    """Basis of Ker(M), one vector per free column, ascending column order.

    Each basis vector carries 1 in its free coordinate and the negated
    reduced-echelon coefficients in the pivot coordinates.
    """
    return [tuple(Fraction(x, den) for x in v) for den, v in integer_nullspace(M).basis]


class PivotBasis:
    """The canonical basis of the span of integer vectors of width ncols,
    as (den, ints) pairs, ints primitive and equal to den > 0 at its own
    pivot column c_b and 0 at every other element's: the rref rows, c_b
    the first nonzero entry, or with `last` the rref rows of the reversed
    columns, c_b the last nonzero entry. The c_b ascend.

    The `last` basis of a kernel is the one `nullspace` returns: a
    `nullspace` vector is 1 at its free column, 0 at the other free
    columns, and otherwise nonzero only at pivot columns left of its own,
    so with the columns reversed those vectors are the kernel's rref,
    which any spanning family gives.

    A vector g of the span is then sum_b g[c_b]·b, since every other
    element is 0 at c_b; so g lies in the span exactly when the residue
    g − sum_b g[c_b]·b is zero, and its coordinates are its entries at
    the pivots. Past the one elimination that builds the basis (which
    finds nothing to eliminate in a family already in this shape),
    membership and coordinates take one integer pass each.

    `canonical` takes a basis already in this shape, with its pivots,
    from the reduction that built it, and eliminates nothing."""

    def __init__(self, vectors: Sequence[Sequence[int]], ncols: int, *, last: bool = False):
        flip = (lambda v: v[::-1]) if last else (lambda v: v)
        rows, pivots = _echelon([flip(v) for v in vectors], ncols)
        order = reversed(range(len(pivots))) if last else range(len(pivots))
        self.basis: list[tuple[int, list[int]]] = []
        self.pivots: list[int] = []
        for r in order:
            den, row = rows[r][pivots[r]], list(flip(rows[r]))
            self.basis.append((den, row) if den > 0 else (-den, [-x for x in row]))
            self.pivots.append(ncols - 1 - pivots[r] if last else pivots[r])

    @classmethod
    def canonical(cls, basis: list[tuple[int, list[int]]], pivots: list[int]) -> PivotBasis:
        """The basis (den, ints) with pivots c_b, taken as it is: the
        caller's reduction has put it in the shape above."""
        self = cls.__new__(cls)
        self.basis, self.pivots = basis, pivots
        return self

    @cached_property
    def _scaled(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """(L, rows): L the lcm of the denominators, rows[b] the nonzero
        (t, entry) pairs of L·b."""
        L = lcm(*(den for den, _ in self.basis))
        rows = [[(t, x * (L // den)) for t, x in enumerate(row) if x] for den, row in self.basis]
        return L, rows

    def coordinates(self, v: Sequence[int]) -> list[int] | None:
        """The integer vector v's entries at the pivots, when v lies in the
        span (v / den has the coordinates [x / den] over `basis`, for any
        den); None when it does not."""
        L, rows = self._scaled
        coords = [v[c] for c in self.pivots]
        residue = [x * L for x in v]
        for a, row in zip(coords, rows):
            if a:
                for t, x in row:
                    residue[t] -= a * x
        return None if any(residue) else coords


def solve_matrix(M: Matrix, B: Matrix) -> Matrix | None:
    """One exact solution X of M X = B (free rows of X set to 0), or None;
    all columns of B share one reduction of [M | B]."""
    red, pivots, _ = rref(_beside(M, B))
    if pivots and pivots[-1] >= M.ncols:
        return None
    rows = [(0,) * B.ncols] * M.ncols
    for r, p in enumerate(pivots):
        rows[p] = red.ints[r][M.ncols:]
    return Matrix(tuple(rows), red.den, B.ncols)


def solve(M: Matrix, b: Vec) -> Vec | None:
    """One exact solution of M x = b (free variables set to 0), or None."""
    if len(b) != M.nrows:
        raise ValueError("shape mismatch")
    x = solve_matrix(M, Matrix.from_rows([[e] for e in b], 1))
    return None if x is None else x.column(0)


class Span:
    """The span of a family of rational vectors of width ncols, held by
    its canonical rref basis (`PivotBasis`, see the module docstring)."""

    def __init__(self, vectors: Sequence[Sequence], ncols: int):
        if any(len(u) != ncols for u in vectors):
            raise ValueError("ragged rows")
        self.ncols = ncols
        self._canonical = PivotBasis([integer_row(v)[1] for v in vectors], ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Span) and (self.ncols, self._canonical.basis) == (
            other.ncols, other._canonical.basis
        )

    @property
    def dim(self) -> int:
        return len(self._canonical.pivots)

    @property
    def basis(self) -> list[Vec]:
        """The nonzero rref rows, as Fractions: the canonical basis."""
        return [tuple(Fraction(x, den) for x in row) for den, row in self._canonical.basis]

    def contains(self, v: Sequence) -> bool:
        """Whether v (rational or integer entries) lies in the span."""
        if len(v) != self.ncols:
            raise ValueError("ragged rows")
        return self._canonical.coordinates(integer_row(v)[1]) is not None


def span_contains(vectors: Sequence[Vec], v: Vec) -> bool:
    return Span(vectors, len(v)).contains(v)


def minimal_polynomial(A: Matrix) -> Poly:
    """Lowest-degree monic annihilator, from one growing echelon of the
    Krylov rows of I, A, A², ... (see the module docstring)."""
    if not A.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = A.nrows
    width = n * n
    rows: list[tuple[list[int], int]] = []
    power = Matrix.identity(n)
    for k in range(n + 1):
        w = _reduce(power.flat_ints() + [0] * k + [power.den] + [0] * (n - k), rows)
        c = next((c for c in range(width) if w[c]), None)
        if c is None:
            return Poly.from_coeffs([Fraction(x, w[width + k]) for x in w[width:]])
        rows.append((w, c))
        power = power * A
    raise InvariantError("matrix not annihilated by degree-n polynomial")


def poly_at_matrix(p: Poly, A: Matrix) -> Matrix:
    """Evaluate p at a square matrix by Horner's rule."""
    if not A.is_square:
        raise ValueError("polynomial of a non-square matrix")
    identity = Matrix.identity(A.nrows)
    acc = Matrix.zeros(A.nrows)
    for c in reversed(p.coeffs):
        acc = acc * A + c * identity
    return acc


def jordan_chevalley(A: Matrix) -> tuple[Matrix, Matrix]:
    """Split A = S + N with S semisimple, N nilpotent, S N = N S.

    When the minimal polynomial m is squarefree, m(A) = 0 already shows A
    semisimple: S = A. The certificate mod P decides that first; failing
    it, the squarefree part q of m is computed once, and deg q = deg m
    means S = A. Otherwise Newton iteration on q: S ← S − q(S)·q′(S)⁻¹.
    q′(S) stays invertible throughout because q is squarefree, and the
    iteration lands in at most ⌈log₂ n⌉ steps. Both parts are polynomials in A, hence commute with
    everything commuting with A.
    """
    if not A.is_square:
        raise ValueError("decomposition of a non-square matrix")
    n = A.nrows
    m = minimal_polynomial(A)
    S = A
    if not squarefree_mod_p(m) and (q := squarefree_part(m)).degree < m.degree:
        dq = q.derivative()
        budget = (n - 1).bit_length() + 1
        while not (qS := poly_at_matrix(q, S)).is_zero:
            if budget == 0:
                raise InvariantError("semisimple-part iteration failed to converge")
            budget -= 1
            S = S - qS * poly_at_matrix(dq, S).inverse()
    N = A - S
    # with N = A - S, S·N = N·S is the same equation as S·A = A·S
    if S * N != N * S:
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
