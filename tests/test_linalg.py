"""Exact linear algebra: echelon forms, spans, minimal polynomials, splitting."""

from fractions import Fraction as Q
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetrizer import linalg, polys
from symmetrizer.linalg import (
    P,
    InvariantError,
    Matrix,
    PivotBasis,
    Span,
    integer_nullspace,
    integer_row,
    is_invertible,
    jordan_chevalley,
    kernel_mod_p,
    minimal_polynomial,
    nilpotency_index,
    nullspace,
    poly_at_matrix,
    rank_mod_p,
    rational_mod_p,
    rational_row_mod_p,
    rref,
    rref_mod_p,
    solve,
    solve_matrix,
    solve_mod_p,
    span_contains,
    vector,
)
from symmetrizer.polys import P as PRIME
from symmetrizer.polys import Poly, is_squarefree, poly_gcd, squarefree_part


def M(*rows) -> Matrix:
    return Matrix.from_rows(rows)


# Reference oracles: plain Fraction Gauss-Jordan, the naive product and
# entrywise arithmetic on Fraction rows, which the integer rows of Matrix
# must match exactly.


def gauss_jordan(rows: list[list[Q]], ncols: int) -> tuple[list[list[Q]], tuple[int, ...]]:
    """Gauss-Jordan on Fraction rows with the same pivot rule as rref."""
    rows = [[Q(e) for e in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def oracle_rref(A: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    rows, pivots = gauss_jordan(A.rows, A.ncols)
    return Matrix.from_rows(rows, A.ncols), pivots, len(pivots)


def product_rows(a, b, m: int) -> list[list[Q]]:
    """The naive triple loop on Fraction rows; b has m columns."""
    return [[sum((x * b[k][j] for k, x in enumerate(r)), Q(0)) for j in range(m)] for r in a]


def oracle_product(A: Matrix, B: Matrix) -> Matrix:
    return Matrix.from_rows(product_rows(A.rows, B.rows, B.ncols), B.ncols)


def identity_rows(n: int) -> list[list[Q]]:
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def oracle_inverse_rows(A: Matrix) -> list[list[Q]] | None:
    """[A | I] reduced on Fractions, or None when A is singular."""
    n = A.nrows
    rows, pivots = gauss_jordan([list(r) + e for r, e in zip(A.rows, identity_rows(n))], 2 * n)
    if pivots != tuple(range(n)):
        return None
    return [r[n:] for r in rows]


def oracle_power_rows(A: Matrix, k: int) -> list[list[Q]]:
    acc = identity_rows(A.nrows)
    for _ in range(k):
        acc = product_rows(acc, A.rows, A.ncols)
    return acc


def oracle_nullspace(A: Matrix) -> list[tuple]:
    red, pivots, _ = oracle_rref(A)
    basis = []
    for free in (c for c in range(A.ncols) if c not in pivots):
        v = [Q(0)] * A.ncols
        v[free] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][free]
        basis.append(tuple(v))
    return basis


def oracle_solve(A: Matrix, b: tuple) -> tuple | None:
    aug = Matrix.from_rows([row + (b[i],) for i, row in enumerate(A.rows)], A.ncols + 1)
    red, pivots, _ = oracle_rref(aug)
    if A.ncols in pivots:
        return None
    x = [Q(0)] * A.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][A.ncols]
    return tuple(x)


def oracle_span_contains(vectors, v) -> bool:
    if all(e == 0 for e in v):
        return True
    rank = lambda rows: len(gauss_jordan(rows, len(v))[1])
    return rank(list(vectors) + [v]) == rank(vectors)


def oracle_row_space(vectors, width: int) -> list[tuple]:
    """The nonzero rows of the Fraction rref: the canonical basis."""
    rows, pivots = gauss_jordan(list(vectors), width)
    return [tuple(r) for r in rows[:len(pivots)]]


def oracle_minimal_polynomial(A: Matrix) -> Poly:
    """Krylov on Fraction rows: the first power A^k whose flattening
    solves as a combination of the lower ones, by Gauss-Jordan on the
    columns flat(A^0), ..., flat(A^(k-1)) beside flat(A^k)."""
    n = A.nrows
    flats = []
    for k in range(n + 1):
        target = [e for r in oracle_power_rows(A, k) for e in r]
        system = [[f[p] for f in flats] + [target[p]] for p in range(n * n)]
        rows, pivots = gauss_jordan(system, k + 1)
        if k not in pivots:
            coeffs = [Q(0)] * k
            for r, c in enumerate(pivots):
                coeffs[c] = rows[r][k]
            return Poly.from_coeffs([-c for c in coeffs] + [Q(1)])
        flats.append(target)
    raise AssertionError("Cayley-Hamilton bounds the degree by n")


def oracle_poly_at_matrix(p: Poly, A: Matrix) -> list[list[Q]]:
    """Horner on Fraction rows, adding c times the identity at every step."""
    n = A.nrows
    acc = [[Q(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = [
            [x + (c if i == j else 0) for j, x in enumerate(r)]
            for i, r in enumerate(product_rows(acc, A.rows, n))
        ]
    return acc


def as_rows(rows) -> tuple[tuple[Q, ...], ...]:
    return tuple(tuple(r) for r in rows)


def in_lowest_terms(A: Matrix) -> bool:
    """The stored format: integer rows of width ncols over a positive
    denominator that shares no factor with every entry (1 for zero)."""
    return (
        A.den >= 1
        and gcd(A.den, *A.flat_ints()) == 1
        and all(type(x) is int for x in A.flat_ints())
        and all(len(r) == A.ncols for r in A.ints)
    )


# Large coprime denominators make the row lcms, and so the integer rows,
# wide; zero weighs in heavily so zero rows and sparse pivots occur.
# P, the prime of the certificates, so that some rows vanish mod P
DENOMINATORS = [1, 1, 2, 3, 7, 97, 65537, 1000003, 2**31 - 1, P, 2**61 - 1]
rationals = st.one_of(
    st.just(0),
    st.builds(Q, st.integers(-50, 50), st.sampled_from(DENOMINATORS)),
)


@st.composite
def rational_rows(draw, nrows=None, ncols=None):
    """(rows, ncols): wide, tall and empty shapes; zero rows; rows of
    Fractions or of mixed ints and Fractions."""
    n = draw(st.integers(0, 6)) if nrows is None else nrows
    m = draw(st.integers(0, 6)) if ncols is None else ncols
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            rows.append([0] * m)
        else:
            rows.append([draw(rationals) for _ in range(m)])
    if draw(st.booleans()):
        rows = [[int(e) if Q(e).denominator == 1 else e for e in r] for r in rows]
    return rows, m


def rational_matrices(nrows=None, ncols=None):
    return rational_rows(nrows, ncols).map(lambda rows_m: Matrix.from_rows(*rows_m))


def square_matrices(nmax):
    return st.integers(0, nmax).flatmap(lambda n: rational_matrices(n, n))


@st.composite
def matrices(draw, nmin=1, nmax=4, square=True):
    n = draw(st.integers(nmin, nmax))
    m = n if square else draw(st.integers(nmin, nmax))
    entries = st.integers(-6, 6)
    return Matrix.from_rows(
        [[draw(entries) for _ in range(m)] for _ in range(n)]
    )


class TestEchelon:
    def test_rref_known(self):
        A = M([1, 2, 3], [2, 4, 6], [1, 1, 1])
        R, pivots, rank = rref(A)
        assert rank == 2
        assert pivots == (0, 1)
        assert R == M([1, 0, -1], [0, 1, 2], [0, 0, 0])

    def test_rank(self):
        assert M([1, 2], [2, 4]).rank() == 1
        assert Matrix.identity(3).rank() == 3
        assert Matrix.zeros(2, 3).rank() == 0

    @given(matrices(square=False))
    @settings(deadline=None)
    def test_nullspace_annihilates(self, A):
        basis = nullspace(A)
        assert len(basis) == A.ncols - A.rank()
        for v in basis:
            assert all(x == 0 for x in A.apply(v))

    def test_nullspace_known(self):
        A = M([1, 1, 0], [0, 0, 1])
        assert nullspace(A) == [vector([-1, 1, 0])]

    @given(matrices(square=False), st.data())
    @settings(deadline=None)
    def test_solve_recovers_image_vector(self, A, data):
        x = vector([data.draw(st.integers(-4, 4)) for _ in range(A.ncols)])
        b = A.apply(x)
        got = solve(A, b)
        assert got is not None
        assert A.apply(got) == b

    def test_solve_inconsistent(self):
        A = M([1, 0], [1, 0])
        assert solve(A, vector([0, 1])) is None

    def test_inverse(self):
        A = M([2, 1], [1, 1])
        assert A * A.inverse() == Matrix.identity(2)
        assert A.inverse() * A == Matrix.identity(2)
        with pytest.raises(ValueError):
            M([1, 2], [2, 4]).inverse()


class TestSpans:
    def test_equal_under_row_operations(self):
        a = [vector([1, 0, 1]), vector([0, 1, 0])]
        b = [vector([1, 1, 1]), vector([2, -1, 2])]
        assert Span(a, 3) == Span(b, 3)
        assert Span(a, 3) != Span([vector([1, 0, 0])], 3)

    def test_span_contains(self):
        basis = [vector([1, 0]), vector([1, 1])]
        assert span_contains(basis, vector([0, 5]))
        assert not span_contains([vector([1, 0])], vector([0, 1]))

    def test_basis_is_the_rref(self):
        span = Span([vector([2, 4, 6]), vector([1, 1, 1]), vector([3, 5, 7])], 3)
        assert span.basis == [vector([1, 0, -1]), vector([0, 1, 2])]

    def test_negative_pivots_and_zero_rows(self):
        assert Span([vector([-2, 4]), vector([0, 0])], 2) == Span([vector([1, -2])], 2)
        assert Span([vector([0, -3, Q(1, 2)])], 3).basis == [vector([0, 1, Q(-1, 6)])]

    def test_empty_span(self):
        assert Span([], 4) == Span([vector([0, 0, 0, 0])], 4)
        assert Span([], 4) != Span([], 3)
        assert Span([], 4).basis == []
        assert not span_contains([], vector([1]))


@st.composite
def span_pairs(draw):
    """(a, b, width): a a family of rational rows, b another family that
    often spans the same space: integer combinations of a's rows, its
    negation, its reversal padded with zero rows, or an unrelated draw."""
    width = draw(st.integers(0, 5))
    a = list(draw(rational_matrices(ncols=width)).rows)
    how = draw(st.sampled_from(["combinations", "negated", "reversed", "other"]))
    if how == "combinations":
        weights = st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a))
        b = [
            tuple(sum((w * u[j] for w, u in zip(ws, a)), Q(0)) for j in range(width))
            for ws in draw(st.lists(weights, max_size=len(a) + 1))
        ]
    elif how == "negated":
        b = [tuple(-e for e in u) for u in a]
    elif how == "reversed":
        b = a[::-1] + [(Q(0),) * width] * draw(st.integers(0, 2))
    else:
        b = list(draw(rational_matrices(ncols=width)).rows)
    return a, b, width


class TestSpanMatchesOracles:
    """Span against Fraction Gauss-Jordan: equality and the canonical
    basis, on empty families, zero rows and negative pivots."""

    @given(span_pairs())
    @settings(deadline=None, max_examples=300)
    def test_equal_exactly_when_the_rrefs_agree(self, pair):
        a, b, width = pair
        same = oracle_row_space(a, width) == oracle_row_space(b, width)
        assert (Span(a, width) == Span(b, width)) == same
        assert (Span(a, width) != Span(b, width)) == (not same)

    @given(rational_matrices())
    @settings(deadline=None, max_examples=200)
    def test_basis_is_the_oracle_rref(self, A):
        span = Span(A.rows, A.ncols)
        assert span.basis == oracle_row_space(A.rows, A.ncols)
        assert span.dim == len(span.basis)


class TestPivotBasis:
    """PivotBasis against Fraction Gauss-Jordan, both pivot directions:
    the rref, or the rref of the reversed columns read back, with each
    row over its own pivot; coordinates rebuild members and refuse the
    rest."""

    @given(rational_matrices(), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_basis_is_the_oracle_rref(self, A, last):
        vectors, width = int_rows(A), A.ncols
        got = PivotBasis(vectors, width, last=last)
        flip = (lambda v: v[::-1]) if last else (lambda v: v)
        expected = [flip(r) for r in oracle_row_space([flip(v) for v in vectors], width)]
        # reversed columns put the last pivot first
        assert [tuple(Q(x, den) for x in row) for den, row in got.basis] == flip(expected)
        assert all(den > 0 and gcd(den, *row) == 1 for den, row in got.basis)
        assert got.pivots == sorted(got.pivots)
        for (den, row), c in zip(got.basis, got.pivots):
            support = [t for t, x in enumerate(row) if x]
            assert c == (support[-1] if last else support[0]) and row[c] == den
            assert all(row[p] == 0 for p in got.pivots if p != c)

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_coordinates_rebuild_members(self, data):
        width = data.draw(st.integers(0, 5))
        vectors = int_rows(data.draw(rational_matrices(ncols=width)))
        got = PivotBasis(vectors, width, last=data.draw(st.booleans()))
        combo = [data.draw(st.integers(-3, 3)) for _ in vectors]
        member = [sum(c * u[j] for c, u in zip(combo, vectors)) for j in range(width)]
        other = int_rows(data.draw(rational_matrices(nrows=1, ncols=width)))[0]
        for v in (member, other):
            coords = got.coordinates(v)
            if not oracle_span_contains([tuple(map(Q, u)) for u in vectors], tuple(map(Q, v))):
                assert coords is None
                continue
            assert len(coords) == len(got.basis)
            rebuilt = [
                sum((Q(a * row[j], den) for a, (den, row) in zip(coords, got.basis)), Q(0))
                for j in range(width)
            ]
            assert rebuilt == v


def companion(*ascending_monic_tail) -> Matrix:
    """Companion matrix of t^k + c_{k-1} t^{k-1} + ... + c_0."""
    k = len(ascending_monic_tail)
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = -ascending_monic_tail[i]
    return Matrix.from_rows(rows)


class TestMinimalPolynomial:
    def test_identity(self):
        p = minimal_polynomial(Matrix.identity(3))
        assert p == Poly.from_coeffs([Q(-1), Q(1)])

    def test_companion(self):
        A = companion(-2, 0)  # t^2 - 2
        assert minimal_polynomial(A) == Poly.from_coeffs([Q(-2), Q(0), Q(1)])

    def test_nilpotent_jordan_block(self):
        A = M([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert minimal_polynomial(A) == Poly.x() ** 3

    @given(matrices())
    @settings(deadline=None, max_examples=40)
    def test_annihilates(self, A):
        p = minimal_polynomial(A)
        assert p.leading == 1
        assert poly_at_matrix(p, A).is_zero

    def test_fractional_scalar(self):
        # the Krylov rows carry each power's denominator
        assert minimal_polynomial(M([Q(1, 2)])) == Poly.from_coeffs([Q(-1, 2), Q(1)])

    @given(square_matrices(4))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_krylov_oracle(self, A):
        assert minimal_polynomial(A) == oracle_minimal_polynomial(A)


class TestJordanChevalley:
    def test_diagonal_is_its_own_semisimple_part(self):
        A = M([2, 0], [0, 3])
        S, N = jordan_chevalley(A)
        assert S == A and N.is_zero

    def test_jordan_block(self):
        A = M([5, 0], [1, 5])
        S, N = jordan_chevalley(A)
        assert S == Matrix.identity(2) * Q(5)
        assert N == M([0, 0], [1, 0])

    @given(matrices(nmax=4))
    @settings(deadline=None, max_examples=40)
    def test_splitting_invariants(self, A):
        S, N = jordan_chevalley(A)
        assert S + N == A
        assert S * N == N * S
        assert nilpotency_index(N) is not None
        assert is_squarefree(minimal_polynomial(S))

    def test_a_newton_step_off_the_commutant_is_an_invariant_error(self, monkeypatch):
        # (t - 1)^2 takes one Newton step; a doctored step S = A - X with X
        # not commuting with A leaves S·N ≠ N·S
        A, X = M([1, 1], [0, 1]), M([0, 0], [1, 0])
        steps = iter([X, Matrix.identity(2), Matrix.zeros(2)])
        monkeypatch.setattr(linalg, "poly_at_matrix", lambda p, S: next(steps))
        with pytest.raises(InvariantError, match="stopped commuting"):
            jordan_chevalley(A)


def newton_jordan_chevalley(A: Matrix) -> tuple[Matrix, Matrix]:
    """The split by Newton iteration alone, on the squarefree part q of
    the oracle minimal polynomial, with no squarefree shortcut."""
    q = squarefree_part(oracle_minimal_polynomial(A))
    dq = q.derivative()
    S = A
    while not (qS := poly_at_matrix(q, S)).is_zero:
        S = S - qS * poly_at_matrix(dq, S).inverse()
    return S, A - S


def block_diagonal(*blocks: Matrix) -> Matrix:
    n = sum(b.nrows for b in blocks)
    rows, off = [], 0
    for b in blocks:
        for r in b.rows:
            rows.append([Q(0)] * off + list(r) + [Q(0)] * (n - off - b.nrows))
        off += b.nrows
    return Matrix.from_rows(rows, n)


SPLIT_CASES = {
    "scalar": Matrix.identity(3) * Q(-7, 2),
    "one_by_one": M([Q(5, 3)]),
    "zero_one_by_one": M([0]),
    "nilpotent": M([0, 0, 0], [Q(1, 2), 0, 0], [0, 3, 0]),
    "square_zero": M([0, 0], [1, 0]),
    "companion_t2_minus_2": companion(-2, 0),
    "companion_t2_plus_1": companion(1, 0),
    "jordan_blocks": block_diagonal(
        M([3, 0], [1, 3]), M([3]), M([Q(-1, 2), 0, 0], [1, Q(-1, 2), 0], [0, 1, Q(-1, 2)])
    ),
    # [[C, 0], [I, C]] with C the companion of t^2 + 1: minimal polynomial (t^2 + 1)^2
    "jordan_block_of_a_companion": M(
        [0, -1, 0, 0], [1, 0, 0, 0], [1, 0, 0, -1], [0, 1, 1, 0]
    ),
    "semisimple_and_nilpotent": block_diagonal(companion(-2, 0), M([4, 0], [Q(2, 7), 4])),
}


class TestJordanChevalleyMatchesNewton:
    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_known_cases(self, name):
        A = SPLIT_CASES[name]
        assert jordan_chevalley(A) == newton_jordan_chevalley(A)

    @given(square_matrices(4))
    @settings(deadline=None, max_examples=150)
    def test_rational_matrices(self, A):
        assert jordan_chevalley(A) == newton_jordan_chevalley(A)

    @pytest.mark.parametrize(
        "name", ["scalar", "one_by_one", "zero_one_by_one", "companion_t2_minus_2",
                 "companion_t2_plus_1"],
    )
    def test_semisimple_skips_the_newton_loop(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("Newton loop entered for a semisimple matrix")

        monkeypatch.setattr(linalg, "squarefree_part", refuse)
        monkeypatch.setattr(linalg, "poly_at_matrix", refuse)
        A = SPLIT_CASES[name]
        S, N = jordan_chevalley(A)
        assert S == A and N.is_zero


class TestJordanChevalleyExactGcds:
    """The exact gcd runs once per minimal polynomial the certificate mod
    P leaves undecided, and never for a certified one."""

    @pytest.fixture
    def exact_gcds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(polys, "poly_gcd", lambda a, b: calls.append(a) or poly_gcd(a, b))
        return calls

    @pytest.mark.parametrize(
        "name", ["nilpotent", "square_zero", "jordan_blocks", "jordan_block_of_a_companion",
                 "semisimple_and_nilpotent"],
    )
    def test_one_gcd_for_a_repeated_factor(self, name, exact_gcds):
        A = SPLIT_CASES[name]
        expected = newton_jordan_chevalley(A)
        exact_gcds.clear()
        assert jordan_chevalley(A) == expected
        assert len(exact_gcds) == 1

    def test_certified_minimal_polynomial_needs_no_gcd(self, exact_gcds):
        S, N = jordan_chevalley(SPLIT_CASES["companion_t2_minus_2"])
        assert N.is_zero and exact_gcds == []

    def test_squarefree_but_uncertified_skips_the_newton_loop(self, exact_gcds, monkeypatch):
        # diag(0, P) has minimal polynomial t(t - P), which is t^2 mod P
        A = M([0, 0], [0, PRIME])
        monkeypatch.setattr(linalg, "poly_at_matrix", lambda *args: pytest.fail("Newton loop"))
        S, N = jordan_chevalley(A)
        assert S == A and N.is_zero
        assert len(exact_gcds) == 1


class TestNilpotency:
    def test_index(self):
        assert nilpotency_index(Matrix.zeros(3)) == 1
        assert nilpotency_index(M([0, 0], [1, 0])) == 2
        assert nilpotency_index(M([0, 0, 0], [1, 0, 0], [0, 1, 0])) == 3
        assert nilpotency_index(Matrix.identity(2)) is None


class TestIntegerKernelsMatchOracles:
    @given(rational_matrices())
    @settings(deadline=None, max_examples=300)
    def test_rref(self, A):
        assert rref(A) == oracle_rref(A)

    @given(rational_matrices())
    @settings(deadline=None, max_examples=150)
    def test_nullspace(self, A):
        assert nullspace(A) == oracle_nullspace(A)

    @given(rational_matrices(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_solve(self, A, data):
        b = tuple(data.draw(rationals) for _ in range(A.nrows))
        assert solve(A, b) == oracle_solve(A, b)

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_solve_matrix_solves_every_column(self, data):
        n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
        A = data.draw(rational_matrices(n, k))
        B = data.draw(rational_matrices(n, m))
        X = solve_matrix(A, B)
        columns = [oracle_solve(A, B.column(j)) for j in range(m)]
        if None in columns:
            assert X is None
        else:
            assert in_lowest_terms(X) and [X.column(j) for j in range(m)] == columns

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_span_contains(self, data):
        width = data.draw(st.integers(1, 6))
        vectors = data.draw(rational_matrices(ncols=width)).rows
        combo = [data.draw(st.integers(-3, 3)) for _ in vectors]
        in_span = tuple(
            sum((c * Q(u[j]) for c, u in zip(combo, vectors)), Q(0)) for j in range(width)
        )
        for v in (in_span, data.draw(rational_matrices(nrows=1, ncols=width)).rows[0]):
            assert span_contains(vectors, v) == oracle_span_contains(vectors, v)

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_product(self, data):
        n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
        A = data.draw(rational_matrices(nrows=n, ncols=k))
        B = data.draw(rational_matrices(nrows=k, ncols=m))
        got = A * B
        assert got == oracle_product(A, B) and in_lowest_terms(got)
        assert got.rows == as_rows(product_rows(A.rows, B.rows, m))

    @given(st.integers(0, 4).flatmap(lambda n: rational_matrices(n, n)),
           st.lists(rationals, max_size=5))
    @settings(deadline=None, max_examples=150)
    def test_poly_at_matrix(self, A, coeffs):
        p = Poly.from_coeffs(coeffs)
        got = poly_at_matrix(p, A)
        assert in_lowest_terms(got) and got.rows == as_rows(oracle_poly_at_matrix(p, A))

    @given(rational_matrices(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_free_column_basis_is_the_nullspace(self, A, data):
        kernel = oracle_nullspace(A)
        # any spanning family: the kernel vectors scaled, shuffled, with
        # integer combinations of them mixed in
        scales = [data.draw(nonzero_rationals) for _ in kernel]
        family = [[c * e for e in v] for c, v in zip(scales, kernel)]
        for _ in range(data.draw(st.integers(0, 2))):
            combo = [data.draw(st.integers(-3, 3)) for _ in kernel]
            family.append([sum((c * v[j] for c, v in zip(combo, kernel)), Q(0))
                           for j in range(A.ncols)])
        family = data.draw(st.permutations(family))
        got = PivotBasis([integer_row(v)[1] for v in family], A.ncols, last=True).basis
        assert all(den > 0 and gcd(den, *row) == 1 for den, row in got)
        assert [tuple(Q(x, den) for x in row) for den, row in got] == kernel

    @given(rational_matrices())
    @settings(deadline=None, max_examples=150)
    def test_integer_nullspace_is_its_own_pivot_basis(self, A):
        # the rref's free columns are the pivots: eliminating its vectors
        # again gives the same basis and pivots
        got = integer_nullspace(A)
        again = PivotBasis([row for _, row in got.basis], A.ncols, last=True)
        assert (got.basis, got.pivots) == (again.basis, again.pivots)
        assert [tuple(Q(x, den) for x in row) for den, row in got.basis] == oracle_nullspace(A)

    @given(matrices(nmax=5), st.data())
    @settings(deadline=None, max_examples=150)
    def test_solve_mod_p(self, A, data):
        B = data.draw(matrices(nmin=A.nrows, nmax=A.nrows, square=False))
        got = solve_mod_p(A.ints, B.ints)
        if rank_mod_p(A.ints, A.ncols) < A.nrows:
            assert got is None
        else:
            X = solve_matrix(A, B)
            unit = pow(X.den, -1, P)
            assert got == [[x * unit % P for x in row] for row in X.ints]

    def test_solve_mod_p_refuses_a_matrix_singular_only_mod_p(self):
        assert solve_mod_p([[P]], [[1]]) is None
        assert solve_mod_p([[2, 0], [0, 1]], [[1], [3]]) == [[pow(2, -1, P)], [3]]

    def test_negative_pivot_and_coprime_denominators(self):
        A = M([Q(-3, 65537), Q(1, 7), 0], [Q(2, 1000003), Q(-5, 97), Q(1, 2)])
        assert rref(A) == oracle_rref(A)
        assert A * A.transpose() == oracle_product(A, A.transpose())


nonzero_rationals = st.builds(
    Q, st.integers(1, 50).map(lambda x: x if x % 2 else -x), st.sampled_from(DENOMINATORS)
)


class TestMatrixFormat:
    """Matrix stores integer rows over one denominator in lowest terms;
    every operation must equal the Fraction oracles and keep that form."""

    @given(rational_rows())
    @settings(deadline=None, max_examples=150)
    def test_from_rows_keeps_every_entry(self, rows_m):
        rows, m = rows_m
        A = Matrix.from_rows(rows, m)
        assert in_lowest_terms(A) and (A.nrows, A.ncols) == (len(rows), m)
        assert A.rows == as_rows([[Q(e) for e in r] for r in rows])
        assert A.flatten() == tuple(Q(e) for r in rows for e in r)
        assert all(A.column(j) == tuple(Q(r[j]) for r in rows) for j in range(m))
        assert all(A.entry(i, j) == Q(rows[i][j]) for i in range(A.nrows) for j in range(m))
        assert A.is_zero == all(e == 0 for r in rows for e in r)

    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    @settings(deadline=None, max_examples=150)
    def test_entrywise_arithmetic(self, n, m, data):
        A = data.draw(rational_matrices(n, m))
        B = data.draw(rational_matrices(n, m))
        c = data.draw(rationals)
        expected = {
            "sum": [[x + y for x, y in zip(r, s)] for r, s in zip(A.rows, B.rows)],
            "difference": [[x - y for x, y in zip(r, s)] for r, s in zip(A.rows, B.rows)],
            "negation": [[-x for x in r] for r in A.rows],
            "scale": [[Q(c) * x for x in r] for r in A.rows],
            "transpose": [[r[j] for r in A.rows] for j in range(m)],
        }
        got = {
            "sum": A + B, "difference": A - B, "negation": -A,
            "scale": A.scale(c), "transpose": A.transpose(),
        }
        for key, M in got.items():
            assert in_lowest_terms(M), key
            assert M.rows == as_rows(expected[key]), key
        assert c * A == A * c == A.scale(c)
        assert A.transpose().ncols == n

    @given(square_matrices(5))
    @settings(deadline=None, max_examples=200)
    def test_inverse_and_is_invertible(self, A):
        expected = oracle_inverse_rows(A)
        assert is_invertible(A) == (expected is not None)
        if expected is None:
            with pytest.raises(ValueError):
                A.inverse()
        else:
            inv = A.inverse()
            assert in_lowest_terms(inv) and inv.rows == as_rows(expected)

    @given(rational_matrices(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_equal_values_give_equal_matrices(self, A, data):
        c = data.draw(nonzero_rationals)
        k = data.draw(st.integers(1, 2**61 - 1))
        paths = [
            Matrix.from_rows(A.rows, A.ncols),
            Matrix.from_rows([[str(e) for e in r] for r in A.rows], A.ncols),
            Matrix(tuple(tuple(k * x for x in r) for r in A.ints), k * A.den, A.ncols),
            A.scale(c).scale(1 / c),
            (A + A).scale(Q(1, 2)),
            A - Matrix.zeros(A.nrows, A.ncols),
            -(-A),
            A.transpose().transpose(),
            Matrix.identity(A.nrows) * A,
            A * Matrix.identity(A.ncols),
        ]
        for B in paths:
            assert B == A and hash(B) == hash(A)
            assert (B.ints, B.den) == (A.ints, A.den)
        assert A - A == Matrix.zeros(A.nrows, A.ncols) and (A - A).den == 1

    def test_lowest_terms_on_construction(self):
        half_third = Matrix.from_rows([[Q(1, 2), Q(1, 3)]])
        assert (half_third.ints, half_third.den) == (((3, 2),), 6)
        for ints, den in ((((6, 4),), 12), (((30, 20),), 60)):
            same = Matrix(ints, den, 2)
            assert same == half_third and hash(same) == hash(half_third)
        assert Matrix(((0, 0),), 7, 2) == Matrix.zeros(1, 2)
        with pytest.raises(ValueError):
            Matrix(((1, 0),), 0, 2)
        with pytest.raises(ValueError):
            Matrix(((1, 0),), -2, 2)

    def test_primitive(self):
        A = M([Q(-2, 3), Q(4, 3)], [0, Q(10, 3)])
        assert A.primitive() == M([-1, 2], [0, 5]) and A.primitive().den == 1
        assert M([6, 0], [0, 6]).primitive() == Matrix.identity(2)
        assert Matrix.zeros(2, 3).primitive() == Matrix.zeros(2, 3)


# Integer entries that vanish or coincide mod P, so that ranks mod P can
# fall below ranks over the rationals.
modular_ints = st.sampled_from([0, 1, -1, 2, P, -P, 2 * P, P + 1, P - 1, 3 * P + 2])


@st.composite
def modular_matrices(draw, nrows=None, ncols=None):
    n = draw(st.integers(0, 5)) if nrows is None else nrows
    m = draw(st.integers(0, 5)) if ncols is None else ncols
    return Matrix.from_rows([[draw(modular_ints) for _ in range(m)] for _ in range(n)], m)


def int_rows(A: Matrix) -> list[list[int]]:
    return [integer_row(r)[1] for r in A.rows]


class TestModularCertificates:
    """rank_mod_p bounds the rank from below; is_invertible and Span are
    exact whatever the residues mod P."""

    @given(st.one_of(rational_matrices(), modular_matrices()))
    @settings(deadline=None, max_examples=200)
    def test_rank_mod_p_is_a_lower_bound(self, A):
        assert rank_mod_p(int_rows(A), A.ncols) <= oracle_rref(A)[2]

    @given(st.integers(1, 5).flatmap(
        lambda n: st.one_of(rational_matrices(n, n), modular_matrices(n, n))
    ))
    @settings(deadline=None, max_examples=200)
    def test_is_invertible(self, A):
        assert is_invertible(A) == (oracle_rref(A)[2] == A.nrows)

    def test_singular_mod_p_takes_the_exact_fallback(self, monkeypatch):
        calls = []
        exact_rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda A: calls.append(A) or exact_rref(A))
        D = M([P, 0], [0, 1])
        assert rank_mod_p(int_rows(D), 2) == 1
        assert is_invertible(D) and len(calls) == 1
        assert not is_invertible(M([P, 0], [0, 0])) and len(calls) == 2
        assert is_invertible(Matrix.identity(3)) and len(calls) == 2

    def test_shapes(self):
        assert not is_invertible(M([1, 0, 0], [0, 1, 0]))
        assert rank_mod_p([], 3) == 0
        assert rank_mod_p([[0, 0], [P, 2 * P]], 2) == 0
        assert rank_mod_p([[1, 2], [3, 4], [5, 6]], 2) == 2

    @given(st.one_of(rational_matrices(), modular_matrices()))
    @settings(deadline=None, max_examples=200)
    def test_rref_mod_p_is_the_reduced_echelon_of_the_rows_mod_p(self, A):
        rows = int_rows(A)
        echelon = rref_mod_p(rows, A.ncols)
        pivots = [c for c, _ in echelon]
        assert len(echelon) == rank_mod_p(rows, A.ncols) and pivots == sorted(set(pivots))
        for c, row in echelon:
            assert not any(row[:c]) and [row[q] for q in pivots] == [int(q == c) for q in pivots]
        # each input row is its pivot entries times the echelon rows, mod P
        for x in rows:
            combo = [sum(x[c] * row[t] for c, row in echelon) for t in range(A.ncols)]
            assert all((a - b) % P == 0 for a, b in zip(x, combo))
        kernel = kernel_mod_p(echelon, A.ncols)
        assert len(kernel) == A.ncols - len(echelon)
        for v in kernel:
            assert all(sum(map(lambda a, b: a * b, x, v)) % P == 0 for x in rows)

    def test_rref_mod_p_stops_at_full_rank(self):
        rows = iter([[2, 4], [1, 3], "never read"])
        assert rref_mod_p(rows, 2) == [(0, [1, 0]), (1, [0, 1])]
        assert rref_mod_p([[0, 0], [P, 2 * P]], 2) == [] and kernel_mod_p([], 2) == [[1, 0], [0, 1]]

    @given(st.integers(-linalg._HALF, linalg._HALF), st.integers(1, linalg._HALF))
    @settings(deadline=None, max_examples=300)
    def test_rational_mod_p_recovers_every_fraction_within_the_bound(self, u, v):
        g = gcd(u, v)
        assert rational_mod_p(u * pow(v, -1, P)) == (u // g, v // g)

    @given(st.integers(0, P - 1))
    @settings(deadline=None, max_examples=300)
    def test_rational_mod_p_returns_a_fraction_within_the_bound_or_none(self, a):
        got = rational_mod_p(a)
        if got is not None:
            num, den = got
            assert abs(num) <= linalg._HALF and 0 < den <= linalg._HALF and gcd(num, den) == 1
            assert (num - a * den) % P == 0

    def test_rational_mod_p_past_the_bound(self):
        # P is the largest prime below 2^30: residues are one 30-bit digit
        def is_prime(m):
            return all(m % q for q in range(2, isqrt(m) + 1))

        assert P == 2**30 - 35 and is_prime(P) and not any(map(is_prime, range(P + 1, 2**30)))
        assert linalg._HALF == 23170 and 2 * linalg._HALF**2 < P < 2 * (linalg._HALF + 1) ** 2
        assert rational_mod_p(0) == (0, 1) and rational_mod_p(1) == (1, 1)
        assert rational_mod_p(P - 1) == (-1, 1)
        # an integer past the bound reads as another fraction, or as none
        assert rational_mod_p(10**12) is None
        assert rational_mod_p(10**12 + 1) == (-19453, 3977)
        assert rational_mod_p(23170) == (23170, 1) and rational_mod_p(23171) is None
        third = pow(3, -1, P)
        assert rational_row_mod_p([0, 1, 2 * third % P, -third % P]) == (3, [0, 3, 2, -1])
        assert rational_row_mod_p([0, 10**12]) is None

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_span_matches_oracle(self, data):
        width = data.draw(st.integers(1, 6))
        vectors = data.draw(rational_matrices(ncols=width)).rows
        span = Span(vectors, width)
        assert span.dim == oracle_rref(Matrix.from_rows(vectors, width))[2]
        for _ in range(3):
            v = data.draw(rational_matrices(nrows=1, ncols=width)).rows[0]
            assert span.contains(v) == oracle_span_contains(vectors, v)
            # membership is scale-invariant, so integer rows test the same
            assert span.contains(integer_row(v)[1]) == span.contains(v)
        for u in vectors:
            assert span.contains(u)

    def test_span_widths(self):
        assert Span([], 2).dim == 0 and Span([], 2).contains((0, 0))
        with pytest.raises(ValueError):
            Span([vector([1, 0])], 3)
        with pytest.raises(ValueError):
            Span([vector([1, 0])], 2).contains(vector([1, 0, 0]))
