"""Exact linear algebra: echelon forms, spans, minimal polynomials, splitting."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetrizer import linalg
from symmetrizer.linalg import (
    P,
    Matrix,
    Span,
    coordinates_in_span,
    integer_row,
    is_invertible,
    jordan_chevalley,
    minimal_polynomial,
    nilpotency_index,
    nullspace,
    poly_at_matrix,
    rank_mod_p,
    rref,
    solve,
    span_contains,
    span_equal,
    vector,
)
from symmetrizer.polys import Poly, is_squarefree


def M(*rows) -> Matrix:
    return Matrix.from_rows(rows)


# Reference oracles: plain Fraction Gauss-Jordan and the naive product,
# which the integer kernels in linalg must match exactly.


def oracle_rref(A: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Gauss-Jordan on Fractions with the same pivot rule as rref."""
    rows = [[Q(e) for e in r] for r in A.rows]
    pivots, r = [], 0
    for c in range(A.ncols):
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
    return Matrix(tuple(tuple(row) for row in rows), A.ncols), tuple(pivots), r


def oracle_product(A: Matrix, B: Matrix) -> Matrix:
    """The naive triple loop on Fractions."""
    return Matrix(
        tuple(
            tuple(
                sum((Q(A.rows[i][k]) * B.rows[k][j] for k in range(A.ncols)), Q(0))
                for j in range(B.ncols)
            )
            for i in range(A.nrows)
        ),
        B.ncols,
    )


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
    aug = Matrix(tuple(tuple(row) + (b[i],) for i, row in enumerate(A.rows)), A.ncols + 1)
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
    rank = lambda rows: oracle_rref(Matrix(tuple(rows), len(v)))[2]
    return rank(list(vectors) + [v]) == rank(vectors)


def oracle_poly_at_matrix(p: Poly, A: Matrix) -> Matrix:
    """Horner adding c times a full identity matrix at every step."""
    acc = Matrix.zeros(A.nrows)
    for c in reversed(p.coeffs):
        acc = oracle_product(acc, A) + c * Matrix.identity(A.nrows)
    return acc


# Large coprime denominators make the row lcms, and so the integer rows,
# wide; zero weighs in heavily so zero rows and sparse pivots occur.
DENOMINATORS = [1, 1, 2, 3, 7, 97, 65537, 1000003, 2**31 - 1, 2**61 - 1]
rationals = st.one_of(
    st.just(0),
    st.builds(Q, st.integers(-50, 50), st.sampled_from(DENOMINATORS)),
)


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """Wide, tall and empty shapes; zero rows; built either through
    from_rows or directly from mixed int/Fraction tuples."""
    n = draw(st.integers(0, 6)) if nrows is None else nrows
    m = draw(st.integers(0, 6)) if ncols is None else ncols
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            rows.append([0] * m)
        else:
            rows.append([draw(rationals) for _ in range(m)])
    if draw(st.booleans()):
        return Matrix.from_rows(rows, m)
    raw = tuple(tuple(int(e) if Q(e).denominator == 1 else e for e in r) for r in rows)
    return Matrix(raw, m)


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
    def test_span_equal_under_row_operations(self):
        a = [vector([1, 0, 1]), vector([0, 1, 0])]
        b = [vector([1, 1, 1]), vector([2, -1, 2])]
        assert span_equal(a, b)
        assert not span_equal(a, [vector([1, 0, 0])])

    def test_span_contains(self):
        basis = [vector([1, 0]), vector([1, 1])]
        assert span_contains(basis, vector([0, 5]))
        assert not span_contains([vector([1, 0])], vector([0, 1]))

    def test_coordinates_in_span(self):
        basis = [vector([1, 0, 0]), vector([0, 2, 0])]
        assert coordinates_in_span(basis, vector([3, 4, 0])) == (Q(3), Q(2))
        assert coordinates_in_span(basis, vector([0, 0, 1])) is None

    def test_empty_span(self):
        assert span_equal([], [], width=4)
        assert not span_contains([], vector([1]))


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
        assert A * B == oracle_product(A, B)

    @given(st.integers(0, 4).flatmap(lambda n: rational_matrices(n, n)),
           st.lists(rationals, max_size=5))
    @settings(deadline=None, max_examples=150)
    def test_poly_at_matrix(self, A, coeffs):
        p = Poly.from_coeffs(coeffs)
        assert poly_at_matrix(p, A) == oracle_poly_at_matrix(p, A)

    def test_negative_pivot_and_coprime_denominators(self):
        A = M([Q(-3, 65537), Q(1, 7), 0], [Q(2, 1000003), Q(-5, 97), Q(1, 2)])
        assert rref(A) == oracle_rref(A)
        assert A * A.transpose() == oracle_product(A, A.transpose())


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

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_span_matches_oracle(self, data):
        width = data.draw(st.integers(1, 6))
        vectors = data.draw(rational_matrices(ncols=width)).rows
        span = Span(vectors, width)
        assert span.dim == oracle_rref(Matrix(tuple(vectors), width))[2]
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
