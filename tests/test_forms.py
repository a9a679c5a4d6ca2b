"""Symmetric forms: polarization, contraction, Jacobians, twisting."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficient, oracle_symmetry_violation, polynomial_value, slot_value
from test_evaluators import oracle_hessian_slices
from symmetrizer import forms
from symmetrizer.algebra import symmetrizer_algebra
from symmetrizer.forms import (
    DegenerateFormError,
    NotASymmetrizerError,
    ProjectivePoint,
    SymForm,
    compose_linear,
    enumerate_monomials,
    grassmann_point,
    is_nondegenerate,
    is_symmetrizer,
    jacobian_kernel,
    jacobian_matrix,
    monomial_count,
    symmetry_violation,
    twist,
    vanishing_order,
)
from symmetrizer.linalg import Matrix, nullspace, vector
from symmetrizer.polys import P as PRIME
from symmetrizer.polytext import format_poly, parse_poly


def V(*xs):
    return vector(xs)


@st.composite
def symforms(draw, nvars=None, degree=None):
    n = nvars if nvars is not None else draw(st.integers(2, 3))
    d = degree if degree is not None else draw(st.integers(3, 4))
    monos = enumerate_monomials(n, d)
    coeffs = [draw(st.integers(-5, 5)) for _ in monos]
    return SymForm.from_coeffs(n, d, zip(monos, map(Q, coeffs)))


def scaled(F: SymForm, s) -> SymForm:
    """s·F, built by from_coeffs: forms have no arithmetic operators."""
    return SymForm.from_coeffs(F.nvars, F.degree, [(a, s * c) for a, c in F.terms])


@st.composite
def rational_vectors(draw, n):
    return vector([draw(st.integers(-4, 4)) for _ in range(n)])


class TestMonomials:
    def test_descending_lex(self):
        assert enumerate_monomials(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
        assert enumerate_monomials(3, 2) == (
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        )

    def test_count(self):
        assert monomial_count(3, 3) == 10
        assert monomial_count(2, 4) == 5
        assert len(enumerate_monomials(4, 3)) == monomial_count(4, 3)


class TestPolarization:
    def test_value_on_basis_cusp(self):
        F = parse_poly("x0^2*x1")
        # c_(2,1) = 1, so F(e0,e0,e1) = 1 * 2!1!/3!
        assert slot_value(F, (0, 0, 1)) == Q(1, 3)
        assert slot_value(F, (0, 0, 0)) == 0
        assert F.evaluate(V(1, 0), V(1, 0), V(0, 1)) == Q(1, 3)

    def test_diagonal_recovers_polynomial(self):
        F = parse_poly("x0^2*x1 + 2*x1^3")
        u = V(2, -1)
        assert F.evaluate(u, u, u) == polynomial_value(F, u)
        assert polynomial_value(F, u) == 4 * (-1) + 2 * (-1) ** 3

    @given(symforms(), st.data())
    @settings(deadline=None, max_examples=40)
    def test_evaluate_is_symmetric(self, F, data):
        vecs = [data.draw(rational_vectors(F.nvars)) for _ in range(F.degree)]
        base = F.evaluate(*vecs)
        perm = data.draw(st.permutations(range(F.degree)))
        assert F.evaluate(*(vecs[i] for i in perm)) == base
        # the form's terms in any order build the same form
        shuffled = SymForm(F.nvars, F.degree, tuple(data.draw(st.permutations(F.terms))))
        assert shuffled == F and shuffled.evaluate(*vecs) == base

    @given(symforms(), st.data())
    @settings(deadline=None, max_examples=40)
    def test_evaluate_is_multilinear(self, F, data):
        vecs = [data.draw(rational_vectors(F.nvars)) for _ in range(F.degree)]
        u = data.draw(rational_vectors(F.nvars))
        c = Q(data.draw(st.integers(-3, 3)))
        shifted = [tuple(a + c * b for a, b in zip(vecs[0], u))] + vecs[1:]
        assert F.evaluate(*shifted) == F.evaluate(*vecs) + c * F.evaluate(u, *vecs[1:])

    @given(symforms())
    @settings(deadline=None, max_examples=40)
    def test_contract_matches_partial_derivative(self, F):
        # (1/d) dP/dx_i as a degree-(d-1) form
        n, d = F.nvars, F.degree
        for i in range(n):
            got = F.contract(tuple(Q(1) if j == i else Q(0) for j in range(n)))
            for beta in enumerate_monomials(n, d - 1):
                alpha = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                expected = coefficient(F, alpha) * alpha[i] / d
                assert coefficient(got, beta) == expected


class TestJacobian:
    def test_matrix_cusp(self):
        F = parse_poly("x0^2*x1")
        J = jacobian_matrix(F)
        assert J == Matrix.from_rows([[0, Q(2, 3), 0], [Q(1, 3), 0, 0]])

    def test_kernel_of_cone(self):
        F = parse_poly("x0^3 + x1^3", nvars=3)
        assert not is_nondegenerate(F)
        assert jacobian_kernel(F) == [V(0, 0, 1)]
        with pytest.raises(DegenerateFormError) as err:
            grassmann_point(F)
        assert err.value.kernel == [V(0, 0, 1)]

    def test_grassmann_equality_is_row_space_equality(self):
        F = parse_poly("x0^2*x1")
        assert grassmann_point(F) == grassmann_point(parse_poly("x0^3 + x0^2*x1"))
        assert grassmann_point(F) == grassmann_point(scaled(F, Q(7, 3)))
        assert grassmann_point(F) != grassmann_point(parse_poly("x0^3 + x1^3"))


def oracle_jacobian_kernel(F: SymForm) -> list:
    """Ker(∂F) the Jacobian way: the null space of J_F^T."""
    return nullspace(jacobian_matrix(F).transpose())


FRACTIONS = st.builds(Q, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def singular_compositions(draw):
    """G(A·x) for a form G in m variables and an m×n integer matrix A,
    m = n - 1 or n - 2: Ker(∂F) contains Ker(A), of dimension 1 or 2,
    which is rarely spanned by coordinate vectors."""
    n = draw(st.integers(3, 4))
    m = n - draw(st.integers(1, 2))
    G = draw(symforms(nvars=m, degree=draw(st.integers(2, 4))))
    A = Matrix.from_rows(
        [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)], n
    )
    return compose_linear(G, A)


class TestKernelFromTable:
    """jacobian_kernel reads Ker(∂F) off the Hessian table; the Jacobian
    route it replaced stays the oracle, compared for exact equality."""

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_random_forms(self, data):
        d = data.draw(st.integers(2, 4))
        F = data.draw(symforms(nvars=data.draw(st.integers(1, 4)), degree=d))
        assert jacobian_kernel(F) == oracle_jacobian_kernel(F)
        assert is_nondegenerate(F) == (oracle_jacobian_kernel(F) == [])

    @given(singular_compositions())
    @settings(deadline=None, max_examples=60)
    def test_cones_and_singular_compositions(self, F):
        kernel = jacobian_kernel(F)
        assert kernel == oracle_jacobian_kernel(F)
        assert 1 <= len(kernel) <= F.nvars

    def test_a_composed_kernel_off_the_coordinate_axes(self):
        G = parse_poly("x0^3 + x1^3")
        F = compose_linear(G, Matrix.from_rows([[1, 1, 1, 0], [0, 1, 0, -1]]))
        assert jacobian_kernel(F) == oracle_jacobian_kernel(F) == [
            V(-1, 0, 1, 0), V(-1, 1, 0, 1)
        ]

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_fractional_coefficients(self, data):
        n, d = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        monos = enumerate_monomials(n, d)
        F = SymForm.from_coeffs(n, d, {a: data.draw(FRACTIONS) for a in monos})
        if data.draw(st.booleans()):  # a cone: drop the last variable
            F = compose_linear(F, Matrix.from_rows(Matrix.identity(n + 1).rows[:n], n + 1))
        assert jacobian_kernel(F) == oracle_jacobian_kernel(F)

    def test_rank_short_mod_p_takes_the_exact_fallback(self, monkeypatch):
        # the table of x0^3 + P x1^3 is diag(1, P), rank 1 mod P but 2 over Q
        F = SymForm.from_coeffs(2, 3, {(3, 0): 1, (0, 3): PRIME})
        solves = []
        monkeypatch.setattr(forms, "nullspace", lambda M: solves.append(M) or nullspace(M))
        assert jacobian_kernel(F) == [] == oracle_jacobian_kernel(F)
        assert is_nondegenerate(F)
        assert len(solves) == 1

    def test_full_rank_mod_p_needs_no_elimination(self, monkeypatch):
        monkeypatch.setattr(forms, "nullspace", lambda M: pytest.fail("exact solve"))
        F = parse_poly("x0^3 + 2*x0*x1*x2 - 1/3*x2^3")
        assert is_nondegenerate(F) and jacobian_kernel(F) == []
        assert "jacobian" not in vars(F)  # no Jacobian was built

    def test_kernel_is_cached_and_handed_out_as_a_fresh_list(self):
        F = parse_poly("x0^3 + x1^3", nvars=3)
        first = jacobian_kernel(F)
        first.append(V(1, 0, 0))
        assert jacobian_kernel(F) == [V(0, 0, 1)]
        assert F.jacobian_kernel is F.jacobian_kernel

    @pytest.mark.parametrize("degree", [0, 1])
    def test_degree_below_two_is_refused(self, degree):
        F = SymForm.from_coeffs(2, degree, {(degree, 0): 1})
        with pytest.raises(ValueError, match="degree >= 2"):
            jacobian_kernel(F)
        with pytest.raises(ValueError, match="degree >= 2"):
            is_nondegenerate(F)


class TestSymmetrizers:
    def test_twist_worked_example(self):
        F = parse_poly("x0^2*x1")
        g = Matrix.from_rows([[1, 0], [3, 1]])
        assert twist(F, g) == parse_poly("x0^3 + x0^2*x1")

    def test_twist_by_identity_and_scalar(self):
        F = parse_poly("x0^2*x2 + x0*x1^2")
        assert twist(F, Matrix.identity(3)) == F
        assert twist(F, Matrix.identity(3) * Q(5)) == scaled(F, 5)

    def test_non_symmetrizer_rejected(self):
        F = parse_poly("x0^2*x1")
        bad = Matrix.from_rows([[0, 1], [0, 0]])
        assert not is_symmetrizer(F, bad)
        violation = symmetry_violation(F, bad)
        assert violation is not None
        with pytest.raises(NotASymmetrizerError):
            twist(F, bad)

    def test_twist_unchecked_still_computes(self):
        F = parse_poly("x0^2*x1")
        bad = Matrix.from_rows([[0, 1], [0, 0]])
        G = twist(F, bad, check=False)
        assert G.degree == 3 and G.nvars == 2

    @pytest.mark.parametrize("check", [True, False])
    def test_twist_refuses_a_matrix_of_the_wrong_shape(self, check):
        F = parse_poly("x0^2*x1")
        for g in (Matrix.identity(3), Matrix.identity(1), Matrix.zeros(2, 3)):
            with pytest.raises(ValueError, match="endomorphism dimension must match"):
                twist(F, g, check=check)

    @given(symforms(nvars=2, degree=3), st.integers(-5, 5), st.integers(1, 7))
    @settings(deadline=None, max_examples=30)
    def test_scalar_twist_scales(self, F, a, b):
        got = twist(F, Matrix.identity(2) * Q(a, b))
        assert got == scaled(F, Q(a, b))


@st.composite
def forms_and_endomorphisms(draw):
    """A sparse form with n <= 4 and d from 2 to 5, and an n×n matrix:
    sparse, with zero columns, dense and random, a member of g_F, or a
    member with one entry moved."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    monos = enumerate_monomials(n, d)
    support = draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    coeffs = st.builds(Q, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 7]))
    F = SymForm.from_coeffs(n, d, [(a, draw(coeffs)) for a in support])
    # mostly integers, so that entries of ±1 reach the test as they are
    entries = st.one_of(
        st.integers(-3, 3).map(Q), st.builds(Q, st.integers(-4, 4), st.sampled_from([2, 5]))
    )
    how = draw(st.sampled_from(["sparse", "zero columns", "random", "member", "perturbed"]))
    if how in ("member", "perturbed"):
        rows = [[Q(0)] * n for _ in range(n)]
        for b in symmetrizer_algebra(F).basis:
            c = draw(entries)
            rows = [[x + c * y for x, y in zip(r, br)] for r, br in zip(rows, b.rows)]
        if how == "perturbed":
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(
                entries.filter(bool)
            )
    elif how == "sparse":
        rows = [[Q(0)] * n for _ in range(n)]
        for _ in range(draw(st.integers(0, 3))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    else:
        rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
        if how == "zero columns":
            zeroed = draw(st.sets(st.integers(0, n - 1), min_size=1))
            rows = [[Q(0) if c in zeroed else x for c, x in enumerate(r)] for r in rows]
    return F, Matrix.from_rows(rows), how


class TestSymmetryTestByRows:
    """`symmetry_violation` combines the rows of `hessian_table`; the
    reference scans every pair and monomial with one dot product each."""

    @given(forms_and_endomorphisms())
    @settings(deadline=None, max_examples=300)
    def test_same_witness_as_the_pair_scan(self, case):
        F, g, how = case
        got = symmetry_violation(F, g)
        assert got == oracle_symmetry_violation(F, g)
        if how == "member":
            assert got is None

    def test_rows_are_the_slices_side_by_side(self):
        F = parse_poly("x0^2*x1 + 2*x1^2*x2 - x2^3 + x0*x1*x2")
        n, (den, slices) = F.nvars, oracle_hessian_slices(F)
        assert F.hessian_table[0] == den
        for k, row in enumerate(F.hessian_table[1]):
            assert len(row) == n * len(slices)
            for b, H in enumerate(slices):
                assert row[b * n:(b + 1) * n] == H[k]

    def test_witness_is_the_first_pair_then_the_first_monomial(self):
        # a single entry g[r][c] moves e_c to e_r; the witness names the
        # first pair i < j whose slices differ, at its first monomial
        # beta, the slots of beta following (i, j)
        F = parse_poly("x0^2*x2 + x0*x1^2")
        for (r, c), witness in {
            (1, 0): (0, 1, 0),
            (0, 2): (0, 2, 2),
            (1, 2): (0, 2, 1),
            (2, 0): None,
        }.items():
            rows = [[int((i, j) == (r, c)) for j in range(3)] for i in range(3)]
            g = Matrix.from_rows(rows)
            got = symmetry_violation(F, g)
            assert got == (None if witness is None else ((0, 1), witness))
            assert got == oracle_symmetry_violation(F, g)


class TestVanishingOrder:
    def test_cusp_orders(self):
        F = parse_poly("x0^2*x1")
        assert vanishing_order(F, V(0, 1)) == 2
        assert vanishing_order(F, V(1, 0)) == 1
        assert vanishing_order(F, V(1, 1)) == 0

    def test_zero_form(self):
        Z = SymForm.zero(2, 3)
        assert vanishing_order(Z, V(1, 1)) == 3

    def test_accepts_projective_point(self):
        F = parse_poly("x0^2*x1")
        assert vanishing_order(F, ProjectivePoint.from_vector(V(0, 7))) == 2

    @given(symforms(), st.data())
    @settings(deadline=None, max_examples=30)
    def test_order_definition(self, F, data):
        # order > k  iff  all contractions by u of length d-k vanish... checked
        # through the defining property: order >= 1 iff P(u) = 0.
        u = data.draw(rational_vectors(F.nvars))
        if all(x == 0 for x in u):
            return
        order = vanishing_order(F, u)
        if order >= 1:
            assert polynomial_value(F, u) == 0
        else:
            assert polynomial_value(F, u) != 0


class TestComposeLinear:
    def test_identity(self):
        F = parse_poly("x0^2*x2 + x0*x1^2")
        assert compose_linear(F, Matrix.identity(3)) == F

    @given(symforms(nvars=2), st.data())
    @settings(deadline=None, max_examples=30)
    def test_substitution_identity(self, F, data):
        m = data.draw(st.integers(1, 3))
        A = Matrix.from_rows(
            [[data.draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(2)]
        )
        v = data.draw(rational_vectors(m))
        G = compose_linear(F, A)
        assert G.nvars == m
        assert polynomial_value(G, v) == polynomial_value(F, A.apply(v))


class TestProjectivePoint:
    def test_normalization(self):
        assert ProjectivePoint.from_vector(V(0, 2, 4)) == ProjectivePoint.from_vector(
            V(0, 1, 2)
        )
        assert str(ProjectivePoint.from_vector(V(0, 3))) == "[0 : 1]"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ProjectivePoint.from_vector(V(0, 0))


class TestValidation:
    def test_coefficient_merging(self):
        F = SymForm.from_coeffs(2, 3, [((3, 0), Q(1)), ((3, 0), Q(2))])
        assert coefficient(F, (3, 0)) == 3

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            SymForm.from_coeffs(2, 3, [((2, 0), Q(1))])

    def test_repeated_monomial_rejected(self):
        with pytest.raises(ValueError, match="stored twice"):
            SymForm(2, 3, (((3, 0), 1), ((3, 0), 1)))

    def test_terms_in_any_order_build_the_canonical_form(self):
        F = SymForm(2, 3, (((0, 3), 1), ((3, 0), 1)))
        G = parse_poly("x0^3 + x1^3")
        assert F == G and hash(F) == hash(G)
        assert format_poly(F) == format_poly(G) == "x0^3 + x1^3"
        assert F.hessian_table == G.hessian_table

    def test_out_of_range_monomial_rejected_even_when_it_cancels(self):
        with pytest.raises(ValueError, match="out of range"):
            SymForm.from_coeffs(2, 3, [((3, 0, 0), 1), ((3, 0, 0), -1)])
