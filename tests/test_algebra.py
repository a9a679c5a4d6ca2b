"""Symmetrizer algebra: splitting, block decomposition, square-zero search,
fiber transport, identity checks."""

import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction as Q
from functools import reduce
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
    H_REGULAR_3,
    H_SQUARE_ZERO_3,
    MUTATION_CONE,
    MUTATION_FORMS,
    hessian_slices,
    off_by_one_twist,
    oracle_hessian_table,
    oracle_recover,
    oracle_table_kernel,
    same_span,
)
from test_evaluators import (
    REPORT_AS_DRAWN,
    endomorphisms,
    forms,
    nonzero_rationals,
    oracle_embed_form,
    oracle_nullspace_fiber_invariance_check,
    oracle_restrict_form,
    unit_triangular_changes,
)
from symmetrizer import algebra, cli, linalg
from symmetrizer.algebra import (
    FiberMismatchError,
    algebra_closure_check,
    check_identities,
    constraint_matrix,
    fiber_invariance_check,
    kernel_image_vanishing,
    nilpotent_report,
    recover_symmetrizer,
    sample_invertible_symmetrizers,
    st_decompose,
    symmetrizer_algebra,
)
from symmetrizer.corpus import GeneratorError, GeneratorSpec, census, generate
from symmetrizer.forms import (
    DegenerateFormError,
    NotASymmetrizerError,
    ProjectivePoint,
    SymForm,
    compose_linear,
    enumerate_monomials,
    is_nondegenerate,
    is_symmetrizer,
    twist,
    vanishing_order,
)
from symmetrizer.linalg import (
    InvariantError,
    Matrix,
    PivotBasis,
    jordan_chevalley,
    minimal_polynomial,
    nilpotency_index,
    nullspace,
    solve_matrix,
    vector,
)
from symmetrizer.polys import Poly, factor_rational
from symmetrizer.polytext import format_poly, parse_poly

CUSP = parse_poly("x0^2*x1")
WHITNEY = parse_poly("x0^2*x2 + x0*x1^2")
NORM = parse_poly("3*x0^2*x1 + 2*x1^3")
FERMAT3 = parse_poly("x0^3 + x1^3 + x2^3")


class TestConstraintSystem:
    def test_shape_for_two_variables_cubic(self):
        # one slot pair (0,1), two degree-1 monomials: two equations
        M = constraint_matrix(CUSP)
        assert M.nrows == 2
        assert M.ncols == 4

    def test_nullspace_matches_membership(self):
        A = symmetrizer_algebra(WHITNEY)
        for g in A.basis:
            assert is_symmetrizer(WHITNEY, g)
        assert A.contains(Matrix.identity(3))
        assert not A.contains(Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


class TestWorkedExamples:
    def test_cusp_dimensions(self):
        A = symmetrizer_algebra(CUSP)
        assert (A.dim_total, A.dim_torus, A.dim_unipotent) == (2, 0, 1)
        assert A.contains(Matrix.identity(2))
        assert A.nondegenerate

    def test_cusp_unipotent_basis(self):
        A = symmetrizer_algebra(CUSP)
        h = Matrix.from_rows([[0, 0], [1, 0]])
        assert same_span(A.unipotent_basis, [h], 2)

    def test_whitney_spanned_by_identity_and_nilpotent_powers(self):
        A = symmetrizer_algebra(WHITNEY)
        assert (A.dim_total, A.dim_torus, A.dim_unipotent) == (3, 0, 2)
        h = H_REGULAR_3
        expected = [Matrix.identity(3), h, h * h]
        assert same_span(A.basis, expected, 3)
        assert same_span(A.unipotent_basis, [h, h * h], 3)

    def test_norm_form_torus(self):
        A = symmetrizer_algebra(NORM)
        assert (A.dim_total, A.dim_torus, A.dim_unipotent) == (2, 1, 0)
        nonscalar = next(
            s
            for s in A.semisimple_parts
            if s - Matrix.identity(2) * s.entry(0, 0) != Matrix.zeros(2)
        )
        # the torus direction has an irreducible quadratic minimal polynomial
        p = minimal_polynomial(nonscalar)
        assert p.degree == 2

    def test_degenerate_algebra_has_no_split(self):
        F = parse_poly("x0^3 + x1^3", nvars=3)
        A = symmetrizer_algebra(F)
        assert not A.nondegenerate
        assert A.dim_total == 5
        assert A.dim_torus is None and A.dim_unipotent is None
        assert A.semisimple_parts is None and A.unipotent_basis is None


class TestClosure:
    @pytest.mark.parametrize("F", [CUSP, WHITNEY, NORM, FERMAT3])
    def test_products_commute_and_stay_inside(self, F):
        report = algebra_closure_check(symmetrizer_algebra(F))
        assert report.ok
        assert report.all_in_span and report.all_commute


class TestKernelImageVanishing:
    def test_square_zero_element_of_cusp(self):
        h = Matrix.from_rows([[0, 0], [1, 0]])
        assert kernel_image_vanishing(CUSP, h)

    def test_rejects_non_symmetrizer(self):
        with pytest.raises(NotASymmetrizerError):
            kernel_image_vanishing(CUSP, Matrix.from_rows([[0, 1], [0, 0]]))


class TestSTDecomposition:
    def test_two_cubes(self):
        F = parse_poly("x0^3 + x1^3")
        dec = st_decompose(F)
        assert dec is not None and dec.k == 2
        assert sorted(format_poly(b.form) for b in dec.blocks) == ["x0^3", "x0^3"]
        B = dec.change_of_basis()
        assert B.inverse() is not None

    def test_fermat_splits_completely(self):
        dec = st_decompose(FERMAT3)
        assert dec is not None and dec.k == 3
        assert all(len(b.basis) == 1 for b in dec.blocks)
        # cross-block values vanish: pick one vector from each block
        reps = [b.basis[0] for b in dec.blocks]
        assert FERMAT3.evaluate(reps[0], reps[1], reps[2]) == 0
        assert FERMAT3.evaluate(reps[0], reps[0], reps[1]) == 0

    def test_certificate_reconstructs_form(self):
        F = parse_poly("x0^3 + x0^2*x1 + x2^3 - x3^3 + x2*x3^2")
        dec = st_decompose(F)
        assert dec is not None and dec.k == 2
        B = dec.change_of_basis()
        terms = []
        offset = 0
        for blk in dec.blocks:
            size = len(blk.basis)
            terms += oracle_embed_form(blk.form, F.nvars, range(offset, offset + size)).terms
            offset += size
        assert compose_linear(F, B) == SymForm.from_coeffs(F.nvars, F.degree, terms)

    def test_cross_block_term_is_refused(self, monkeypatch):
        from symmetrizer import algebra

        def leaky(F, A, compose=algebra.compose_linear):
            # the true substitution plus one term in both blocks' variables
            return SymForm.from_coeffs(2, 3, compose(F, A).terms + (((2, 1), 1),))

        monkeypatch.setattr(algebra, "compose_linear", leaky)
        with pytest.raises(InvariantError, match="cross-block values fail to vanish"):
            st_decompose(parse_poly("x0^3 + x1^3"))

    def test_irreducible_torus_gives_none(self):
        assert st_decompose(NORM) is None

    def test_trivial_torus_gives_none(self):
        assert st_decompose(CUSP) is None

    def test_degenerate_raises(self):
        from symmetrizer.forms import DegenerateFormError

        with pytest.raises(DegenerateFormError):
            st_decompose(parse_poly("x0^3 + x1^3", nvars=3))

    def test_block_forms_restrict_correctly(self):
        F = parse_poly("x0^3 + x1^3")
        dec = st_decompose(F)
        for blk in dec.blocks:
            assert blk.form == oracle_restrict_form(F, blk.basis)
            assert is_nondegenerate(blk.form)
            assert isinstance(blk.factor, Poly)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_fermat_cubic_splits_into_n_blocks(self, n):
        F = parse_poly(" + ".join(f"x{i}^3" for i in range(n)))
        dec = st_decompose(F)
        assert dec is not None and dec.k == n
        for blk in dec.blocks:
            assert blk.form == oracle_restrict_form(F, blk.basis)


def block_count(A) -> int:
    """The block count of A's decomposition (1 when there is none),
    after checking it against the bounds the torus sets: at most
    1 + dim_torus, and at least the factor count of the minimal
    polynomial of every semisimple part."""
    k = A.decomposition.k if A.decomposition else 1
    assert k <= 1 + A.dim_torus
    for S in A.semisimple_parts:
        assert k >= len(factor_rational(minimal_polynomial(S)))
    return k


# the st_sum corpus of acceptance criterion 4: seed s has shape s mod 5
ST_SUM_SHAPES = ((4, 3, (2, 2)), (5, 3, (2, 3)), (5, 4, (2, 3)), (4, 4, (2, 2)), (5, 3, (3, 2)))


class TestFinestSplit:
    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_block_count_within_torus_bounds(self, F):
        A = symmetrizer_algebra(F)
        if A.nondegenerate:
            block_count(A)

    @pytest.mark.parametrize("seed", range(20))
    def test_st_sum_splits_at_least_into_its_blocks(self, seed):
        n, d, blocks = ST_SUM_SHAPES[seed % len(ST_SUM_SHAPES)]
        A = symmetrizer_algebra(generate(GeneratorSpec("st_sum", n, d, seed=seed, blocks=blocks)))
        assert block_count(A) >= len(blocks)

    def test_a_single_repeated_factor_is_an_invariant_error(self, monkeypatch):
        # the torus of NORM has dimension 1, so (t - 1)^2 has the full
        # degree 2 and factors as one factor of multiplicity 2
        monkeypatch.setattr(algebra, "minimal_polynomial", lambda s: Poly.from_coeffs([1, -2, 1]))
        with pytest.raises(InvariantError, match="not squarefree"):
            st_decompose(NORM)


class TestNilpotentReport:
    def test_cusp_unique_class(self):
        rep = nilpotent_report(symmetrizer_algebra(CUSP))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert cls.coefficients == (Q(1),)
        assert cls.matrix == Matrix.from_rows([[0, 0], [1, 0]])
        assert cls.image_dim == 1
        assert cls.image_points == (
            (ProjectivePoint.from_vector(vector([0, 1])), 2),
        )
        assert rep.max_nilpotency_index == 2
        assert rep.cube_zero_all
        assert rep.search_complete and not rep.infinite_family

    def test_whitney_unique_class_is_h_squared(self):
        rep = nilpotent_report(symmetrizer_algebra(WHITNEY))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert cls.matrix == H_REGULAR_3 * H_REGULAR_3
        assert cls.image_dim == 1
        point, order = cls.image_points[0]
        assert point == ProjectivePoint.from_vector(vector([0, 0, 1]))
        assert order >= 2
        assert rep.max_nilpotency_index == 3
        assert rep.cube_zero_all and rep.search_complete

    def test_fermat_has_no_classes(self):
        rep = nilpotent_report(symmetrizer_algebra(FERMAT3))
        assert rep.classes == ()
        assert rep.max_nilpotency_index == 1
        assert rep.cube_zero_all and rep.search_complete

    @pytest.mark.parametrize("text", [
        "x0^2*x2 + x0*x1^2",  # dim U = 2
        "2*x0*x2*x3 + 2*x1*x3^2",  # dim U = 3
    ])
    def test_power_table_holds_each_last_nonzero_power(self, text):
        F = parse_poly(text)
        unip = symmetrizer_algebra(F).unipotent_basis
        max_index, last = algebra._power_table(unip, F.nvars)
        indices = [nilpotency_index(f) for f in unip]
        identity = Matrix.identity(F.nvars)
        assert last == [reduce(mul, [f] * (ell - 1), identity) for f, ell in zip(unip, indices)]
        assert max_index >= max(indices)

    def test_a_non_nilpotent_unipotent_element_fails_the_product_table(self):
        doctored = replace(symmetrizer_algebra(CUSP), unipotent_basis=(Matrix.identity(2),))
        with pytest.raises(InvariantError, match="survived n-fold products"):
            nilpotent_report(doctored)

    def test_every_image_point_is_singular(self, golden_nondegenerate):
        for F in golden_nondegenerate.values():
            rep = nilpotent_report(symmetrizer_algebra(F))
            for cls in rep.classes:
                for point, order in cls.image_points:
                    assert order >= F.degree - 1
                    assert vanishing_order(F, point) == order


def oracle_eager_split(A) -> tuple[tuple[Matrix, ...], int, int]:
    """(unipotent basis, dim torus, dim unipotent) the way the engine used
    to compute them: Jordan–Chevalley on every basis element, the
    unipotent basis the canonical span of the nilpotent parts."""
    n = A.form.nvars
    nils = [jordan_chevalley(b)[1] for b in A.basis]
    span = PivotBasis([N.flat_ints() for N in nils], n * n)
    unipotent = tuple(Matrix.from_flat(n, [Q(x, den) for x in v]) for den, v in span.basis)
    return unipotent, len(A.basis) - 1 - len(unipotent), len(unipotent)


def chain_nilpotent(n: int, lengths, entries) -> Matrix:
    """Jordan chains of the given lengths on consecutive coordinates,
    e_i -> c e_(i+1) inside a chain, with the subdiagonal entries c
    taken from `entries` in order."""
    rows = [[Q(0)] * n for _ in range(n)]
    start, it = 0, iter(entries)
    for length in lengths:
        for i in range(start, start + length - 1):
            rows[i + 1][i] = next(it)
        start += length
    return Matrix.from_rows(rows)


CORPUS_SPECS = (
    [GeneratorSpec(kind="fermat", nvars=n, degree=d) for n in (2, 3, 4, 5) for d in (3, 4)]
    + [GeneratorSpec(kind="random", nvars=n, degree=d, seed=n + d)
       for n in (2, 3, 4, 5) for d in (3, 4)]
    + [GeneratorSpec(kind="st_sum", nvars=n, degree=d, seed=1, blocks=b)
       for n, d, b in ((3, 3, (1, 2)), (4, 3, (2, 2)), (5, 3, (1, 2, 2)), (4, 4, (1, 3)))]
    + [GeneratorSpec(kind="prescribed_nilpotent", nvars=n, degree=d, seed=s, nilpotent=h)
       for n, d, s, h in (
           (3, 3, 5, H_SQUARE_ZERO_3), (3, 4, 1, H_REGULAR_3),
           (4, 3, 1, chain_nilpotent(4, (4,), (1, 1, 1))),
           (4, 4, 2, chain_nilpotent(4, (2, 2), (Q(1, 2), 3))),
           (5, 3, 1, chain_nilpotent(5, (3, 2), (1, 1, 1))),
           (5, 3, 4, chain_nilpotent(5, (5,), (1, 1, 1, 1))),
       )]
    + [GeneratorSpec(kind="cone", nvars=n, degree=d) for n, d in ((3, 3), (4, 4))]
)


class TestTraceFormSplit:
    """The unipotent part as the trace-form radical equals the span of the
    eager Jordan–Chevalley nilpotent parts, exactly."""

    def assert_matches_the_eager_split(self, F):
        A = symmetrizer_algebra(F)
        if not A.nondegenerate:
            assert A.unipotent_basis is None and A.semisimple_parts is None
            return
        unipotent, dim_torus, dim_unipotent = oracle_eager_split(A)
        assert A.unipotent_basis == unipotent
        assert (A.dim_torus, A.dim_unipotent) == (dim_torus, dim_unipotent)

    @pytest.mark.parametrize(
        "spec", CORPUS_SPECS, ids=[f"{s.kind}-{s.nvars}-{s.degree}" for s in CORPUS_SPECS]
    )
    def test_corpus_forms(self, spec):
        self.assert_matches_the_eager_split(generate(spec))

    @pytest.mark.parametrize("text", [
        "x0^2*x2 + x0*x1^2",  # dim U = 2
        "2*x0*x2*x3 + 2*x1*x3^2",  # dim U = 3
    ])
    def test_golden_forms(self, text):
        self.assert_matches_the_eager_split(parse_poly(text))

    @given(st.data())
    @settings(deadline=None, max_examples=30)
    def test_prescribed_chains_with_fractional_entries(self, data):
        n = data.draw(st.integers(2, 5))
        chain = data.draw(st.integers(2, min(n, 4)))
        entries = [
            data.draw(st.builds(Q, st.integers(1, 5), st.sampled_from([1, 2, 3]))
                      .map(lambda q: q * data.draw(st.sampled_from([1, -1]))))
            for _ in range(n)
        ]
        h = chain_nilpotent(n, (chain,) + (1,) * (n - chain), entries)
        spec = GeneratorSpec(
            kind="prescribed_nilpotent", nvars=n, degree=data.draw(st.integers(3, 4)),
            seed=data.draw(st.integers(0, 9)), nilpotent=h,
        )
        try:
            F = generate(spec)
        except GeneratorError:
            assume(False)
        assert symmetrizer_algebra(F).contains(h)
        self.assert_matches_the_eager_split(F)

    def test_census_computes_no_split_parts(self, monkeypatch):
        refuse = lambda *args: pytest.fail("Jordan–Chevalley ran in a census")
        monkeypatch.setattr(algebra, "jordan_chevalley", refuse)
        monkeypatch.setattr(linalg, "jordan_chevalley", refuse)
        rows = list(census(CORPUS_SPECS))
        assert len(rows) == len(CORPUS_SPECS)
        assert any(row.get("dim_unipotent", 0) >= 2 for row in rows)

    def test_split_parts_are_computed_on_demand(self):
        A = symmetrizer_algebra(WHITNEY)
        assert "_split" not in vars(A)
        assert len(A.semisimple_parts) == len(A.nilpotent_parts) == A.dim_total
        assert "_split" in vars(A)

    def test_a_non_nilpotent_radical_element_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(algebra, "nilpotency_index", lambda A: None)
        with pytest.raises(InvariantError, match="trace-form radical"):
            symmetrizer_algebra(WHITNEY)

    def test_a_nilpotent_part_that_is_not_nilpotent_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(algebra, "jordan_chevalley", lambda b: (Matrix.zeros(b.nrows), b))
        with pytest.raises(InvariantError, match="nilpotent part is not nilpotent"):
            symmetrizer_algebra(WHITNEY).nilpotent_parts

    def test_a_semisimple_part_outside_the_algebra_is_an_invariant_error(self, monkeypatch):
        X = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # not in g_F
        monkeypatch.setattr(algebra, "jordan_chevalley", lambda b: (X, b - X))
        with pytest.raises(InvariantError, match="left the algebra"):
            symmetrizer_algebra(WHITNEY).semisimple_parts

    @pytest.mark.parametrize("outside", [
        Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),  # square-zero, not in g_F
        Matrix.identity(3),  # in g_F, not nilpotent
        H_REGULAR_3 + Matrix.identity(3),
    ])
    def test_a_power_outside_the_unipotent_part_is_an_invariant_error(self, monkeypatch, outside):
        A = symmetrizer_algebra(WHITNEY)
        assert nilpotent_report(A).classes  # the real table registers its powers
        table = algebra._power_table

        def offering_one_more(unip, n):
            max_index, last = table(unip, n)
            return max_index, last + [outside]

        monkeypatch.setattr(algebra, "_power_table", offering_one_more)
        with pytest.raises(InvariantError, match="left the unipotent part"):
            nilpotent_report(A)

    @pytest.mark.parametrize("text", [
        "x0^2*x2 + x0*x1^2",  # dim U = 2
        "2*x0*x2*x3 + 2*x1*x3^2",  # dim U = 3
    ])
    @pytest.mark.parametrize("how", ["scaled", "reversed", "combined"])
    def test_the_report_reads_the_radical_in_any_basis(self, text, how):
        A = symmetrizer_algebra(parse_poly(text))
        unip = list(A.unipotent_basis)
        if how == "scaled":
            unip = [Q(-2, 3) * unip[0], 3 * unip[1]] + unip[2:]
        elif how == "reversed":
            unip.reverse()
        else:
            unip[0] = unip[0] + unip[1]
        assert nilpotent_report(replace(A, unipotent_basis=tuple(unip))) == nilpotent_report(A)

    def test_split_additivity_compares_the_radical_with_the_nilpotent_parts(self):
        A = symmetrizer_algebra(WHITNEY)
        h = A.unipotent_basis[0]
        doctored = replace(A, unipotent_basis=(h, Matrix.identity(3)))
        vars(doctored)["nilpotents"] = A.nilpotents  # the square-zero report of g_F
        results = check_identities(WHITNEY, samples=2, algebra=doctored)
        assert results["split_additivity"].status == "fail"
        assert results["split_additivity"].detail == "dims (3, 0, 2)"
        assert check_identities(WHITNEY, samples=2, algebra=A)["split_additivity"].status == "pass"


def oracle_basis(F: SymForm) -> tuple[Matrix, ...]:
    """g_F the way the engine computed it before the pencil: the exact
    null space of the n²-wide constraint system."""
    return tuple(Matrix.from_flat(F.nvars, v) for v in nullspace(constraint_matrix(F)))


def pencil(F: SymForm) -> tuple[Matrix, Matrix]:
    """H = sum of the Hessian slices, H′ = sum of (b + 1) times slice b."""
    n, slices = F.nvars, hessian_slices(F)[1]
    H = [[sum(S[k][j] for S in slices) for j in range(n)] for k in range(n)]
    H2 = [[sum(b * S[k][j] for b, S in enumerate(slices, 1)) for j in range(n)] for k in range(n)]
    return Matrix.from_rows(H), Matrix.from_rows(H2)


@st.composite
def generated_forms(draw, kinds=("random", "st_sum", "prescribed_nilpotent", "fermat", "cone")):
    """Corpus forms of the given kinds, by default all five, in at most 6
    variables, half of them in a random unit-triangular basis."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 6))
    d = draw(st.integers(3, 4)) if n <= 4 else 3
    spec = {"kind": kind, "nvars": n, "degree": d, "seed": draw(st.integers(0, 2**16))}
    if kind == "st_sum":
        cut = draw(st.integers(1, n - 1))
        spec["blocks"] = (cut, n - cut)
    if kind == "prescribed_nilpotent":
        length = draw(st.integers(2, n))
        spec["nilpotent"] = chain_nilpotent(n, (length,) + (1,) * (n - length), [1] * n)
    try:
        F = generate(GeneratorSpec(**spec))
    except GeneratorError:
        assume(False)
    if draw(st.booleans()):
        F = compose_linear(F, draw(unit_triangular_changes(n)))
    return F


def pencil_route(F: SymForm) -> tuple[str, tuple[Matrix, ...] | None]:
    """(route, the basis `_pencil_basis(F)` gives), the route one of
    "certificate failed", "rank n - 1" (the sketch proves g_F = <I>),
    "modular" (read off the sketch mod P and checked) and "exact
    fallback" (the modular basis refused, the exact kernel of R taken)."""
    ran = []
    modular, exact = algebra._modular_pencil_basis, algebra._exact_pencil_basis
    with patch.object(algebra, "_modular_pencil_basis",
                      lambda *a: ran.append("modular") or modular(*a)), \
         patch.object(algebra, "_exact_pencil_basis",
                      lambda *a: ran.append("exact fallback") or exact(*a)):
        canonical = algebra._pencil_basis(F)
    if canonical is None:
        return "certificate failed", None
    return (ran[-1] if ran else "rank n - 1"), algebra._matrices(canonical, F.nvars)


def largest_entry(basis) -> int:
    """The largest |numerator| or denominator over the basis's entries."""
    return max(max(abs(e.numerator), e.denominator) for b in basis for e in b.flatten())


class TestPencilRoute:
    """g_F read off Q[H⁻¹H′] equals the exact null space of the constraint
    system, on the modular route and on its exact fallback, and each
    failed certificate falls back to that null space."""

    @given(generated_forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_basis_equals_the_exact_nullspace(self, F):
        expected = oracle_basis(F)
        assert symmetrizer_algebra(F).basis == expected
        route, basis = pencil_route(F)
        event(route)
        assert route == "certificate failed" or basis == expected

    def test_entries_past_the_reconstruction_bound_take_the_exact_route(self):
        T = Matrix.from_rows([[1, 0, 0], [10**12 + 39, 1, 0], [10**12 - 11, 10**12 + 7, 1]])
        F = compose_linear(FERMAT3, T)
        route, basis = pencil_route(F)
        assert route == "exact fallback" and basis == oracle_basis(F)
        assert largest_entry(basis) > linalg._HALF

    def test_entries_just_past_the_bound_take_the_exact_route(self):
        # entries below 2^30, which reconstruct mod 2^61 − 1 but not mod P
        T = Matrix.from_rows([[1, 0, 0], [150, 1, 0], [97, 131, 1]])
        F = compose_linear(FERMAT3, T)
        route, basis = pencil_route(F)
        assert route == "exact fallback" and basis == oracle_basis(F)
        assert linalg._HALF < largest_entry(basis) < 2**30

    def test_a_sketch_that_loses_rank_takes_the_exact_route(self, monkeypatch):
        # c = 1 gives H, whose pencil rows are zero: the sketch has rank 0
        monkeypatch.setattr(algebra, "SKETCH", (1,))
        F = generate(GeneratorSpec(kind="st_sum", nvars=5, degree=3, seed=1, blocks=(2, 3)))
        assert algebra._pencil_certificates(F)[-1] == 0
        route, basis = pencil_route(F)
        assert route == "exact fallback" and basis == oracle_basis(F)
        assert len(basis) < F.nvars  # so the rank-0 sketch offered too many

    def test_a_reconstruction_off_by_one_is_caught_by_the_exact_check(self, monkeypatch):
        F = generate(GeneratorSpec(kind="st_sum", nvars=4, degree=3, seed=1, blocks=(2, 2)))
        assert pencil_route(F)[0] == "modular"
        reconstruct, mutated = algebra.rational_row_mod_p, []

        def off_by_one(row):
            den, ints = reconstruct(row)
            if not mutated:  # entry (0, 1) of the first element, plus one
                mutated.append(ints[1])
                ints = [ints[0], ints[1] + den] + ints[2:]
            return den, ints

        monkeypatch.setattr(algebra, "rational_row_mod_p", off_by_one)
        route, basis = pencil_route(F)
        assert mutated and route == "exact fallback" and basis == oracle_basis(F)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(kind="random", nvars=8, degree=3, seed=1),
        GeneratorSpec(kind="st_sum", nvars=8, degree=3, seed=1, blocks=(3, 5)),
        GeneratorSpec(kind="fermat", nvars=9, degree=3),
        GeneratorSpec(kind="st_sum", nvars=6, degree=3, seed=2, blocks=(1, 2, 3)),
        GeneratorSpec(kind="prescribed_nilpotent", nvars=5, degree=3, seed=1,
                      nilpotent=chain_nilpotent(5, (3, 2), (1, 1, 1))),
    ], ids=lambda s: f"{s.kind}-{s.nvars}-{s.degree}")
    def test_fixed_forms_take_the_pencil(self, spec):
        F = generate(spec)
        basis = algebra._pencil_basis(F)
        assert basis is not None and algebra._matrices(basis, F.nvars) == oracle_basis(F)

    def test_a_cone_has_a_singular_pencil(self):
        F = generate(GeneratorSpec(kind="cone", nvars=4, degree=3))
        H, _ = pencil(F)
        assert not is_nondegenerate(F) and H.rank() < F.nvars
        assert algebra._pencil_basis(F) is None
        assert symmetrizer_algebra(F).basis == oracle_basis(F)

    def test_a_vanishing_hessian_has_a_singular_pencil(self):
        F = parse_poly("x0*x3^2 + x1*x3*x4 + x2*x4^2")
        H, _ = pencil(F)
        assert is_nondegenerate(F) and H.rank() < F.nvars
        assert algebra._pencil_basis(F) is None
        assert symmetrizer_algebra(F).basis == oracle_basis(F)

    def test_a_derogatory_pencil_ratio_falls_back(self):
        F = parse_poly("2*x0*x2*x3 + 2*x1*x3^2")
        H, H2 = pencil(F)
        assert H.rank() == F.nvars
        assert minimal_polynomial(solve_matrix(H, H2)).degree < F.nvars
        assert algebra._pencil_basis(F) is None
        A = symmetrizer_algebra(F)
        assert A.basis == oracle_basis(F) and A.dim_unipotent == 3

    def test_census_of_eighteen_variables_within_its_wall_clock_bound(self):
        # a dense cubic of 892,302 cells: more than 90 s on the n²-wide
        # system, about 0.1 s on the pencil (2-core machine, Python 3.11)
        start = time.perf_counter()
        (row,) = census([GeneratorSpec(kind="random", nvars=18, degree=3, seed=1)])
        assert time.perf_counter() - start < 15
        assert (row["dim_g"], row["dim_torus"], row["dim_unipotent"]) == (1, 0, 0)

    def test_analyze_of_eighteen_variables_within_its_wall_clock_bound(self, capsys):
        # the same cubic with the identity suite: about 32 s while the
        # fiber check ranked the n²-wide rows of each F^g, about 0.6 s
        # with one bound on F's own pencil (2-core machine, Python 3.11)
        F = generate(GeneratorSpec(kind="random", nvars=18, degree=3, seed=1))
        start = time.perf_counter()
        code = cli.main(["analyze", str(F)])
        assert time.perf_counter() - start < 15
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["dim_g"] == 1
        assert all(c["status"] != "fail" for c in report["checks"].values())


def free_column_shape(basis) -> bool:
    """Whether each element is 1 at its last nonzero entry c_b, the c_b
    ascend, and every element is 0 at the others' c_b: the reduced
    echelon form with the columns reversed."""
    flats = [b.flatten() for b in basis]
    columns = []
    for f in flats:
        support = [t for t, x in enumerate(f) if x]
        if not support or f[support[-1]] != 1:
            return False
        columns.append(support[-1])
    if columns != sorted(set(columns)):
        return False
    return all(f[c] == 0 for i, f in enumerate(flats) for k, c in enumerate(columns) if k != i)


class TestFreeColumnMembership:
    """Every route of `symmetrizer_algebra` returns its basis in
    free-column shape, so membership is one residue with no elimination; any
    other basis of the same space is put in that shape first, and
    membership agrees with the rref of the basis beside g."""

    @pytest.mark.parametrize("case", [
        "rank n - 1", "modular", "exact fallback", "cone", "vanishing hessian",
    ])
    def test_every_route_gives_the_free_column_shape(self, monkeypatch, case):
        st_sum = GeneratorSpec(kind="st_sum", nvars=4, degree=3, seed=1, blocks=(2, 2))
        F, route = {
            "rank n - 1": (generate(GeneratorSpec(kind="random", nvars=4, degree=3, seed=1)),
                           "rank n - 1"),
            "modular": (generate(st_sum), "modular"),
            "exact fallback": (generate(st_sum), "exact fallback"),
            "cone": (generate(GeneratorSpec(kind="cone", nvars=4, degree=3)),
                     "certificate failed"),
            "vanishing hessian": (parse_poly("x0*x3^2 + x1*x3*x4 + x2*x4^2"),
                                  "certificate failed"),
        }[case]
        if case == "exact fallback":  # no entry reconstructs
            monkeypatch.setattr(algebra, "rational_row_mod_p", lambda row: None)
        assert pencil_route(F)[0] == route
        A = symmetrizer_algebra(F)
        assert free_column_shape(A.basis) and A.basis == oracle_basis(F)
        n = F.nvars
        span = PivotBasis([b.flat_ints() for b in A.basis], n * n)
        units = [Matrix(tuple(tuple(int(rc == (r, c)) for c in range(n)) for r in range(n)), 1, n)
                 for rc in itertools.product(range(n), repeat=2)]
        built = []
        echelon = linalg._echelon
        monkeypatch.setattr(
            linalg, "_echelon", lambda *args: built.append(args) or echelon(*args)
        )
        assert A.contains(Matrix.identity(n)) and A.dim == len(A.basis) == len(span.pivots)
        inside = [A.contains(E) for E in units]
        assert not built
        assert inside == [span.coordinates(E.flat_ints()) is not None for E in units]
        assert not all(inside)

    @given(generated_forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_membership_agrees_with_the_exact_span(self, F, data):
        A = symmetrizer_algebra(F)
        n = F.nvars
        # scaled, reordered or combined: a basis of the same space in
        # another shape
        how = data.draw(st.sampled_from(["scaled", "reversed", "combined"]))
        basis = list(A.basis)
        if how == "scaled" or len(basis) == 1:
            basis[0] = basis[0] * data.draw(st.sampled_from([2, -1, Q(1, 3)]))
        elif how == "reversed":
            basis.reverse()
        else:
            basis[0] = basis[0] + basis[1]
        B = replace(A, basis=tuple(basis))
        assert free_column_shape(A.basis) and not free_column_shape(B.basis)
        kernel = [(b.den, b.flat_ints()) for b in A.basis]
        assert B._canonical.basis == A._canonical.basis == kernel
        # the bases `symmetrizer_algebra` handed over, pivots included, are
        # the ones elimination gives a copy that has to build its own
        fresh = replace(A)
        assert vars(fresh).keys().isdisjoint({"_canonical", "_radical"})
        for handed, built in ((A._canonical, fresh._canonical), (A._radical, fresh._radical)):
            assert handed is built is None or (handed.basis, handed.pivots) == (built.basis, built.pivots)
        assert B.dim == A.dim == len(A.basis) and B.spans_kernel(kernel)
        assert not replace(A, basis=A.basis[1:]).spans_kernel(kernel)
        for g in [data.draw(endomorphisms(F, A)) for _ in range(3)] + list(A.basis):
            member = same_span(list(A.basis) + [g], list(A.basis), n)
            assert A.contains(g) == B.contains(g) == member


class TestTableOracles:
    """The Hessian table placed from each monomial's planned cells, and
    Ker ∂F ranked on the table's own rows, equal the per-term placement
    and the transposed table's kernel exactly, cones included."""

    @given(generated_forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_table_and_kernel(self, F):
        assert F.hessian_table == oracle_hessian_table(F)
        assert F.jacobian_kernel == oracle_table_kernel(F)


class TestRecovery:
    def test_worked_pair(self):
        g = recover_symmetrizer(CUSP, parse_poly("x0^3 + x0^2*x1"))
        assert g == Matrix.from_rows([[1, 0], [3, 1]])

    def test_identity_and_scalar(self):
        assert recover_symmetrizer(CUSP, CUSP) == Matrix.identity(2)
        five_cusp = SymForm.from_coeffs(2, 3, [(a, 5 * c) for a, c in CUSP.terms])
        assert recover_symmetrizer(CUSP, five_cusp) == Matrix.identity(2) * Q(5)

    def test_mismatch_raises(self):
        with pytest.raises(FiberMismatchError):
            recover_symmetrizer(CUSP, parse_poly("x0^3 + x1^3"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recover_symmetrizer(CUSP, FERMAT3)

    def test_round_trip_on_sampled_symmetrizers(self, golden_nondegenerate):
        for F in golden_nondegenerate.values():
            A = symmetrizer_algebra(F)
            for g in sample_invertible_symmetrizers(F, algebra=A, seed=11, count=3):
                assert recover_symmetrizer(F, twist(F, g)) == g


@st.composite
def transport_cases(draw):
    """(F, Ft, how): F^g for a sampled invertible g in g_F, a form of F's
    shape off its fiber, F's restriction to a hyperplane (a cone) as
    target or source, or a form of any shape."""
    F = draw(forms())
    n, d = F.nvars, F.degree
    how = draw(st.sampled_from(
        ["twisted", "cross-fiber", "degenerate target", "degenerate source", "any shape"]
    ))
    if how == "twisted":
        g = sample_invertible_symmetrizers(F, seed=draw(st.integers(0, 999)), count=1)[0]
        return F, twist(F, g, check=False), how
    if how == "cross-fiber":
        alpha = draw(st.sampled_from(enumerate_monomials(n, d)))
        return F, SymForm.from_coeffs(n, d, F.terms + ((alpha, draw(nonzero_rationals)),)), how
    if how == "any shape":
        return F, draw(forms()), how
    flatten_last = Matrix.from_rows([[int(i == j < n - 1) for j in range(n)] for i in range(n)])
    cone = compose_linear(F, flatten_last)
    return (F, cone, how) if how == "degenerate target" else (cone, F, how)


def transport_outcome(recover, F, Ft):
    """("ok", g), or the exception type and message."""
    try:
        return ("ok", recover(F, Ft))
    except (DegenerateFormError, FiberMismatchError, InvariantError) as exc:
        return (type(exc), str(exc))


class TestRecoveryAgainstTheWideSolve:
    """`recover_symmetrizer` reads g^T off F's pivot block; the reference
    reduces [J_F^T | J_Ft^T] and checks the result by twisting."""

    @given(transport_cases())
    @settings(REPORT_AS_DRAWN, max_examples=120)
    def test_same_matrix_or_same_error(self, case):
        F, Ft, how = case
        got = transport_outcome(recover_symmetrizer, F, Ft)
        assert got == transport_outcome(oracle_recover, F, Ft)
        if how == "twisted" and is_nondegenerate(F):
            assert got[0] == "ok" and twist(F, got[1]) == Ft

    def test_the_pivot_block_inverse_is_cached_on_the_source(self):
        F = parse_poly("x0^2*x1 + x1^3 + x2^3")
        pivots, E = F.jacobian_pivot_inverse
        assert F.jacobian_pivot_inverse[1] is E
        block = Matrix.from_rows([[r[c] for c in pivots] for r in F.jacobian.rows])
        assert block * E == Matrix.identity(3)

    def test_a_degenerate_source_has_no_pivot_block(self):
        with pytest.raises(ValueError, match="degenerate"):
            parse_poly("x0^3 + x1^3", 3).jacobian_pivot_inverse


def identity_only(n: int) -> PivotBasis:
    """The basis <I> in free-column shape: I is 1 at its last entry."""
    return PivotBasis.canonical([(1, Matrix.identity(n).flat_ints())], [n * n - 1])


class TestSuiteCatchesMutations:
    """The identity suite stays independent of the code it checks: a
    wrong g_F or a wrong twist ends in a failed check, never in an
    escaping error."""

    @pytest.mark.parametrize("text", MUTATION_FORMS)
    def test_a_pencil_basis_of_only_the_identity_fails_fiber_invariance(
        self, monkeypatch, text
    ):
        monkeypatch.setattr(algebra, "_pencil_basis", lambda F: identity_only(F.nvars))
        F = parse_poly(text)
        assert symmetrizer_algebra(F).dim_total == 1
        assert check_identities(F)["fiber_invariance"].status == "fail"

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("text", MUTATION_FORMS)
    def test_a_twist_off_by_one_coefficient_is_caught(self, monkeypatch, text, position):
        # J(F^g) = g^T·J_F fails for the wrong form, and transport to it
        # fails too, whether it is degenerate or off F's fiber
        monkeypatch.setattr(algebra, "twist", off_by_one_twist(position))
        results = check_identities(parse_poly(text))
        assert results["fiber_invariance"].status == "fail"
        assert results["twist_roundtrip"].status == "fail"

    @pytest.mark.parametrize("text, nvars", [MUTATION_CONE, (MUTATION_FORMS[0], None)])
    def test_a_basis_short_of_one_element_fails_fiber_invariance(self, text, nvars):
        # the basis still symmetrizes F and transports its table, so only
        # the algebra bound at g = I can see the missing element
        F = parse_poly(text, nvars)
        A = symmetrizer_algebra(F)
        short = replace(A, basis=A.basis[:-1], dim_total=A.dim_total - 1)
        result = check_identities(F, algebra=short)["fiber_invariance"]
        assert result.status == "fail" and "algebra bound" in result.detail

    def test_a_basis_short_of_one_element_fails_block_algebra_sum(self):
        F = generate(GeneratorSpec(kind="st_sum", nvars=5, degree=3, seed=1, blocks=(2, 3)))
        A = symmetrizer_algebra(F)
        check = algebra._block_algebra_sum_check
        assert check(F, A, A.decomposition).status == "pass"
        result = check(F, replace(A, basis=A.basis[:-1]), A.decomposition)
        assert result.status == "fail"
        assert result.detail == "block algebras do not sum to the whole algebra"

    @pytest.mark.parametrize("position", [0, 1])
    def test_a_twist_off_by_one_coefficient_is_caught_on_a_cone(self, monkeypatch, position):
        # a degenerate form has no round trip: the table identity must see it
        monkeypatch.setattr(algebra, "twist", off_by_one_twist(position))
        F = parse_poly(*MUTATION_CONE)
        A = symmetrizer_algebra(F)
        result = check_identities(F, algebra=A)["fiber_invariance"]
        assert result.detail == f"failed at basis elements {list(range(A.dim))}"


class TestFiberInvariance:
    def test_report_ok_for_invertible_symmetrizer(self):
        g = Matrix.from_rows([[1, 0], [3, 1]])
        report = fiber_invariance_check(CUSP, g)
        assert report.ok
        assert report.algebra_match and report.kernel_match
        assert report.grassmann_match is True

    def test_rejects_singular_matrix(self):
        h = Matrix.from_rows([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            fiber_invariance_check(CUSP, h)

    def test_rejects_non_symmetrizer(self):
        with pytest.raises(NotASymmetrizerError):
            fiber_invariance_check(CUSP, Matrix.from_rows([[0, 1], [1, 0]]))


def oracle_table(F: SymForm) -> Matrix:
    den, K = oracle_hessian_table(F)
    return Matrix(K, den, len(K[0]))


class TestFiberInvarianceOnTheBasis:
    """The suite proves `fiber_invariance` on the basis of g_F, singular
    elements and cones included; the per-sample check is its oracle."""

    @given(generated_forms())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_each_basis_element_transports_the_table(self, F):
        K = oracle_table(F)
        for b in symmetrizer_algebra(F).basis:
            assert oracle_table(twist(F, b, check=False)) == b.transpose() * K

    @given(generated_forms(kinds=("cone",)))
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_each_basis_element_keeps_the_kernel_of_a_cone(self, F):
        assert not is_nondegenerate(F)
        rows = oracle_hessian_table(F)[1]
        # u is in Ker(∂F) exactly when F(u, e_j, e^beta) = (u^T·K)[b·n + j] is 0
        in_kernel = lambda u: not any(sum(x * r for x, r in zip(u, col)) for col in zip(*rows))
        kernel = oracle_table_kernel(F)
        assert kernel and all(map(in_kernel, kernel))
        for b in symmetrizer_algebra(F).basis:
            assert all(in_kernel(b.apply(v)) for v in kernel)

    @given(generated_forms())
    @settings(REPORT_AS_DRAWN, max_examples=10)
    def test_the_suite_agrees_with_the_per_sample_oracle(self, F):
        A = symmetrizer_algebra(F)
        gs = sample_invertible_symmetrizers(F, A, seed=0, count=3)
        expected = all(oracle_nullspace_fiber_invariance_check(F, g, A).ok for g in gs)
        assert expected
        assert check_identities(F, samples=2, algebra=A)["fiber_invariance"].status == "pass"
        # a basis short of one element: the other checks may break on it
        short = replace(A, basis=A.basis[:-1])
        expected = all(oracle_nullspace_fiber_invariance_check(F, g, short).ok for g in gs)
        assert not expected
        assert algebra._fiber_invariance_on_basis(F, short).status == "fail"


class TestSampling:
    def test_samples_are_invertible_symmetrizers(self):
        for F in (CUSP, WHITNEY, FERMAT3):
            samples = sample_invertible_symmetrizers(F, seed=3, count=10)
            assert len(samples) == 10
            for g in samples:
                g.inverse()
                assert is_symmetrizer(F, g)

    def test_deterministic(self):
        a = sample_invertible_symmetrizers(FERMAT3, seed=4, count=5)
        b = sample_invertible_symmetrizers(FERMAT3, seed=4, count=5)
        assert a == b


class TestCheckIdentities:
    def test_no_failures_on_golden_corpus(self, golden_corpus):
        for label, F in golden_corpus.items():
            results = check_identities(F, samples=4)
            bad = {k: r for k, r in results.items() if r.status == "fail"}
            assert not bad, (label, bad)

    def test_degenerate_skips(self, golden_corpus):
        results = check_identities(golden_corpus["cone_3_3"], samples=2)
        assert results["split_additivity"].status == "skip"
        assert results["square_zero_exists"].status == "skip"
        assert results["product_closure"].status == "pass"

    def test_norm_form_block_skip_mentions_irreducibility(self):
        results = check_identities(NORM, samples=2)
        assert results["block_decomposition"].status == "skip"
        assert "irreducible" in results["block_decomposition"].detail

    def test_finiteness_gated_checks(self):
        gated = check_identities(WHITNEY, samples=2)
        assert gated["square_zero_image_lines"].status == "skip"
        full = check_identities(WHITNEY, samples=2, assume_finite_singular=True)
        assert full["square_zero_image_lines"].status == "pass"
        assert full["cube_vanishing"].status == "pass"
        assert full["square_zero_images_distinct"].status == "pass"

    def test_doctored_algebras_fail_the_identity_checks(self):
        F = parse_poly("x0^3 + x1^3")
        A = symmetrizer_algebra(F)
        assert all(r.status != "fail" for r in check_identities(F, samples=2, algebra=A).values())
        no_identity = replace(A, basis=A.basis[1:])
        assert not no_identity.contains(Matrix.identity(2))
        results = check_identities(F, samples=2, algebra=no_identity)
        assert results["identity_element"].status == "fail"
        for doctored in (
            replace(A, dim_torus=A.dim_torus - 1),
            # still dim_total = 1 + dim_torus + dim_unipotent
            replace(A, dim_torus=A.dim_torus - 1, dim_unipotent=A.dim_unipotent + 1),
        ):
            results = check_identities(F, samples=2, algebra=doctored)
            assert results["split_additivity"].status == "fail"


class TestPrescribedNilpotent:
    def test_square_zero_prescription_shows_up(self, golden_corpus):
        F = golden_corpus["prescribed_3_3"]
        assert is_symmetrizer(F, H_SQUARE_ZERO_3)
        A = symmetrizer_algebra(F)
        assert A.contains(H_SQUARE_ZERO_3)
        assert nilpotency_index(H_SQUARE_ZERO_3) == 2


class TestEmbedRestrict:
    def test_embed_then_restrict_is_identity(self):
        G = parse_poly("x0^3 + x0*x1^2")
        E = Matrix.from_rows((Matrix.identity(5).rows[1], Matrix.identity(5).rows[3]), 5)
        F = compose_linear(G, E)
        assert F == oracle_embed_form(G, 5, (1, 3))
        assert compose_linear(F, E.transpose()) == G
