"""Form generators: determinism, family shapes, census records."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import H_REGULAR_3, H_SQUARE_ZERO_3, oracle_form_space
from symmetrizer import corpus
from symmetrizer.algebra import symmetrizer_algebra
from symmetrizer.corpus import (
    KINDS,
    RETRY_CAP,
    GeneratorError,
    GeneratorSpec,
    census,
    generate,
    nilpotent_form_space,
)
from symmetrizer.forms import (
    SymForm,
    alpha_factorial,
    compose_linear,
    enumerate_monomials,
    is_nondegenerate,
    is_symmetrizer,
    jacobian_kernel,
    monomial_index,
    symmetry_violation,
)
from symmetrizer.linalg import Matrix, nilpotency_index, nullspace, solve, vector
from symmetrizer.polytext import parse_poly
from symmetrizer.rng import GAMMA, MASK64, MIX1, MIX2, SplitMix64


class TestStreamContract:
    # hand-stepped from the documented recurrence: state += GAMMA, then
    # two xor-shift-multiply rounds with MIX1/MIX2, final xor-shift 31
    def test_first_outputs_for_seed_zero(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0x187C7E5A30947AEF,
            0x9E64613A7A6AA0CB,
            0xA754B030F199B800,
        ]

    def test_constants_are_fixed(self):
        assert GAMMA == 0x9E3779B97F4A7C15
        assert MIX1 == 0xBF58476D1CE4B9B1
        assert MIX2 == 0x94D049BB133111EB
        assert MASK64 == (1 << 64) - 1

    def test_int_in_is_modular_reduction(self):
        a, b = SplitMix64(42), SplitMix64(42)
        for _ in range(20):
            assert a.int_in(-9, 9) == -9 + b.next_u64() % 19

    def test_int_in_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).int_in(3, 2)

    def test_int_in_covers_the_closed_range(self):
        r = SplitMix64(0)
        assert {r.int_in(-1, 1) for _ in range(50)} == {-1, 0, 1}


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("random", 3, 3, seed=9),
            GeneratorSpec("st_sum", 4, 3, seed=7, blocks=(2, 2)),
            GeneratorSpec("prescribed_nilpotent", 3, 3, seed=5, nilpotent=H_SQUARE_ZERO_3),
        ],
    )
    def test_same_spec_same_form(self, spec):
        assert generate(spec) == generate(spec)

    def test_seed_changes_the_draw(self):
        a = generate(GeneratorSpec("random", 3, 3, seed=0))
        b = generate(GeneratorSpec("random", 3, 3, seed=1))
        assert a != b


class TestFamilies:
    def test_fermat(self):
        F = generate(GeneratorSpec("fermat", 3, 3))
        assert F == parse_poly("x0^3 + x1^3 + x2^3")

    def test_cone_is_degenerate(self):
        F = generate(GeneratorSpec("cone", 2, 3))
        assert F == parse_poly("x0^3", nvars=2)
        assert not is_nondegenerate(F)

    def test_cone_kernel_is_the_silent_variable(self):
        F = generate(GeneratorSpec("cone", 3, 3))
        assert jacobian_kernel(F) == [vector([0, 0, 1])]

    def test_random_coefficients_respect_the_bound(self):
        F = generate(GeneratorSpec("random", 3, 4, seed=12, coefficient_bound=3))
        assert F.coeff_map
        assert all(abs(c) <= 3 for c in F.coeff_map.values())

    def test_st_sum_has_no_cross_block_monomials(self):
        F = generate(GeneratorSpec("st_sum", 4, 3, seed=7, blocks=(2, 2)))
        for alpha in F.coeff_map:
            touches_low = alpha[0] or alpha[1]
            touches_high = alpha[2] or alpha[3]
            assert not (touches_low and touches_high)

    def test_st_sum_blocks_are_nondegenerate(self):
        F = generate(GeneratorSpec("st_sum", 5, 4, seed=3, blocks=(2, 3)))
        identity = Matrix.identity(5).rows
        lo = compose_linear(F, Matrix.from_rows([r[:2] for r in identity]))
        hi = compose_linear(F, Matrix.from_rows([r[2:] for r in identity]))
        assert is_nondegenerate(lo) and is_nondegenerate(hi)


class TestPrescribedNilpotent:
    def test_space_members_admit_the_matrix(self):
        for F in nilpotent_form_space(H_REGULAR_3, 3):
            assert symmetry_violation(F, H_REGULAR_3) is None

    def test_space_contains_the_chain_pairing_form(self):
        # F = x0^2*x2 + x0*x1^2 admits e0 -> e1 -> e2 -> 0
        space = nilpotent_form_space(H_REGULAR_3, 3)
        target = parse_poly("x0^2*x2 + x0*x1^2")
        columns = Matrix.from_rows([B.coeff_vector() for B in space]).transpose()
        assert solve(columns, target.coeff_vector()) is not None

    def test_generated_form_carries_the_matrix(self):
        F = generate(
            GeneratorSpec("prescribed_nilpotent", 3, 3, seed=5, nilpotent=H_SQUARE_ZERO_3)
        )
        assert is_nondegenerate(F)
        assert is_symmetrizer(F, H_SQUARE_ZERO_3)
        assert symmetrizer_algebra(F).contains(H_SQUARE_ZERO_3)


def oracle_nilpotent_form_space(h: Matrix, degree: int) -> list[SymForm]:
    """The form space from Fraction rows: each entry h[k][col]·alpha!/d!
    accumulated as a rational, every coefficient (zeros too) handed to
    from_coeffs."""
    n, d = h.nrows, degree
    monos = enumerate_monomials(n, d)
    index = monomial_index(n, d)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for beta in enumerate_monomials(n, d - 2):
                row = [Fraction(0)] * len(monos)
                for k in range(n):
                    for col, other, sign in ((i, j, 1), (j, i, -1)):
                        if h.entry(k, col):
                            alpha = tuple(b + (t == k) + (t == other) for t, b in enumerate(beta))
                            row[index[alpha]] += sign * h.entry(k, col) * Fraction(
                                alpha_factorial(alpha), factorial(d)
                            )
                rows.append(row)
    basis = nullspace(Matrix.from_rows(rows, len(monos)))
    return [SymForm.from_coeffs(n, d, dict(zip(monos, v))) for v in basis]


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))


@st.composite
def nilpotent_matrices(draw):
    """A strictly lower triangular rational matrix, conjugated by a
    permutation and by I + c·E_ij, so entries and denominators spread."""
    n = draw(st.integers(2, 4))
    L = [[draw(small_rationals) if j < i else 0 for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    Pm = Matrix.from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    c = draw(small_rationals) if i != j else 0
    # U = c·E_ij squares to zero, so I - U inverts I + U
    U = Matrix.from_rows([[c if (r, s) == (i, j) else 0 for s in range(n)] for r in range(n)])
    I = Matrix.identity(n)
    h = (I + U) * Pm * Matrix.from_rows(L) * Pm.transpose() * (I - U)
    assert nilpotency_index(h) is not None
    return h


class TestFormSpaceMatchesOracle:
    # the benchmark only draws integer square-zero h, so the denominator
    # h.den of the integer rows is exercised here
    @pytest.mark.parametrize("degree", [3, 4])
    def test_fractional_chain(self, degree):
        h = Matrix.from_rows([[0, 0, 0], [Fraction(1, 2), 0, 0], [0, 3, 0]])
        assert h.den == 2
        space = nilpotent_form_space(h, degree)
        assert space and space == oracle_nilpotent_form_space(h, degree)

    @given(nilpotent_matrices(), st.sampled_from([3, 4]))
    @settings(deadline=None, max_examples=40)
    def test_random_nilpotent(self, h, degree):
        assert nilpotent_form_space(h, degree) == oracle_nilpotent_form_space(h, degree)

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_sparse_rows_give_the_dense_kernel(self, data):
        """Rows from h's nonzero entries only, with the pairs of two zero
        columns skipped, give the kernel of every dense row: on square-zero
        h, which map some coordinates into others, and on strictly lower
        triangular h, whose entries may be zero."""
        n = data.draw(st.integers(2, 5))
        if data.draw(st.booleans()):
            source = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
            mapped = lambda r, c: c in source and r not in source
            entry = lambda r, c: data.draw(small_rationals) if mapped(r, c) else 0
        else:
            entry = lambda r, c: data.draw(small_rationals) if c < r else 0
        h = Matrix.from_rows([[entry(r, c) for c in range(n)] for r in range(n)])
        assert nilpotency_index(h) is not None
        degree = data.draw(st.sampled_from([3, 4]))
        assert corpus._form_space(h, degree) == oracle_form_space(h, degree)


# ---------------------------------------------------------------------------
# generate as it was built: cones and direct sums by compose_linear with
# rows of the identity, summed and each prescribed draw merged in Fractions
# by from_coeffs


def oracle_random_form(nvars: int, degree: int, seed: int, bound: int) -> SymForm:
    rng = SplitMix64(seed)
    coeffs = {}
    for alpha in enumerate_monomials(nvars, degree):
        c = rng.int_in(-bound, bound)
        if c:
            coeffs[alpha] = c
    return SymForm.from_coeffs(nvars, degree, coeffs)


def oracle_fermat(nvars: int, degree: int) -> SymForm:
    powers = {tuple(degree if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)}
    return SymForm.from_coeffs(nvars, degree, powers)


def oracle_generate(spec: GeneratorSpec) -> SymForm:
    n, d = spec.nvars, spec.degree
    if spec.kind == "fermat":
        return oracle_fermat(n, d)
    if spec.kind == "cone":
        rows = Matrix.identity(n).rows[:-1]
        return compose_linear(oracle_fermat(n - 1, d), Matrix.from_rows(rows, n))
    if spec.kind == "random":
        return oracle_random_form(n, d, spec.seed, spec.coefficient_bound)
    if spec.kind == "st_sum":
        stream = SplitMix64(spec.seed)
        terms = []
        off = 0
        for size in spec.blocks:
            for _ in range(RETRY_CAP):
                sub = oracle_random_form(size, d, stream.next_u64(), spec.coefficient_bound)
                if is_nondegenerate(sub):
                    break
            else:
                raise GeneratorError(
                    f"no nondegenerate block of size {size} within {RETRY_CAP} draws"
                )
            rows = Matrix.identity(n).rows[off : off + size]
            terms += compose_linear(sub, Matrix.from_rows(rows, n)).terms
            off += size
        return SymForm.from_coeffs(n, d, terms)
    space = nilpotent_form_space(spec.nilpotent, d)
    if not space:
        raise GeneratorError("only the zero form admits this symmetrizer")
    rng = SplitMix64(spec.seed)
    for _ in range(RETRY_CAP):
        coeffs = {}
        for b in space:
            c = rng.int_in(-spec.coefficient_bound, spec.coefficient_bound)
            if c:
                for alpha, v in b.terms:
                    coeffs[alpha] = coeffs.get(alpha, 0) + c * v
        F = SymForm.from_coeffs(n, d, coeffs)
        if not F.is_zero and is_nondegenerate(F):
            return F
    raise GeneratorError(
        f"no nondegenerate form with the prescribed symmetrizer in {RETRY_CAP} draws"
    )


def generated(make, spec):
    try:
        return ("ok", make(spec))
    except GeneratorError as exc:
        return ("error", str(exc))


@st.composite
def generator_specs(draw):
    """Every kind at n 2-5 and d 3-4 (prescribed: n 2-4, fractional
    nilpotents), any seed, small and large coefficient bounds."""
    kind = draw(st.sampled_from(KINDS))
    fields = {"seed": draw(st.integers(0, 2**64 - 1)),
              "coefficient_bound": draw(st.sampled_from([1, 2, 10, 10**6]))}
    if kind == "prescribed_nilpotent":
        h = draw(nilpotent_matrices())
        n, fields["nilpotent"] = h.nrows, h
    else:
        n = draw(st.integers(2, 5))
    if kind == "st_sum":
        cuts = draw(st.sets(st.integers(1, n - 1)))
        ends = [0, *sorted(cuts), n]
        fields["blocks"] = tuple(b - a for a, b in zip(ends, ends[1:]))
    return GeneratorSpec(kind, n, draw(st.sampled_from([3, 4])), **fields)


class TestGeneratorMatchesOracle:
    """generate pads exponent vectors and combines the prescribed basis as
    integers over one denominator; the result equals the oracle's form,
    term for term, and so do its errors."""

    @given(generator_specs())
    @settings(deadline=None, max_examples=80)
    def test_form_for_form(self, spec):
        assert generated(generate, spec) == generated(oracle_generate, spec)

    @pytest.mark.parametrize("seed", range(4))
    def test_fractional_chain_and_wide_blocks(self, seed):
        h = Matrix.from_rows([[0, 0, 0, 0], [Fraction(2, 3), 0, 0, 0],
                              [0, Fraction(-5, 7), 0, 0], [0, 0, 0, 0]])
        for spec in (
            GeneratorSpec("prescribed_nilpotent", 4, 3, seed=seed, nilpotent=h),
            GeneratorSpec("prescribed_nilpotent", 4, 4, seed=seed, nilpotent=h),
            GeneratorSpec("st_sum", 6, 3, seed=seed, blocks=(1, 3, 2)),
            GeneratorSpec("cone", 6, 4, seed=seed),
        ):
            assert generated(generate, spec) == generated(oracle_generate, spec)


class TestSpecValidation:
    def test_kind_list_is_closed(self):
        assert set(KINDS) == {"fermat", "random", "st_sum", "cone", "prescribed_nilpotent"}
        with pytest.raises(GeneratorError):
            GeneratorSpec("hessian", 3, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "fermat", "nvars": 1, "degree": 3},
            {"kind": "fermat", "nvars": 3, "degree": 2},
            {"kind": "random", "nvars": 3, "degree": 3, "coefficient_bound": 0},
            {"kind": "st_sum", "nvars": 4, "degree": 3},
            {"kind": "st_sum", "nvars": 4, "degree": 3, "blocks": (2, 3)},
            {"kind": "st_sum", "nvars": 4, "degree": 3, "blocks": (4, 0)},
            {"kind": "prescribed_nilpotent", "nvars": 3, "degree": 3},
        ],
    )
    def test_bad_specs_are_rejected(self, kwargs):
        with pytest.raises(GeneratorError):
            GeneratorSpec(**kwargs)

    def test_prescribed_matrix_must_be_nilpotent(self):
        with pytest.raises(GeneratorError, match="not nilpotent"):
            GeneratorSpec(
                "prescribed_nilpotent", 2, 3, nilpotent=Matrix.identity(2)
            )

    def test_prescribed_matrix_must_match_nvars(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec(
                "prescribed_nilpotent", 3, 3, nilpotent=Matrix.from_rows([[0, 0], [1, 0]])
            )


class TestCensus:
    def test_fermat_rows_have_maximal_torus(self):
        specs = [GeneratorSpec("fermat", n, 3) for n in (2, 3, 4)]
        rows = list(census(specs))
        assert [r["nvars"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["dim_g"] == r["nvars"]
            assert r["dim_torus"] == r["nvars"] - 1
            assert r["dim_unipotent"] == 0
            assert r["square_zero_count"] == 0

    def test_prescribed_rows_report_unipotent_dimension(self):
        spec = GeneratorSpec(
            "prescribed_nilpotent", 3, 3, seed=5, nilpotent=H_SQUARE_ZERO_3
        )
        (row,) = census([spec])
        assert row["dim_unipotent"] >= 1

    def test_degenerate_rows_are_skipped_not_crashed(self):
        (row,) = census([GeneratorSpec("cone", 3, 3)])
        assert row["skipped"] == "degenerate"
        assert row["kind"] == "cone"
        assert "dim_g" not in row

    def test_rows_come_back_in_spec_order_with_seeds(self):
        specs = [GeneratorSpec("random", 3, 3, seed=s) for s in (5, 1, 3)]
        rows = list(census(specs))
        assert [r["seed"] for r in rows] == [5, 1, 3]
