"""The Hessian-slice evaluators, the linear substitution and the identity
suite's reuse against the implementations they replaced.

`symmetry_violation`, `constraint_matrix`, `kernel_image_vanishing`, the
cross-block check and `jacobian_matrix` read the per-form tables cached on
`SymForm`. `compose_linear` with a rectangular matrix replaces the block
restriction and re-embedding that `st_decompose` and the corpus used. The
oracles below are the earlier implementations, which derive every value
from `SymForm.evaluate`/`contract` or `conftest.slot_value`, or re-index
exponents directly. The sampler, the closure check and the fiber check
now work on integer matrices and prove ranks mod a prime; their oracles
are the Fraction versions with exact ranks and null spaces. The new
functions must agree with them exactly: the same witness tuple, the same
booleans, the same matrix, the same form, the same report.
"""

import dataclasses

from fractions import Fraction as Q
from math import factorial, lcm

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import flats, hessian_slices, row_space, same_span, slot_value
from symmetrizer import algebra, linalg
from symmetrizer.algebra import (
    CheckResult,
    ClosureReport,
    FiberInvarianceReport,
    PairCheck,
    STBlock,
    STDecomposition,
    _cross_block_check,
    algebra_closure_check,
    constraint_matrix,
    fiber_invariance_check,
    kernel_image_vanishing,
    sample_invertible_symmetrizers,
    st_decompose,
    symmetrizer_algebra,
)
from symmetrizer.corpus import GeneratorError, GeneratorSpec, generate
from symmetrizer.forms import (
    NotASymmetrizerError,
    SymForm,
    alpha_factorial,
    basis_vector,
    compose_linear,
    enumerate_monomials,
    grassmann_point,
    is_nondegenerate,
    jacobian_kernel,
    jacobian_matrix,
    monomial_count,
    monomial_index,
    monomial_slots,
    pairings_vanish,
    symmetry_violation,
    twist,
)
from symmetrizer.linalg import Matrix, integer_nullspace, nullspace, rref
from symmetrizer.polys import P, Poly
from symmetrizer.polytext import parse_poly
from symmetrizer.rng import SplitMix64

# A failing example is reported as drawn, unshrunk: shrinking the composite
# forms() and endomorphisms() draws reruns the algebra on every candidate
# and could take minutes and hundreds of MB before any report. Each test
# keeps its own example count.
REPORT_AS_DRAWN = settings(
    deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
)

# ---------------------------------------------------------------------------
# Oracles: the contraction-based evaluators, as they were before the table.


def oracle_contraction_symmetry_violation(F: SymForm, g: Matrix):
    n, d = F.nvars, F.degree
    if g.nrows != n or g.ncols != n:
        raise ValueError("endomorphism dimension must match the form")
    images = [g.apply(basis_vector(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for beta in enumerate_monomials(n, d - 2):
                rest = [basis_vector(n, k) for k in monomial_slots(beta)]
                lhs = F.evaluate(images[i], basis_vector(n, j), *rest)
                rhs = F.evaluate(images[j], basis_vector(n, i), *rest)
                if lhs != rhs:
                    return (0, 1), (i, j) + monomial_slots(beta)
    return None


def oracle_constraint_matrix(F: SymForm) -> Matrix:
    n, d = F.nvars, F.degree
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for beta in enumerate_monomials(n, d - 2):
                row = [Q(0)] * (n * n)
                for k in range(n):
                    row[k * n + i] += slot_value(F, (k, j) + monomial_slots(beta))
                    row[k * n + j] -= slot_value(F, (k, i) + monomial_slots(beta))
                rows.append(row)
    return Matrix.from_rows(rows, n * n)


def oracle_pairings_vanish(F: SymForm, us, ws) -> bool:
    n, d = F.nvars, F.degree
    for u in us:
        for w in ws:
            for beta in enumerate_monomials(n, d - 2):
                rest = [basis_vector(n, t) for t in monomial_slots(beta)]
                if F.evaluate(u, w, *rest) != 0:
                    return False
    return True


def oracle_kernel_image_vanishing(F: SymForm, h: Matrix) -> bool:
    witness = oracle_contraction_symmetry_violation(F, h)
    if witness is not None:
        raise NotASymmetrizerError(*witness)
    n = F.nvars
    image = row_space([h.column(j) for j in range(n)], n)
    return oracle_pairings_vanish(F, image, nullspace(h))


def oracle_cross_block_check(F: SymForm, dec: STDecomposition) -> CheckResult:
    for a in range(len(dec.blocks)):
        for b in range(a + 1, len(dec.blocks)):
            if not oracle_pairings_vanish(F, dec.blocks[a].basis, dec.blocks[b].basis):
                return CheckResult("fail", f"blocks {a},{b} have a nonzero cross value")
    return CheckResult("pass", f"{dec.k} blocks")


def oracle_jacobian_matrix(F: SymForm) -> Matrix:
    rows = [F.contract(basis_vector(F.nvars, i)).coeff_vector() for i in range(F.nvars)]
    return Matrix.from_rows(rows, monomial_count(F.nvars, F.degree - 1))


def oracle_restrict_form(F: SymForm, basis) -> SymForm:
    """F pulled back to the span of `basis`, written in those coordinates."""
    dim, d = len(basis), F.degree
    coeffs = {}
    for gamma in enumerate_monomials(dim, d):
        val = F.evaluate(*[basis[t] for t in monomial_slots(gamma)])
        if val != 0:
            coeffs[gamma] = val * Q(factorial(d), alpha_factorial(gamma))
    return SymForm.from_coeffs(dim, d, coeffs)


def oracle_embed_form(G: SymForm, nvars: int, offsets) -> SymForm:
    """Re-index a block form into ambient variables via offsets."""
    coeffs = {}
    for gamma, c in G.terms:
        alpha = [0] * nvars
        for t, e in enumerate(gamma):
            alpha[offsets[t]] = e
        coeffs[tuple(alpha)] = c
    return SymForm.from_coeffs(nvars, G.degree, coeffs)


def oracle_twist(F: SymForm, g: Matrix, check: bool = True) -> SymForm:
    """The Fraction twist: one Fraction product and sum per term of
    (1/d)·∂_iP·(g·x)_i, merged by `from_coeffs`."""
    if g.nrows != F.nvars or g.ncols != F.nvars:
        raise ValueError("endomorphism dimension must match the form")
    if check:
        witness = oracle_contraction_symmetry_violation(F, g)
        if witness is not None:
            raise NotASymmetrizerError(*witness)
    n, d = F.nvars, F.degree
    out = {}
    for alpha, c in F.terms:
        for i, e in enumerate(alpha):
            if e == 0:
                continue
            base = alpha[:i] + (e - 1,) + alpha[i + 1 :]
            scale = Q(e, d * g.den) * c
            for j, gij in enumerate(g.ints[i]):
                if gij == 0:
                    continue
                beta = base[:j] + (base[j] + 1,) + base[j + 1 :]
                out[beta] = out.get(beta, Q(0)) + scale * gij
    return SymForm.from_coeffs(n, d, out)


def oracle_hessian_slices(F: SymForm):
    """The Fraction table: each value c·alpha!/d! as a Fraction, and den
    the lcm of their reduced denominators."""
    n, d = F.nvars, F.degree
    index = monomial_index(n, d - 2)
    values = [(a, c * Q(alpha_factorial(a), factorial(d))) for a, c in F.terms]
    den = lcm(*(v.denominator for _, v in values))
    slices = [[[0] * n for _ in range(n)] for _ in index]
    for alpha, v in values:
        support = [i for i, e in enumerate(alpha) if e]
        for k in support:
            for j in support:
                beta = list(alpha)
                beta[k] -= 1
                beta[j] -= 1
                if beta[j] >= 0:
                    slices[index[tuple(beta)]][k][j] = v.numerator * (den // v.denominator)
    return den, tuple(tuple(map(tuple, s)) for s in slices)


def oracle_fiber_invariance_check(F: SymForm, g: Matrix) -> FiberInvarianceReport:
    """Two full symmetrizer algebras per call, as before `algebra=`."""
    witness = oracle_contraction_symmetry_violation(F, g)
    if witness is not None:
        raise NotASymmetrizerError(*witness)
    n = F.nvars
    if g.rank() != n:
        raise ValueError("twisting element must be invertible")
    Fg = twist(F, g, check=False)
    algebra_match = same_span(symmetrizer_algebra(F).basis, symmetrizer_algebra(Fg).basis, n)
    ginv = g.inverse()
    transported = [ginv.apply(v) for v in jacobian_kernel(F)]
    kernel_match = row_space(transported, n) == row_space(jacobian_kernel(Fg), n)
    grassmann_match = (
        grassmann_point(F) == grassmann_point(Fg) if is_nondegenerate(F) else None
    )
    return FiberInvarianceReport(algebra_match, kernel_match, grassmann_match)


def oracle_nullspace_fiber_invariance_check(
    F: SymForm, g: Matrix, A
) -> FiberInvarianceReport:
    """g_{F^g} as an exact null space, compared with the given algebra's
    span; exact rank, a twist per call, and g^{-1} always."""
    witness = oracle_contraction_symmetry_violation(F, g)
    if witness is not None:
        raise NotASymmetrizerError(*witness)
    n = F.nvars
    if g.rank() != n:
        raise ValueError("twisting element must be invertible")
    Fg = twist(F, g, check=False)
    span_Fg = nullspace(constraint_matrix(Fg))
    algebra_match = row_space(flats(A.basis), n * n) == row_space(span_Fg, n * n)
    kernel_F = jacobian_kernel(F)
    ginv = g.inverse()
    transported = [ginv.apply(v) for v in kernel_F]
    kernel_match = row_space(transported, n) == row_space(jacobian_kernel(Fg), n)
    grassmann_match = None if kernel_F else grassmann_point(F) == grassmann_point(Fg)
    return FiberInvarianceReport(algebra_match, kernel_match, grassmann_match)


def oracle_sample_invertible_symmetrizers(F, A, seed, count) -> list[Matrix]:
    """Fraction combinations of the basis, each tested by an exact rank."""
    n = F.nvars
    rng = SplitMix64(seed)
    out = []
    for _ in range(64 * count):
        if len(out) >= count:
            break
        g = Matrix.zeros(n)
        for b in A.basis:
            g = g + rng.int_in(-5, 5) * b
        if g.rank() == n:
            out.append(g)
    if not out:
        out.append(Matrix.identity(n))
    return out


def oracle_algebra_closure_check(A) -> ClosureReport:
    """Fraction products, each tested by exact ranks of the whole basis."""
    basis = flats(A.basis)
    width = A.form.nvars ** 2
    rank = lambda vs: Matrix.from_rows(vs, width).rank()
    in_span = lambda v: rank(basis + [v]) == rank(basis)
    pairs = []
    for i, gi in enumerate(A.basis):
        for j in range(i, len(A.basis)):
            prod, rev = gi * A.basis[j], A.basis[j] * gi
            ok = in_span(prod.flatten()) and in_span(rev.flatten())
            commutes = (prod == rev) if A.nondegenerate else None
            pairs.append(PairCheck(i, j, ok, commutes))
    return ClosureReport(tuple(pairs))


# ---------------------------------------------------------------------------
# Inputs: n 2-4, d 3-4; dense, sparse, cone and structured forms, the
# structured ones optionally moved by a change of basis with large
# denominators, so that their symmetrizers carry large denominators too.

# P, the prime of the certificates, so that some certificates fail
DENOMINATORS = [1, 1, 2, 3, 7, 97, 65537, 1000003, 2**31 - 1, P, 2**61 - 1]
# pairwise coprime, each past 2^29: primes, a prime power and a product of
# two primes
LARGE_COPRIME_DENOMINATORS = [1000003, 2**31 - 1, 2**61 - 1, 11**30, 13 * (10**9 + 7)]
rationals = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-50, 50), st.sampled_from(DENOMINATORS)),
)
nonzero_rationals = st.builds(
    Q, st.integers(1, 50).map(lambda x: x if x % 2 else -x), st.sampled_from(DENOMINATORS)
)


@st.composite
def unit_triangular_changes(draw, n):
    """Invertible: rational entries below a nonzero rational diagonal."""
    return Matrix.from_rows(
        [
            [draw(rationals) if c < r else (draw(nonzero_rationals) if c == r else 0)
             for c in range(n)]
            for r in range(n)
        ]
    )


@st.composite
def forms(draw):
    n, d = draw(st.integers(2, 4)), draw(st.integers(3, 4))
    kind = draw(st.sampled_from(
        ["dense", "sparse", "cone", "fermat", "st_sum", "prescribed_nilpotent"]
    ))
    if kind in ("dense", "sparse", "cone"):
        monos = enumerate_monomials(n, d)
        if kind == "cone":
            monos = [a for a in monos if a[-1] == 0]
        coeffs = nonzero_rationals if kind == "dense" else rationals
        return SymForm.from_coeffs(n, d, [(a, draw(coeffs)) for a in monos])
    spec = {"kind": kind, "nvars": n, "degree": d, "seed": draw(st.integers(0, 50))}
    if kind == "st_sum":
        spec["blocks"] = (1, n - 1)
    if kind == "prescribed_nilpotent":
        spec["nilpotent"] = Matrix.from_rows(
            [[1 if (r, c) == (1, 0) else 0 for c in range(n)] for r in range(n)]
        )
    try:
        F = generate(GeneratorSpec(**spec))
    except GeneratorError:
        F = generate(GeneratorSpec(kind="fermat", nvars=n, degree=d))
    if draw(st.booleans()):
        F = compose_linear(F, draw(unit_triangular_changes(n)))
    return F


@st.composite
def endomorphisms(draw, F: SymForm, A):
    """A random matrix, an element of g_F, or an element of g_F with one
    entry moved."""
    n = F.nvars
    how = draw(st.sampled_from(["random", "member", "perturbed"]))
    if how == "random":
        return Matrix.from_rows([[draw(rationals) for _ in range(n)] for _ in range(n)])
    g = Matrix.zeros(n)
    for b in A.basis:
        g = g + draw(rationals) * b
    if how == "perturbed":
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(row) for row in g.rows]
        rows[r][c] += draw(nonzero_rationals)
        g = Matrix.from_rows(rows)
    return g


def outcome(fn, *args):
    """The return value, or the exception type and its witness attributes."""
    try:
        return ("ok", fn(*args))
    except NotASymmetrizerError as exc:
        return ("not a symmetrizer", exc.slot_pair, exc.basis_tuple)
    except ValueError as exc:
        return ("value error", str(exc))


# ---------------------------------------------------------------------------


class TestTable:
    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_slices_are_the_polarized_values(self, F):
        assert hessian_slices(F) == oracle_hessian_slices(F)
        den, slices = hessian_slices(F)
        betas = enumerate_monomials(F.nvars, F.degree - 2)
        assert len(slices) == len(betas) and den >= 1
        for beta, H in zip(betas, slices):
            for k in range(F.nvars):
                for j in range(F.nvars):
                    value = slot_value(F, (k, j) + monomial_slots(beta))
                    assert Q(H[k][j], den) == value
                    assert H[k][j] == H[j][k]

    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_jacobian_matches_contractions(self, F):
        assert jacobian_matrix(F) == oracle_jacobian_matrix(F)
        assert jacobian_matrix(F) is jacobian_matrix(F)

    @given(st.data())
    @settings(REPORT_AS_DRAWN, max_examples=80)
    def test_integer_table_with_large_coprime_denominators(self, data):
        # denominators that share no factor, and some that share factors
        # with d!, so that both den and the final gcd are exercised
        n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 7))
        monos = data.draw(st.lists(
            st.sampled_from(enumerate_monomials(n, d)), min_size=1, max_size=8, unique=True
        ))
        dens = st.sampled_from(LARGE_COPRIME_DENOMINATORS + [1, 2, 4, 6, 9, 5040])
        nums = st.integers(-(10**30), 10**30).filter(bool)
        F = SymForm.from_coeffs(n, d, [(a, Q(data.draw(nums), data.draw(dens))) for a in monos])
        assert hessian_slices(F) == oracle_hessian_slices(F)

    def test_table_builds_no_fraction(self, monkeypatch):
        built = [
            parse_poly("1/3*x0^3 - 7/10*x0*x1*x2 + 5/4*x2^3"),
            generate(GeneratorSpec(kind="random", nvars=5, degree=4, seed=1)),
            generate(GeneratorSpec(kind="fermat", nvars=4, degree=3)),
            SymForm.from_coeffs(2, 5, {(3, 2): Q(1, 2**61 - 1), (0, 5): Q(-3, 1000003)}),
            SymForm.zero(3, 3),
        ]
        calls = []
        new = Q.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
        Q(1, 2)
        assert len(calls) == 1  # the wrapper sees a construction
        calls.clear()
        tables = [F.hessian_table for F in built]  # cached: the first access builds
        assert calls == []
        monkeypatch.undo()
        assert [hessian_slices(F) for F in built] == [oracle_hessian_slices(F) for F in built]
        assert all(F.hessian_table is table for F, table in zip(built, tables))

    def test_zero_form(self):
        Z = SymForm.zero(3, 3)
        assert Z.hessian_table[0] == 1
        assert constraint_matrix(Z) == oracle_constraint_matrix(Z)
        assert symmetry_violation(Z, Matrix.from_rows([[0, 1, 0]] * 3)) is None


class TestAgainstOracles:
    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_constraint_matrix(self, F):
        assert constraint_matrix(F) == oracle_constraint_matrix(F)

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=80)
    def test_symmetry_violation(self, F, data):
        g = data.draw(endomorphisms(F, symmetrizer_algebra(F)))
        assert symmetry_violation(F, g) == oracle_contraction_symmetry_violation(F, g)

    def test_witness_on_worked_non_symmetrizer(self):
        F = parse_poly("x0^2*x1 + x1^2*x2 + x2^3")
        for rows in ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]):
            g = Matrix.from_rows(rows)
            got = symmetry_violation(F, g)
            assert got is not None and got == oracle_contraction_symmetry_violation(F, g)

    def test_shape_mismatch(self):
        F = parse_poly("x0^3 + x1^3")
        with pytest.raises(ValueError):
            symmetry_violation(F, Matrix.identity(3))

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_kernel_image_vanishing(self, F, data):
        A = symmetrizer_algebra(F)
        h = data.draw(endomorphisms(F, A))
        # nilpotent parts, and basis elements of degenerate algebras, have
        # kernels and images worth pairing
        for candidate in [h] + list(A.basis) + list(A.nilpotent_parts or ()):
            assert outcome(kernel_image_vanishing, F, candidate) == outcome(
                oracle_kernel_image_vanishing, F, candidate
            )

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=80)
    def test_pairings(self, F, data):
        n = F.nvars
        vectors = st.lists(st.tuples(*[rationals] * n), max_size=3)
        us, ws = data.draw(vectors), data.draw(vectors)
        assert pairings_vanish(F, us, ws) == oracle_pairings_vanish(F, us, ws)

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_cross_block_check_on_arbitrary_blocks(self, F, data):
        n = F.nvars
        sizes = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        blocks = tuple(
            STBlock(
                tuple(data.draw(st.tuples(*[rationals] * n)) for _ in range(size)),
                F,
                Poly.one(),
            )
            for size in sizes
        )
        dec = STDecomposition(blocks, Matrix.identity(n), len(blocks))
        assert _cross_block_check(F, dec) == oracle_cross_block_check(F, dec)

    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_cross_block_check_on_decompositions(self, F):
        if not is_nondegenerate(F):
            return
        dec = st_decompose(F)
        if dec is not None:
            assert _cross_block_check(F, dec) == oracle_cross_block_check(F, dec)
            assert _cross_block_check(F, dec).status == "pass"
            for blk in dec.blocks:
                assert blk.form == oracle_restrict_form(F, blk.basis)

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_fiber_invariance_with_and_without_algebra(self, F, data):
        n = F.nvars
        A = symmetrizer_algebra(F)
        # a scalar shift keeps members of g_F in g_F and makes them invertible
        g = data.draw(endomorphisms(F, A)) + data.draw(nonzero_rationals) * Matrix.identity(n)
        if symmetry_violation(F, g) is None:
            assume(g.rank() == n)
        expected = outcome(oracle_fiber_invariance_check, F, g)
        assert outcome(fiber_invariance_check, F, g) == expected
        assert outcome(fiber_invariance_check, F, g, A) == expected


class TestRectangularComposeLinear:
    """compose_linear(F, A) for an n × m matrix A against the restriction
    to A's columns and, for rows of an identity, the re-embedding."""

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_restriction_to_columns(self, F, data):
        n = F.nvars
        m = data.draw(st.integers(1, n + 1))
        cols = [data.draw(st.tuples(*[rationals] * n)) for _ in range(m)]
        zero = data.draw(st.sets(st.integers(0, m - 1), max_size=m))
        cols = [(Q(0),) * n if j in zero else c for j, c in enumerate(cols)]
        A = Matrix.from_rows(cols, n).transpose()
        G = compose_linear(F, A)
        assert G.nvars == m
        assert G == oracle_restrict_form(F, cols)
        for j in zero:
            assert all(alpha[j] == 0 for alpha in G.coeff_map)

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_embedding_by_identity_rows(self, F, data):
        n = F.nvars
        N = data.draw(st.integers(n, n + 3))
        offsets = data.draw(st.permutations(range(N)))[:n]
        A = Matrix.from_rows([Matrix.identity(N).rows[o] for o in offsets], N)
        assert compose_linear(F, A) == oracle_embed_form(F, N, offsets)

    def test_row_count_must_match(self):
        F = parse_poly("x0^3 + x1^3")
        with pytest.raises(ValueError):
            compose_linear(F, Matrix.identity(3))


class TestIntegerTwist:
    """twist accumulates integers over one denominator and builds each
    coefficient once; the Fraction twist it replaced is the oracle."""

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_equals_the_fraction_twist(self, F, data):
        A = symmetrizer_algebra(F)
        g = data.draw(endomorphisms(F, A)) * Q(1, data.draw(st.sampled_from(DENOMINATORS[2:])))
        assume(g.den > 1)
        expected = outcome(oracle_twist, F, g)
        assert outcome(twist, F, g) == expected
        # unchecked, a non-symmetrizer still gives the symmetrized values
        assert twist(F, g, check=False) == oracle_twist(F, g, check=False)

    def test_zero_matrix_and_zero_form(self):
        F = parse_poly("x0^2*x1 - 1/2*x1^3")
        assert twist(F, Matrix.zeros(2)) == oracle_twist(F, Matrix.zeros(2)) == SymForm.zero(2, 3)
        g = Matrix.from_rows([[Q(1, 3), 0], [0, Q(1, 3)]])
        assert twist(SymForm.zero(2, 3), g) == SymForm.zero(2, 3)
        third = SymForm.from_coeffs(2, 3, [(a, c / 3) for a, c in F.terms])
        assert twist(F, g) == oracle_twist(F, g) == third


class TestIdentitySuiteReuse:
    """Integer sampling, integer closure and the mod-P fiber proofs give
    exactly what the Fraction and null-space versions gave."""

    @given(forms(), st.integers(0, 50), st.integers(1, 8))
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_samples_and_their_order(self, F, seed, count):
        A = symmetrizer_algebra(F)
        got = sample_invertible_symmetrizers(F, A, seed=seed, count=count)
        assert got == oracle_sample_invertible_symmetrizers(F, A, seed, count)

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_closure_report(self, F, data):
        A = symmetrizer_algebra(F)
        assert algebra_closure_check(A) == oracle_algebra_closure_check(A)
        # families that are not closed: products leave the span, and need
        # not commute; with scaled matrix units such as {E11, E12, E21},
        # E12·E21 = E11 stays in the span while E21·E12 = E22 leaves it
        n = F.nvars
        k = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            entries = lambda r, c: data.draw(rationals)
        else:
            units = [divmod(data.draw(st.integers(0, n * n - 1)), n) for _ in range(k)]
            entries = lambda r, c: data.draw(nonzero_rationals) if (r, c) == units[t] else 0
        basis = []
        for t in range(k):
            basis.append(Matrix.from_rows([[entries(r, c) for c in range(n)] for r in range(n)]))
        B = dataclasses.replace(A, basis=tuple(basis))
        assert algebra_closure_check(B) == oracle_algebra_closure_check(B)

    def test_closure_checks_both_products(self):
        A = symmetrizer_algebra(parse_poly("x0^3 + x1^3"))
        units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        B = dataclasses.replace(A, basis=tuple(Matrix.from_rows(u) for u in units))
        report = algebra_closure_check(B)
        assert report == oracle_algebra_closure_check(B)
        assert [p.product_in_span for p in report.pairs if (p.i, p.j) == (1, 2)] == [False]

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=40)
    def test_fiber_report(self, F, data):
        n = F.nvars
        A = symmetrizer_algebra(F)
        g = data.draw(endomorphisms(F, A)) + data.draw(nonzero_rationals) * Matrix.identity(n)
        if symmetry_violation(F, g) is None:
            assume(g.rank() == n)
        expected = outcome(oracle_nullspace_fiber_invariance_check, F, g, A)
        assert outcome(fiber_invariance_check, F, g, A) == expected
        if expected[0] == "ok":
            Fg = twist(F, g, check=False)
            assert outcome(fiber_invariance_check, F, g, A, Fg) == expected

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=30)
    def test_fiber_report_against_a_wrong_algebra(self, F, data):
        """Both proofs fail or fall short, so the exact comparison decides."""
        n = F.nvars
        A = symmetrizer_algebra(F)
        g = data.draw(endomorphisms(F, A)) + data.draw(nonzero_rationals) * Matrix.identity(n)
        assume(symmetry_violation(F, g) is None and g.rank() == n)
        dropped = dataclasses.replace(A, basis=A.basis[1:])
        extra = dataclasses.replace(
            A, basis=A.basis + (data.draw(endomorphisms(F, A)),)
        )
        for B in (dropped, extra):
            assert fiber_invariance_check(F, g, B) == oracle_nullspace_fiber_invariance_check(
                F, g, B
            )

    @given(forms(), st.data())
    @settings(REPORT_AS_DRAWN, max_examples=30)
    def test_fiber_fallback_gives_the_same_report(self, F, data):
        """With no certificate at all the exact null space decides, unless
        g_F is all of End(V), where the bound n² − dim g_F = 0 holds."""
        n = F.nvars
        A = symmetrizer_algebra(F)
        g = data.draw(endomorphisms(F, A)) + data.draw(nonzero_rationals) * Matrix.identity(n)
        assume(symmetry_violation(F, g) is None and g.rank() == n)
        expected = fiber_invariance_check(F, g, A)
        solves = []
        with pytest.MonkeyPatch.context() as mp:
            for module in (algebra, linalg):
                mp.setattr(module, "rank_mod_p", lambda rows, ncols: 0)
            mp.setattr(
                algebra, "integer_nullspace", lambda M: solves.append(M) or integer_nullspace(M)
            )
            assert fiber_invariance_check(F, g, A) == expected
        assert len(solves) == (len(A.basis) < n * n)
        assert expected == oracle_nullspace_fiber_invariance_check(F, g, A)

    @given(forms())
    @settings(REPORT_AS_DRAWN, max_examples=60)
    def test_jacobian_kernel_and_point(self, F):
        J = oracle_jacobian_matrix(F)
        assert jacobian_kernel(F) == nullspace(J.transpose())
        if jacobian_kernel(F):
            return
        assert grassmann_point(F).basis == rref(J)[0]
