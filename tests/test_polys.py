"""Univariate polynomial layer: arithmetic, gcd, factorization."""

import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetrizer import polys
from symmetrizer.polys import (
    P as PRIME,
    Poly,
    factor_rational,
    is_squarefree,
    poly_gcd,
    squarefree_mod_p,
    squarefree_part,
)


def P(*ascending) -> Poly:
    return Poly.from_coeffs([Q(c) for c in ascending])


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(lambda c: P(*c))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestArithmetic:
    def test_construction_strips_trailing_zeros(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0).is_zero and P().is_zero
        assert P(0).degree == -1

    def test_str(self):
        assert str(P(-2, 0, 1)) == "t^2 - 2"
        assert str(P(1, -1)) == "-t + 1"
        assert str(P(0)) == "0"

    @given(small_polys, small_polys, small_polys)
    @settings(deadline=None)
    def test_ring_identities(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a

    @given(small_polys, nonzero_polys)
    @settings(deadline=None)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree

    @given(small_polys, small_polys)
    @settings(deadline=None)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    def test_horner_evaluation(self):
        p = P(1, -3, 0, 2)  # 2t^3 - 3t + 1
        assert p(Q(2)) == 16 - 6 + 1
        assert p(Q(1, 2)) == Q(2, 8) - Q(3, 2) + 1

    def test_power(self):
        t = Poly.x()
        assert t**3 == P(0, 0, 0, 1)
        assert (t - Poly.constant(Q(1))) ** 2 == P(1, -2, 1)


class TestGcd:
    def test_known_gcd(self):
        a = P(-1, 0, 1)  # (t-1)(t+1)
        b = P(1, -2, 1)  # (t-1)^2
        assert poly_gcd(a, b) == P(-1, 1)

    def test_gcd_with_zero(self):
        a = P(0, 2)
        assert poly_gcd(a, Poly.zero()) == a.monic()
        assert poly_gcd(Poly.zero(), Poly.zero()).is_zero

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(deadline=None)
    def test_common_factor_detected(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        assert (g % c).is_zero

    def test_squarefree_part(self):
        p = P(-1, 1) ** 2 * P(2, 1)  # (t-1)^2 (t+2)
        assert squarefree_part(p) == P(-1, 1) * P(2, 1)
        assert is_squarefree(squarefree_part(p))
        assert not is_squarefree(p)


class TestSquarefreeCertificate:
    """is_squarefree proves True mod PRIME when PRIME ∤ deg·lc of the
    primitive integer multiple, and otherwise asks the exact gcd."""

    @pytest.fixture
    def exact_gcds(self, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(polys, "poly_gcd", spy)
        return calls

    def test_certified_without_the_exact_gcd(self, exact_gcds):
        assert is_squarefree(P(-2, 0, 1))
        assert is_squarefree(P(Q(1, 3), Q(-5, 7), 0, Q(2, 9)))
        assert exact_gcds == []

    def test_square_mod_p_takes_the_exact_fallback(self, exact_gcds):
        # t(t - P) is squarefree over Q but reduces to t^2 mod P
        assert is_squarefree(P(0, -PRIME, 1))
        assert len(exact_gcds) == 1

    def test_p_dividing_the_leading_coefficient_takes_the_exact_fallback(self, exact_gcds):
        # the primitive integer multiple of t^2 - 1/P is P t^2 - 1
        assert is_squarefree(P(Q(-1, PRIME), 0, 1))
        assert len(exact_gcds) == 1

    def test_square_hidden_by_the_leading_coefficient(self):
        # (t + 1/P)^2 has integer multiple (P t + 1)^2, which is 1 mod P:
        # only the guard on lc keeps the certificate from accepting it
        assert not is_squarefree(P(Q(1, PRIME), 1) ** 2)
        assert not is_squarefree(P(Q(1, PRIME), 1) ** 2 * P(0, 1))

    def test_repeated_root_is_refused(self, exact_gcds):
        assert not is_squarefree(P(-1, 1) ** 2 * P(2, 1))  # (t - 1)^2 (t + 2)
        assert len(exact_gcds) == 1

    def test_the_certificate_alone_decides_only_true(self, exact_gcds):
        assert squarefree_mod_p(P(-2, 0, 1))
        assert not squarefree_mod_p(P(0, -PRIME, 1))  # squarefree, but t^2 mod P
        assert not squarefree_mod_p(P(Q(-1, PRIME), 0, 1))  # P divides lc
        assert not squarefree_mod_p(P(-1, 1) ** 2)
        assert exact_gcds == []

    def test_constant_and_linear(self):
        assert is_squarefree(P(Q(3, PRIME)))
        assert is_squarefree(P(0, PRIME))

    @given(
        st.lists(
            st.builds(Q, st.integers(-9, 9), st.sampled_from([1, 2, PRIME])),
            min_size=1, max_size=4,
        ),
        st.lists(st.builds(Q, st.integers(-3, 3), st.sampled_from([1, PRIME])),
                 min_size=0, max_size=3),
    )
    @settings(deadline=None, max_examples=150)
    def test_matches_the_exact_gcd(self, coeffs, square):
        p = P(*coeffs) * P(*square) ** 2
        if p.is_zero:
            return
        assert is_squarefree(p) == (p.degree <= 0 or poly_gcd(p, p.derivative()).degree == 0)


# Hand-derived factorizations, frozen before the implementation ran.
FACTOR_CASES = [
    (P(-2, 0, 1), [(P(-2, 0, 1), 1)]),
    (P(6, 0, -5, 0, 1), [(P(-3, 0, 1), 1), (P(-2, 0, 1), 1)]),
    (P(-1, 0, 0, 1), [(P(-1, 1), 1), (P(1, 1, 1), 1)]),
    (P(1, 1, 1, 1, 1), [(P(1, 1, 1, 1, 1), 1)]),
    (P(1, 5, 6), [(P(Q(1, 3), 1), 1), (P(Q(1, 2), 1), 1)]),
    (
        P(-1, 0, 0, 0, 0, 0, 1),
        [(P(-1, 1), 1), (P(1, 1), 1), (P(1, -1, 1), 1), (P(1, 1, 1), 1)],
    ),
    (P(0, 0, 0, 1, -2, 1), [(P(-1, 1), 2), (P(0, 1), 3)]),
    (P(-1, -1, 0, 0, 1), [(P(-1, -1, 0, 0, 1), 1)]),
    (P(0, 0, -1, 1), [(P(-1, 1), 1), (P(0, 1), 2)]),
]


class TestFactorization:
    @pytest.mark.parametrize("p,expected", FACTOR_CASES)
    def test_known_factorizations(self, p, expected):
        assert factor_rational(p) == expected

    def test_factors_are_monic_and_multiply_back(self):
        p = P(4, 0, -5, 0, 1) * Q(3)  # 3(t^2-1)(t^2-4)
        factors = factor_rational(p)
        prod = Poly.constant(p.leading)
        for q, mult in factors:
            assert q.leading == 1
            prod = prod * q**mult
        assert prod == p

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_product_reconstruction(self, coeffs):
        p = P(*coeffs)
        if p.is_zero or p.degree == 0:
            return
        prod = Poly.constant(p.leading)
        for q, mult in factor_rational(p):
            assert is_squarefree(q)
            prod = prod * q**mult
        assert prod == p

    def test_degree_cap(self):
        """There is no degree cap: degree 9 and beyond factor exactly."""
        p = Poly.x() ** 9 - Poly.x() - Poly.one()  # irreducible (Selmer)
        assert factor_rational(p) == [(p, 1)]
        roots = (-5, -3, -2, -1, 0, 1, 2, 3, 4, 7, 11, 13)
        linear = Poly.one()
        for r in roots:
            linear = linear * P(-r, 1)
        assert factor_rational(linear) == [(P(-r, 1), 1) for r in sorted(roots, reverse=True)]
        quadratics = P(-2, 0, 1) * P(-3, 0, 1) * P(-5, 0, 1) * P(-7, 0, 1)
        assert factor_rational(quadratics) == [(P(-c, 0, 1), 1) for c in (7, 5, 3, 2)]

    def test_cap_override(self):
        p = Poly.x() ** 9 - Poly.x() ** 8
        assert factor_rational(p) == [(P(-1, 1), 1), (P(0, 1), 8)]

    def test_constants_have_no_factors(self):
        assert factor_rational(Poly.constant(Q(7))) == []

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_rational(Poly.zero())

    def test_large_coefficients_stay_fast(self):
        # minimal polynomial of a 4x4 semisimple candidate; coefficient
        # size must not drive the running time
        p = P(-629268480000000, 618537600000, 265617600, 30393, 1)
        start = time.perf_counter()
        factors = factor_rational(p)
        assert time.perf_counter() - start < 1.0
        assert factors == [
            (P(-4800000, 5625, 1), 1),
            (P(131097600, 24768, 1), 1),
        ]
