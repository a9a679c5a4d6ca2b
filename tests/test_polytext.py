"""Polynomial text round trip: grammar, errors, canonical printing, and
the one-pass tokenizer against the peek-based oracle."""

import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficient, oracle_parse_poly
from symmetrizer.forms import SizeLimitError, SymForm, enumerate_monomials
from symmetrizer.polytext import ParseError, format_poly, parse_poly


class TestParsing:
    def test_single_monomial(self):
        F = parse_poly("x0^2*x1")
        assert (F.nvars, F.degree) == (2, 3)
        assert F.coeff_map == {(2, 1): Q(1)}

    def test_integer_and_fractional_coefficients(self):
        F = parse_poly("3*x0^2*x1 + 1/2*x1^3")
        assert coefficient(F, (2, 1)) == 3
        assert coefficient(F, (0, 3)) == Q(1, 2)

    def test_leading_minus_needs_no_coefficient(self):
        F = parse_poly("-x0^3 + x1^3")
        assert coefficient(F, (3, 0)) == -1

    def test_repeated_variables_accumulate(self):
        assert parse_poly("x0*x1*x0") == parse_poly("x0^2*x1")

    def test_terms_merge(self):
        F = parse_poly("x0^3 + x0^3 - x1^3 + x1^3")
        assert coefficient(F, (3, 0)) == 2
        assert coefficient(F, (0, 3)) == 0

    def test_whitespace_is_noise(self):
        assert parse_poly(" x0 ^ 2 * x1\t+ x1 ^ 3 ") == parse_poly("x0^2*x1 + x1^3")

    def test_nvars_override_widens(self):
        F = parse_poly("x0^3", nvars=3)
        assert F.nvars == 3
        assert coefficient(F, (3, 0, 0)) == 1

    def test_variable_count_inferred_from_largest_index(self):
        assert parse_poly("x2^3").nvars == 3


BAD_INPUTS = [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("x0^3 + $", "unexpected character", 7),
    ("3x0^3", "'\\*' between coefficient", 1),
    ("x0^3 x1^3", "'\\+' or '-' between terms", 5),
    ("x0^", "expected an exponent", 3),
    ("1/0*x0^3", "zero denominator", 2),
    ("x0^3 + x1^2", "term of degree 2 in a degree-3", 7),
    ("x0*x1", "degree 2 is below 3", 0),
    ("5", "'\\*' between coefficient", 1),
    ("x0^3 + + x1^3", "a variable like x0", 7),
    # a grammar error left of a bad character is reported first
    ("x0^3 x1^3 $", "'\\+' or '-' between terms", 5),
    # digits are ASCII only
    ("x0^3 + \u0661*x1^3", "unexpected character '\u0661'", 7),
    ("x\uff10^3", "unexpected character 'x'", 0),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,message,position", BAD_INPUTS)
    def test_rejected_with_position(self, text, message, position):
        with pytest.raises(ParseError, match=message) as exc:
            parse_poly(text)
        assert exc.value.position == position

    def test_override_below_used_index(self):
        with pytest.raises(ParseError, match="x2 exceeds the declared count 2"):
            parse_poly("x0^3 + x2^3", nvars=2)


def outcome(parse, text):
    """The form parsed, or the error's type, message and position."""
    try:
        return parse(text)
    except (ParseError, SizeLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# characters, whole terms, a non-ASCII digit and digit runs past the
# interpreter's limit of 4300 digits per int
TOKEN_SOUP = st.lists(
    st.one_of(
        st.text(alphabet="x0123 +-*^/$\t", max_size=6),
        st.sampled_from(["x0", "x1^3", "x2", "2/3*", "*", " + ", " - ", "^3", "\u0661"]),
        st.integers(4301, 4400).map(lambda k: "1" * k),
    ),
    max_size=10,
).map("".join)


MONOMIALS = ["x0^3", "x0^2*x1", "x1^3", "x0*x1*x0", "x0^3*x1^0", "x2^0*x1^3"]

# coefficients "p*", "p/q*" (unreduced, or zero) or none, on monomials
# written with repeated variables or x_i^0 factors
TERM = st.builds(
    lambda sign, coeff, mono: f" {sign} {coeff}{mono}",
    st.sampled_from("+-"),
    st.one_of(
        st.just(""),
        st.integers(0, 6).map("{}*".format),
        st.tuples(st.integers(0, 6), st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}*"),
    ),
    st.sampled_from(MONOMIALS),
)

# a term p/q*m followed by k·p/(k·q)*m subtracted: they cancel
CANCELLING_PAIR = st.builds(
    lambda p, q, k, mono: f" + {p}/{q}*{mono} - {k * p}/{k * q}*{mono}",
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.sampled_from(MONOMIALS),
)

# well-formed sums whose repeated monomials merge, cancel or carry
# different denominators
TERM_SUMS = st.lists(st.one_of(TERM, CANCELLING_PAIR), min_size=1, max_size=8).map(
    lambda terms: "".join(terms).lstrip(" +")
)


class TestOnePass:
    def test_time_is_linear_in_the_text(self):
        cases = [
            # about 320 KB of one repeated monomial
            (" + ".join(["x0^2*x1"] * 32000), Q(32000)),
            # about 473 KB of three denominators: a merge that lets its
            # denominator grow with every term is quadratic here
            (" + ".join(["1/3*x0^2*x1 + 2/7*x0^2*x1 - 5/11*x0^2*x1"] * 11000), Q(38000, 21)),
        ]
        for text, coeff in cases:
            start = time.perf_counter()
            F = parse_poly(text)
            elapsed = time.perf_counter() - start
            assert F.coeff_map == {(2, 1): coeff}
            assert elapsed < 3.0, f"{len(text)} characters parsed in {elapsed:.2f} s"

    @given(st.one_of(TOKEN_SOUP, TERM_SUMS))
    @settings(deadline=None, max_examples=400)
    def test_agrees_with_the_peek_based_oracle(self, text):
        assert outcome(parse_poly, text) == outcome(oracle_parse_poly, text)


class TestFormatting:
    def test_descending_lex_term_order(self):
        assert format_poly(parse_poly("x1^3 + x0^3")) == "x0^3 + x1^3"

    def test_negative_head_keeps_explicit_unit(self):
        assert format_poly(parse_poly("-x0^3 + x1^3")) == "-1*x0^3 + x1^3"

    def test_unit_coefficients_are_suppressed(self):
        assert format_poly(parse_poly("1*x0^2*x1")) == "x0^2*x1"

    def test_fractions_survive(self):
        s = "1/2*x0^3 - 2/3*x1^3"
        assert format_poly(parse_poly(s)) == s

    def test_zero_form(self):
        assert format_poly(SymForm.zero(2, 3)) == "0"

    def test_unit_exponents_are_bare(self):
        assert format_poly(parse_poly("x0*x1*x2")) == "x0*x1*x2"


@st.composite
def small_forms(draw):
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(3, 4))
    monos = enumerate_monomials(nvars, degree)
    coeffs = {}
    for alpha in monos:
        c = draw(
            st.fractions(
                min_value=-4, max_value=4, max_denominator=3
            )
        )
        if c:
            coeffs[alpha] = c
    return SymForm.from_coeffs(nvars, degree, coeffs)


class TestRoundTrip:
    @given(small_forms())
    @settings(deadline=None, max_examples=80)
    def test_parse_inverts_format(self, F):
        if F.is_zero:
            return
        # the printer drops silent trailing variables, so pin nvars
        assert parse_poly(format_poly(F), nvars=F.nvars) == F

    @given(small_forms())
    @settings(deadline=None, max_examples=40)
    def test_format_is_a_fixed_point(self, F):
        if F.is_zero:
            return
        text = format_poly(F)
        assert format_poly(parse_poly(text)) == text
