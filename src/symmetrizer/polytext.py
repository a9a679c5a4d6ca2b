"""Textual polynomial format.

Grammar (whitespace ignored everywhere; integers, indices and exponents
are ASCII digits):

    poly     := term (('+' | '-') term)*
    term     := [rational '*'] factor ('*' factor)*
    factor   := 'x' index ['^' exponent]
    rational := integer ['/' positive-integer]

The text is scanned once into a token list, in time linear in its
length. Errors come in left-to-right order: a character no token
matches, or a number past the interpreter's digit limit, is reported
only when the grammar reaches it.

Terms are assembled on integers: each coefficient stays a signed
numerator over its (unreduced) denominator, repeated monomials merge
over the lcm of their denominators, and one Fraction is built per
nonzero monomial of the result. The merged terms go to `SymForm` in
the order they were first seen; its constructor sorts them into the
canonical order.

The canonical printer emits terms in descending lexicographic monomial
order, magnitudes after the first term (signs become separators), '*'
between all factors, and no unit coefficients except the bare leading
"-1*" that the grammar requires for a negative head term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .forms import SymForm, check_size

# Every match succeeds: `end` takes trailing whitespace and `bad` the
# first character no token starts with.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+)|(?P<var>x(?P<index>[0-9]+))|(?P<sign>[+-])"
    r"|(?P<star>\*)|(?P<caret>\^)|(?P<slash>/)|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError(f"number of {len(digits)} digits is too long", position) from None


class _Tokens:
    """The (kind, value, position) tokens of a text, scanned once.

    A character that no token matches, or a number past the digit limit,
    ends the list with its ParseError. `peek` raises it only when the
    parser reaches it, so a grammar error to its left is reported first.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str | int, int]] = []
        self.error: ParseError | None = None
        self.i = 0
        try:
            self._scan()
        except ParseError as exc:
            self.error = exc

    def _scan(self) -> None:
        text, pos = self.text, 0
        while True:
            m = _TOKEN.match(text, pos)
            kind = m.lastgroup
            if kind == "end":
                return
            start = m.start(kind)
            if kind == "bad":
                raise ParseError(f"unexpected character {text[start]!r}", start)
            if kind == "number":
                value = _integer(m.group(kind), start)
            elif kind == "var":
                value = _integer(m.group("index"), start)
            else:
                value = m.group(kind)
            self.tokens.append((kind, value, start))
            pos = m.end()

    def peek(self) -> tuple[str, str | int, int] | None:
        """The next token without consuming it; None at the end."""
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        if self.error is not None:
            raise self.error
        return None

    def next(self) -> tuple[str, str | int, int] | None:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str | int, int]:
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok


def _parse_term(toks: _Tokens, sign: int) -> tuple[dict[int, int], int, int, int]:
    """One term: returns (exponent-by-index, signed numerator, denominator,
    position); the coefficient is numerator / denominator, unreduced."""
    tok = toks.peek()
    pos = tok[2] if tok else len(toks.text)
    num, den = sign, 1
    if tok is not None and tok[0] == "number":
        toks.next()
        num *= tok[1]
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "slash":
            toks.next()
            dtok = toks.expect("number", "a positive denominator")
            den = dtok[1]
            if den == 0:
                raise ParseError("zero denominator", dtok[2])
        toks.expect("star", "'*' between coefficient and variables")
    exponents: dict[int, int] = {}
    while True:
        vtok = toks.expect("var", "a variable like x0")
        idx = vtok[1]
        exp = 1
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "caret":
            toks.next()
            exp = toks.expect("number", "an exponent")[1]
        exponents[idx] = exponents.get(idx, 0) + exp
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "star":
            toks.next()
            continue
        break
    return exponents, num, den, pos


def parse_poly(text: str, nvars: int | None = None) -> SymForm:
    """Parse polynomial text into a form.

    The input must be homogeneous of degree >= 3. The variable count is
    1 + the largest index used, unless overridden upward. A shape whose
    cost estimate exceeds `forms.MAX_CELLS` raises SizeLimitError before
    any coefficient vector is built.
    """
    toks = _Tokens(text)
    if toks.peek() is None:
        raise ParseError("empty input", 0)
    terms: list[tuple[dict[int, int], int, int, int]] = []
    first = True
    while toks.peek() is not None:
        sign = 1
        tok = toks.peek()
        if tok[0] == "sign":
            toks.next()
            sign = 1 if tok[1] == "+" else -1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", tok[2])
        terms.append(_parse_term(toks, sign))
        first = False

    degree = sum(terms[0][0].values())
    max_index = -1
    for exps, _, _, pos in terms:
        if sum(exps.values()) != degree:
            raise ParseError(
                f"term of degree {sum(exps.values())} in a degree-{degree} polynomial",
                pos,
            )
        max_index = max(max_index, max(exps))
    if degree < 3:
        raise ParseError(f"degree {degree} is below 3", terms[0][3])

    inferred = max_index + 1
    if nvars is None:
        nvars = inferred
    elif nvars < inferred:
        for exps, _, _, pos in terms:
            if max(exps) >= nvars:
                raise ParseError(
                    f"variable x{max(exps)} exceeds the declared count {nvars}", pos
                )
    check_size(nvars, degree)
    # each monomial's coefficient as [numerator, denominator], the
    # denominator the lcm of its terms' own
    merged: dict[tuple[int, ...], list[int]] = {}
    for exps, num, den, _ in terms:
        alpha = [0] * nvars
        for i, e in exps.items():
            alpha[i] = e
        alpha = tuple(alpha)
        acc = merged.get(alpha)
        if acc is None:
            merged[alpha] = [num, den]
        else:
            common = lcm(acc[1], den)
            acc[0] = acc[0] * (common // acc[1]) + num * (common // den)
            acc[1] = common
    return SymForm(nvars, degree, tuple(
        (alpha, Fraction(num, den)) for alpha, (num, den) in merged.items() if num
    ))


def format_poly(F: SymForm) -> str:
    """Canonical text: descending-lex terms, explicit '*', no unit
    coefficients (except a leading -1* where the grammar needs it)."""
    if F.is_zero:
        return "0"
    parts = []
    for alpha, c in F.terms:
        body = "*".join(
            f"x{i}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(alpha)
            if e
        )
        mag = abs(c)
        if body:
            frag = body if mag == 1 else f"{mag}*{body}"
        else:
            frag = str(mag)
        if not parts:
            if c < 0:
                frag = f"-{mag}*{body}" if body else f"-{mag}"
            parts.append(frag)
        else:
            parts.append(("+ " if c > 0 else "- ") + frag)
    return " ".join(parts)
