"""Shared fixtures: the golden corpus and independent oracles.

The golden corpus is a fixed set of labelled forms spanning every
generator kind plus the two worked examples. The brute-force oracle
below rebuilds the symmetrizer conditions from raw coefficients with no
multiset dedup and every slot transposition imposed, so it shares no
assembly code with the production path. `coefficient`, `slot_value` and
`polynomial_value` read a form straight off its terms; no command needs
them, so they live here rather than on `SymForm`. `oracle_parse_poly` is
the peek-based parser that rescans the rest of the text on every token:
the reference for the one-pass tokenizer in `polytext`.
`oracle_symmetry_violation` scans every (i < j, beta) of the Hessian
table, the reference for the row-combination test in `forms`, and
`oracle_recover` solves [J_F^T | J_Ft^T] and checks the result by a
second twist, the reference for transport by F's pivot block.
`oracle_hessian_table`, `oracle_table_kernel` and `oracle_form_space`
are the table, the kernel of ∂F and the prescribed-nilpotent form space
as the engine built them before it planned table cells once per
monomial, ranked the table's own rows and skipped zero rows.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import mul

import pytest

from symmetrizer.algebra import FiberMismatchError
from symmetrizer.corpus import GeneratorSpec, generate
from symmetrizer.forms import (
    SymForm,
    alpha_factorial,
    check_size,
    enumerate_monomials,
    grassmann_point,
    jacobian_matrix,
    monomial_index,
    monomial_slots,
    twist,
)
from symmetrizer.linalg import (
    InvariantError,
    Matrix,
    Vec,
    is_invertible,
    nullspace,
    rank_mod_p,
    rref,
    solve_matrix,
)
from symmetrizer.polytext import ParseError, parse_poly

# square-zero map e0 -> e1 on three variables
H_SQUARE_ZERO_3 = Matrix.from_rows(
    [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
)

# regular nilpotent e0 -> e1 -> e2 -> 0
H_REGULAR_3 = Matrix.from_rows(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
)


def build_golden_corpus() -> dict[str, SymForm]:
    corpus: dict[str, SymForm] = {
        "cusp_2_3": parse_poly("x0^2*x1"),
        "whitney_3_3": parse_poly("x0^2*x2 + x0*x1^2"),
        "norm_2_3": parse_poly("3*x0^2*x1 + 2*x1^3"),
    }
    for n in (2, 3, 4):
        for d in (3, 4):
            corpus[f"fermat_{n}_{d}"] = generate(
                GeneratorSpec(kind="fermat", nvars=n, degree=d)
            )
    corpus["st_sum_4_3"] = generate(
        GeneratorSpec(kind="st_sum", nvars=4, degree=3, seed=7, blocks=(2, 2))
    )
    corpus["st_sum_5_4"] = generate(
        GeneratorSpec(kind="st_sum", nvars=5, degree=4, seed=3, blocks=(2, 3))
    )
    corpus["prescribed_3_3"] = generate(
        GeneratorSpec(
            kind="prescribed_nilpotent",
            nvars=3,
            degree=3,
            seed=5,
            nilpotent=H_SQUARE_ZERO_3,
        )
    )
    corpus["random_3_3"] = generate(GeneratorSpec(kind="random", nvars=3, degree=3, seed=0))
    corpus["random_2_4"] = generate(GeneratorSpec(kind="random", nvars=2, degree=4, seed=2))
    corpus["random_3_4"] = generate(GeneratorSpec(kind="random", nvars=3, degree=4, seed=1))
    corpus["cone_3_3"] = generate(GeneratorSpec(kind="cone", nvars=3, degree=3))
    return corpus


DEGENERATE_LABELS = frozenset({"cone_3_3"})

_GOLDEN = build_golden_corpus()


@pytest.fixture(scope="session")
def golden_corpus() -> dict[str, SymForm]:
    return _GOLDEN


@pytest.fixture(scope="session")
def golden_nondegenerate() -> dict[str, SymForm]:
    return {k: F for k, F in _GOLDEN.items() if k not in DEGENERATE_LABELS}


def coefficient(F: SymForm, alpha) -> Fraction:
    """The coefficient of x^alpha in F's polynomial, 0 when absent."""
    return F.coeff_map.get(tuple(alpha), Fraction(0))


def slot_value(F: SymForm, indices: tuple[int, ...]) -> Fraction:
    """F on basis vectors, straight from the coefficient: c_alpha * alpha!/d!."""
    alpha = [0] * F.nvars
    for i in indices:
        alpha[i] += 1
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return coefficient(F, alpha) * Fraction(num, math.factorial(F.degree))


def polynomial_value(F: SymForm, v) -> Fraction:
    """Direct evaluation of F's polynomial at v."""
    acc = Fraction(0)
    for alpha, c in F.terms:
        term = c
        for x, e in zip(v, alpha, strict=True):
            term *= Fraction(x) ** e
        acc += term
    return acc


def brute_force_symmetrizer_basis(F: SymForm) -> list[Matrix]:
    """Nullspace of the fully redundant constraint system.

    One row per transposition of slot 1 with each later slot, per raw
    index tuple in {0..n-1}^d. Column (m, i) of the unknown g sits at
    flat position m*n + i, matching Matrix.from_flat.
    """
    n, d = F.nvars, F.degree
    rows = []
    for k in range(1, d):
        for tup in itertools.product(range(n), repeat=d):
            row = [Fraction(0)] * (n * n)
            rest_first = tup[1:]
            rest_swapped = tup[1:k] + (tup[0],) + tup[k + 1 :]
            for m in range(n):
                row[m * n + tup[0]] += slot_value(F, (m,) + rest_first)
                row[m * n + tup[k]] -= slot_value(F, (m,) + rest_swapped)
            rows.append(row)
    M = Matrix.from_rows(rows, n * n)
    return [Matrix.from_flat(n, v) for v in nullspace(M)]


def row_space(vectors, width: int) -> tuple[Vec, ...]:
    """The nonzero rref rows of the vectors: equal exactly when the spans are."""
    red, _, rank = rref(Matrix.from_rows(vectors, width))
    return red.rows[:rank]


def same_span(a: list[Matrix], b: list[Matrix], n: int) -> bool:
    return row_space(flats(a), n * n) == row_space(flats(b), n * n)


def flats(mats) -> list[Vec]:
    return [g.flatten() for g in mats]


def hessian_slices(F: SymForm):
    """The one Hessian table seen as slices: (den, slices) with
    slices[b][k] = K[k][b·n:(b+1)·n] = H_b[k], b the index of beta."""
    den, K = F.hessian_table
    n = F.nvars
    return den, tuple(tuple(row[b:b + n] for row in K) for b in range(0, len(K[0]), n))


def oracle_hessian_table(F: SymForm) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """`SymForm.hessian_table` placing each term on its own: every (k, j)
    of its support, one index lookup of alpha - e_k - e_j each."""
    n, d = F.nvars, F.degree
    index = monomial_index(n, d - 2)
    lc = math.lcm(*(c.denominator for _, c in F.terms))
    nums = [c.numerator * (lc // c.denominator) * alpha_factorial(a) for a, c in F.terms]
    D = lc * math.factorial(d)
    g = math.gcd(D, *nums)
    K = [[0] * (len(index) * n) for _ in range(n)]
    for (alpha, _), v in zip(F.terms, nums):
        support = [i for i, e in enumerate(alpha) if e]
        for k in support:
            for j in support:
                beta = list(alpha)
                beta[k] -= 1
                beta[j] -= 1
                if beta[j] >= 0:
                    K[k][index[tuple(beta)] * n + j] = v // g
    return D // g, tuple(map(tuple, K))


def oracle_table_kernel(F: SymForm) -> tuple[Vec, ...]:
    """`SymForm.jacobian_kernel` on the table's transpose: the nonzero
    columns, ranked mod P, else their exact null space."""
    rows = tuple(c for c in zip(*F.hessian_table[1]) if any(c))
    if rank_mod_p(rows, F.nvars) == F.nvars:
        return ()
    return tuple(nullspace(Matrix(rows, 1, F.nvars)))


def oracle_form_space(h: Matrix, degree: int) -> list[tuple[int, list[int]]]:
    """`corpus._form_space` on dense rows: a row for every (i < j, beta),
    zero rows too, each summing over every k."""
    n, d = h.nrows, degree
    monos = enumerate_monomials(n, d)
    index = monomial_index(n, d)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for beta in enumerate_monomials(n, d - 2):
                row = [0] * len(monos)
                for k in range(n):
                    for col, other, sign in ((i, j, 1), (j, i, -1)):
                        if h.ints[k][col]:
                            alpha = tuple(b + (t == k) + (t == other) for t, b in enumerate(beta))
                            row[index[alpha]] += sign * h.ints[k][col] * alpha_factorial(alpha)
                rows.append(tuple(row))
    # the kernel read off the rref of every row, as `integer_nullspace` did
    red, pivots, _ = rref(Matrix(tuple(rows), 1, len(monos)))
    basis = []
    for free in (c for c in range(len(monos)) if c not in pivots):
        v = [0] * len(monos)
        v[free] = red.den
        for r, p in enumerate(pivots):
            v[p] = -red.ints[r][free]
        g = math.gcd(*v)
        basis.append((red.den // g, [x // g for x in v]))
    return basis


def oracle_symmetry_violation(F: SymForm, g: Matrix):
    """`forms.symmetry_violation` as a scan of every pair i < j, then
    every monomial beta: (g^T H_beta)[i][j] against [j][i], one integer
    dot product each."""
    if g.nrows != F.nvars or g.ncols != F.nvars:
        raise ValueError("endomorphism dimension must match the form")
    n, d = F.nvars, F.degree
    cols = list(zip(*g.ints))
    slices = hessian_slices(F)[1]
    for i in range(n):
        for j in range(i + 1, n):
            for beta, H in zip(enumerate_monomials(n, d - 2), slices):
                if sum(map(mul, cols[i], H[j])) != sum(map(mul, cols[j], H[i])):
                    return (0, 1), (i, j) + monomial_slots(beta)
    return None


def oracle_recover(F: SymForm, Ft: SymForm) -> Matrix:
    """`algebra.recover_symmetrizer` by one reduction of the N×2n matrix
    [J_F^T | J_Ft^T], checked by twisting F."""
    if (F.nvars, F.degree) != (Ft.nvars, Ft.degree):
        raise FiberMismatchError("forms live in different spaces")
    if grassmann_point(F) != grassmann_point(Ft):
        raise FiberMismatchError("forms have different Jacobian images")
    g = solve_matrix(jacobian_matrix(F).transpose(), jacobian_matrix(Ft).transpose())
    if g is None:
        raise InvariantError("equal Jacobian images but unsolvable transport")
    if not is_invertible(g):
        raise InvariantError("fiber transport is singular")
    if oracle_symmetry_violation(F, g) is not None:
        raise InvariantError("fiber transport is not a symmetrizer")
    if twist(F, g, check=False) != Ft:
        raise InvariantError("fiber transport fails to reproduce the target")
    return g


# the forms on which a wrong g_F or a wrong twist must show in the suite
MUTATION_FORMS = ("x0^3+x1^3+x2^3", "x0^3+x1^3+x2^3+x3^3", "x0^2*x1+x1^3+x2^3")
# and a cone, (text, nvars): degenerate, so no round trip runs on it
MUTATION_CONE = ("x0^3+x1^3", 3)


def off_by_one_twist(position: int):
    """A wrong `twist`: the real one plus 1 on the coefficient of the
    first or second monomial in canonical order, x0^d or x0^(d-1)*x1."""

    def mutated(F, g, check=True):
        G = twist(F, g, check)
        alpha = enumerate_monomials(G.nvars, G.degree)[position]
        return SymForm.from_coeffs(G.nvars, G.degree, G.terms + ((alpha, 1),))

    return mutated


_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+)|(?P<var>x(?P<index>[0-9]+))|(?P<sign>[+-])"
    r"|(?P<star>\*)|(?P<caret>\^)|(?P<slash>/))"
)


def _oracle_integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long", position) from None


class _OracleTokens:
    """Matches the next token afresh on every peek."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        rest = self.text[self.pos :]
        if not rest.strip():
            return None
        m = _ORACLE_TOKEN.match(self.text, self.pos)
        if m is None or m.end() == m.start():
            bad = self.pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {self.text[bad]!r}", bad)
        if m.group("number"):
            return ("number", _oracle_integer(m.group("number"), m.start("number")),
                    m.start("number"))
        if m.group("var"):
            return ("var", _oracle_integer(m.group("index"), m.start("var")), m.start("var"))
        if m.group("sign"):
            return ("sign", m.group("sign"), m.start("sign"))
        if m.group("star"):
            return ("star", "*", m.start("star"))
        if m.group("caret"):
            return ("caret", "^", m.start("caret"))
        return ("slash", "/", m.start("slash"))

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos = _ORACLE_TOKEN.match(self.text, self.pos).end()
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok


def _oracle_term(toks: _OracleTokens, sign: int):
    tok = toks.peek()
    pos = tok[2] if tok else len(toks.text)
    coeff = Fraction(sign)
    if tok is not None and tok[0] == "number":
        toks.next()
        num, den = tok[1], 1
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "slash":
            toks.next()
            dtok = toks.expect("number", "a positive denominator")
            den = dtok[1]
            if den == 0:
                raise ParseError("zero denominator", dtok[2])
        coeff *= Fraction(num, den)
        toks.expect("star", "'*' between coefficient and variables")
    exponents: dict[int, int] = {}
    while True:
        idx = toks.expect("var", "a variable like x0")[1]
        exp = 1
        nxt = toks.peek()
        if nxt is not None and nxt[0] == "caret":
            toks.next()
            exp = toks.expect("number", "an exponent")[1]
        exponents[idx] = exponents.get(idx, 0) + exp
        nxt = toks.peek()
        if nxt is None or nxt[0] != "star":
            return exponents, coeff, pos
        toks.next()


def oracle_parse_poly(text: str, nvars: int | None = None) -> SymForm:
    """`polytext.parse_poly` on the peek-based tokenizer, which takes time
    quadratic in the text."""
    toks = _OracleTokens(text)
    if toks.peek() is None:
        raise ParseError("empty input", 0)
    terms = []
    while toks.peek() is not None:
        sign = 1
        tok = toks.peek()
        if tok[0] == "sign":
            toks.next()
            sign = 1 if tok[1] == "+" else -1
        elif terms:
            raise ParseError("expected '+' or '-' between terms", tok[2])
        terms.append(_oracle_term(toks, sign))
    degree = sum(terms[0][0].values())
    max_index = -1
    for exps, _, pos in terms:
        if sum(exps.values()) != degree:
            raise ParseError(
                f"term of degree {sum(exps.values())} in a degree-{degree} polynomial", pos
            )
        max_index = max(max_index, max(exps))
    if degree < 3:
        raise ParseError(f"degree {degree} is below 3", terms[0][2])
    if nvars is None:
        nvars = max_index + 1
    elif nvars <= max_index:
        for exps, _, pos in terms:
            if max(exps) >= nvars:
                raise ParseError(f"variable x{max(exps)} exceeds the declared count {nvars}", pos)
    check_size(nvars, degree)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for exps, c, _ in terms:
        alpha = tuple(exps.get(i, 0) for i in range(nvars))
        coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + c
    return SymForm.from_coeffs(nvars, degree, coeffs)
