"""Exact arithmetic the benchmark checks answers with.

Written apart from the engine on purpose: a known-answer check that
called the engine's own evaluators or elimination would pass whenever
the engine is consistently wrong. A polynomial here is a dict from
exponent tuple to Fraction; a matrix is a list of rows of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d in n variables."""
    out = []
    for slots in combinations_with_replacement(range(n), d):
        alpha = [0] * n
        for s in slots:
            alpha[s] += 1
        out.append(tuple(alpha))
    return out


def add_term(poly: dict, alpha: tuple[int, ...], c) -> None:
    val = poly.get(alpha, Fraction(0)) + c
    if val:
        poly[alpha] = val
    else:
        poly.pop(alpha, None)


def to_text(poly: dict) -> str:
    """Polynomial text in the CLI grammar, terms in descending exponent
    order. Independent of the engine's printer."""
    parts = []
    for alpha in sorted(poly, reverse=True):
        c = poly[alpha]
        body = "*".join(
            f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e
        )
        mag = abs(c)
        frag = body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(("-" if c < 0 else "") + frag)
        else:
            parts.append(("- " if c < 0 else "+ ") + frag)
    return " ".join(parts)


def slot_value(poly: dict, n: int, d: int, slots) -> Fraction:
    """F(e_s1, ..., e_sd) of the polarized form: c_alpha * alpha! / d!."""
    alpha = [0] * n
    for s in slots:
        alpha[s] += 1
    c = poly.get(tuple(alpha))
    if not c:
        return Fraction(0)
    num = 1
    for e in alpha:
        num *= factorial(e)
    return c * Fraction(num, factorial(d))


def is_symmetrizer(poly: dict, n: int, d: int, g) -> bool:
    """Brute force: F(g e_i, e_j, e^beta) == F(g e_j, e_i, e^beta) for all
    i < j and every multiset beta of d-2 slots."""
    table = {}
    for k in range(n):
        for j in range(n):
            for beta in combinations_with_replacement(range(n), d - 2):
                table[k, j, beta] = slot_value(poly, n, d, (k, j) + beta)
    for beta in combinations_with_replacement(range(n), d - 2):
        for i in range(n):
            for j in range(i + 1, n):
                lhs = sum(g[k][i] * table[k, j, beta] for k in range(n))
                rhs = sum(g[k][j] * table[k, i, beta] for k in range(n))
                if lhs != rhs:
                    return False
    return True


def rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def in_span(vectors, v) -> bool:
    if not any(v):
        return True
    if not vectors:
        return False
    return rank(list(vectors) + [v]) == rank(vectors)


def flatten(g) -> list[Fraction]:
    return [x for row in g for x in row]


def partials_rank(poly: dict, n: int, d: int) -> int:
    """Rank of the Jacobian rows (coefficients of each partial derivative);
    the form is nondegenerate exactly when this is n."""
    monos = {a: i for i, a in enumerate(monomials(n, d - 1))}
    rows = []
    for i in range(n):
        row = [Fraction(0)] * len(monos)
        for alpha, c in poly.items():
            if alpha[i]:
                beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                row[monos[beta]] += alpha[i] * c
        rows.append(row)
    return rank(rows)


def symmetrizer_dim(poly: dict, n: int, d: int) -> int:
    """Dimension of the space of symmetrizers, from the swap conditions
    written out as one linear equation in the n*n unknowns g[k][i]."""
    rows = []
    for beta in combinations_with_replacement(range(n), d - 2):
        for i in range(n):
            for j in range(i + 1, n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[k * n + i] += slot_value(poly, n, d, (k, j) + beta)
                    row[k * n + j] -= slot_value(poly, n, d, (k, i) + beta)
                if any(row):
                    rows.append(row)
    return n * n - (rank(rows) if rows else 0)


def twist(poly: dict, n: int, d: int, g) -> dict:
    """Polynomial of F(g x, x, ..., x) = sum_i (g x)_i * (1/d) dP/dx_i."""
    out: dict = {}
    for alpha, c in poly.items():
        for i in range(n):
            if not alpha[i]:
                continue
            base = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            scale = Fraction(alpha[i], d) * c
            for j in range(n):
                if g[i][j]:
                    beta = base[:j] + (base[j] + 1,) + base[j + 1 :]
                    add_term(out, beta, scale * g[i][j])
    return out


def matrix_from_json(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]
