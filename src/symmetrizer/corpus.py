"""Deterministic corpus of test forms.

Five families: Fermat sums of pure powers, cones (degenerate by
construction), dense seeded random forms, direct sums of independently
generated blocks, and forms admitting a prescribed nilpotent symmetrizer
(solved from the transposed constraint system). A spec plus its seed
fully determines the output, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Iterator

from .algebra import nilpotent_report, symmetrizer_algebra
from .forms import (
    SymForm,
    alpha_factorial,
    enumerate_monomials,
    is_nondegenerate,
    monomial_count,
    monomial_index,
    symmetry_violation,
)
from .linalg import InvariantError, Matrix, integer_nullspace, nilpotency_index
from .rng import SplitMix64

KINDS = ("fermat", "random", "st_sum", "cone", "prescribed_nilpotent")

RETRY_CAP = 32


class GeneratorError(ValueError):
    """The requested form family is empty or exhausted its retry budget."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one corpus form. The seed pins down all randomness."""

    kind: str
    nvars: int
    degree: int
    seed: int = 0
    coefficient_bound: int = 10
    blocks: tuple[int, ...] | None = None
    nilpotent: Matrix | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GeneratorError(f"unknown generator kind {self.kind!r}")
        if self.nvars < 2:
            raise GeneratorError("need at least 2 variables")
        if self.degree < 3:
            raise GeneratorError("need degree at least 3")
        if self.coefficient_bound < 1:
            raise GeneratorError("coefficient bound must be positive")
        if self.kind == "st_sum":
            if not self.blocks or any(b < 1 for b in self.blocks):
                raise GeneratorError("st_sum needs positive block sizes")
            if sum(self.blocks) != self.nvars:
                raise GeneratorError(
                    f"block sizes {self.blocks} do not sum to {self.nvars}"
                )
        if self.kind == "prescribed_nilpotent":
            h = self.nilpotent
            if h is None or h.nrows != self.nvars or h.ncols != self.nvars:
                raise GeneratorError(
                    "prescribed_nilpotent needs an n x n matrix payload"
                )
            if nilpotency_index(h) is None:
                raise GeneratorError("prescribed matrix is not nilpotent")


def _random_form(nvars: int, degree: int, seed: int, bound: int) -> SymForm:
    """Dense integer coefficients in [-bound, bound], drawn one per
    monomial in the canonical order."""
    rng = SplitMix64(seed)
    draws = [(alpha, rng.int_in(-bound, bound)) for alpha in enumerate_monomials(nvars, degree)]
    return SymForm(nvars, degree, tuple((alpha, Fraction(c)) for alpha, c in draws if c))


def _fermat(nvars: int, degree: int, powers: int) -> SymForm:
    """The sum of x_i^degree over the first `powers` of `nvars` variables."""
    one = Fraction(1)
    return SymForm(nvars, degree, tuple(
        (tuple(degree if j == i else 0 for j in range(nvars)), one) for i in range(powers)
    ))


def _form_space(h: Matrix, degree: int) -> list[tuple[int, list[int]]]:
    """Basis of the space {F of this degree : h symmetrizes F}, each form
    as (den, ints): its coefficients in the canonical order over den.

    Same equations as the symmetrizer constraint system, read the other
    way: h is fixed and the unknowns are the polynomial coefficients,
    entering through the polarization factor alpha!/d!. Every row is an
    integer row over the one denominator h.den * d!.
    """
    n, d = h.nrows, degree
    width = monomial_count(n, d)
    index = monomial_index(n, d)
    # the nonzero entries h[k][i] of each column i
    columns = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*h.ints)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if not columns[i] and not columns[j]:
                continue  # every row of the pair is zero
            for beta in enumerate_monomials(n, d - 2):
                row = [0] * width
                # h[k][i] F(e_k, e_j, e^beta) - h[k][j] F(e_k, e_i, e^beta)
                for entries, other, sign in ((columns[i], j, 1), (columns[j], i, -1)):
                    for k, x in entries:
                        alpha = list(beta)
                        alpha[k] += 1
                        alpha[other] += 1
                        alpha = tuple(alpha)
                        row[index[alpha]] += sign * x * alpha_factorial(alpha)
                rows.append(tuple(row))
    return integer_nullspace(Matrix(tuple(rows), h.den * factorial(d), width)).basis


def nilpotent_form_space(h: Matrix, degree: int) -> list[SymForm]:
    """Basis of the space {F of this degree : h symmetrizes F}, as forms."""
    n = h.nrows
    monos = enumerate_monomials(n, degree)
    return [
        SymForm(n, degree, tuple((a, Fraction(x, den)) for a, x in zip(monos, v) if x))
        for den, v in _form_space(h, degree)
    ]


def generate(spec: GeneratorSpec) -> SymForm:
    """Produce the form a spec describes. Deterministic."""
    n, d = spec.nvars, spec.degree
    if spec.kind == "fermat":
        return _fermat(n, d, n)

    if spec.kind == "cone":
        # pure powers on all but the last variable: always degenerate
        return _fermat(n, d, n - 1)

    if spec.kind == "random":
        return _random_form(n, d, spec.seed, spec.coefficient_bound)

    if spec.kind == "st_sum":
        stream = SplitMix64(spec.seed)
        terms = []
        off = 0
        for size in spec.blocks:
            for _ in range(RETRY_CAP):
                sub = _random_form(size, d, stream.next_u64(), spec.coefficient_bound)
                if is_nondegenerate(sub):
                    break
            else:
                raise GeneratorError(
                    f"no nondegenerate block of size {size} within {RETRY_CAP} draws"
                )
            # sub in variables off, ..., off + size - 1
            head, tail = (0,) * off, (0,) * (n - off - size)
            terms += [(head + alpha + tail, c) for alpha, c in sub.terms]
            off += size
        return SymForm(n, d, tuple(terms))

    # prescribed_nilpotent
    space = _form_space(spec.nilpotent, d)
    if not space:
        raise GeneratorError("only the zero form admits this symmetrizer")
    # the basis as integer vectors over one denominator: each draw is one
    # integer combination, and each coefficient one Fraction
    monos = enumerate_monomials(n, d)
    den = lcm(*(b_den for b_den, _ in space))
    basis = [[(k, x * (den // b_den)) for k, x in enumerate(v) if x] for b_den, v in space]
    rng = SplitMix64(spec.seed)
    for _ in range(RETRY_CAP):
        acc = [0] * len(monos)
        for b in basis:
            c = rng.int_in(-spec.coefficient_bound, spec.coefficient_bound)
            if c:
                for k, v in b:
                    acc[k] += c * v
        F = SymForm(n, d, tuple((a, Fraction(v, den)) for a, v in zip(monos, acc) if v))
        if F.is_zero or not is_nondegenerate(F):
            continue
        if symmetry_violation(F, spec.nilpotent) is not None:
            raise InvariantError("solved form space does not contain its output")
        return F
    raise GeneratorError(
        f"no nondegenerate form with the prescribed symmetrizer in {RETRY_CAP} draws"
    )


def census(specs: Iterable[GeneratorSpec]) -> Iterator[dict]:
    """One record per spec, in order: algebra dimensions and square-zero
    count for nondegenerate draws, a skip marker otherwise."""
    for spec in specs:
        base = {
            "kind": spec.kind,
            "nvars": spec.nvars,
            "degree": spec.degree,
            "seed": spec.seed,
        }
        try:
            F = generate(spec)
        except GeneratorError as exc:
            yield {**base, "skipped": str(exc)}
            continue
        A = symmetrizer_algebra(F)
        if not A.nondegenerate:
            yield {**base, "skipped": "degenerate"}
            continue
        rep = nilpotent_report(A)
        yield {
            **base,
            "dim_g": A.dim_total,
            "dim_torus": A.dim_torus,
            "dim_unipotent": A.dim_unipotent,
            "square_zero_count": len(rep.classes),
        }
