"""Univariate polynomials over the rationals.

Provides exact arithmetic, gcd, squarefree part, and factorization into
irreducibles. Factorization runs Zassenhaus: factor modulo a small prime,
Hensel-lift, recombine. The engine only factors minimal polynomials of
n×n matrices, so degrees stay at most n; coefficients can be arbitrarily
large without hurting the running time.

`squarefree_mod_p` is a certificate modulo the prime P that
`linalg` also uses (von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 6 and 14). Let f be the primitive integer multiple of the input. If
P does not divide deg(f)·lc(f), reduction mod P keeps the degrees of f
and f′, and a square factor g² of f over the rationals (by Gauss's lemma
an integer one, with lc(g) dividing lc(f)) stays a square factor of the
same degree mod P. So gcd(f mod P, f′ mod P) = 1 proves f squarefree.
`is_squarefree` tries it first, and in every other case the exact gcd
over the rationals decides: the answer True is always a proof, and no
answer depends on P.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, lcm
from typing import Iterable, Iterator

# the prime of the modular certificates, here and in linalg: the largest
# below 2^30, so a residue is one 30-bit digit of a CPython int and a
# product of two residues is two. Rational reconstruction mod P reaches
# |num|, den <= √(P/2) = 23,170; past that the exact route decides.
P = 2**30 - 35


class InvariantError(RuntimeError):
    """An internal consistency check failed. Always a bug, never bad input."""


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients ascending, no trailing zeros.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(cs: Iterable) -> "Poly":
        tmp = [Fraction(c) for c in cs]
        while tmp and tmp[-1] == 0:
            tmp.pop()
        return Poly(tuple(tmp))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((Fraction(1),))

    @staticmethod
    def x() -> "Poly":
        return Poly((Fraction(0), Fraction(1)))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly.from_coeffs([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == 1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.from_coeffs(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly.from_coeffs(out)
        return Poly.from_coeffs(Fraction(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quo[i - d] = q
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= q * c
        return Poly.from_coeffs(quo), Poly.from_coeffs(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly.from_coeffs(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                mono = ""
            elif i == 1:
                mono = "t"
            else:
                mono = f"t^{i}"
            mag = abs(c)
            body = mono if (mag == 1 and mono) else (str(mag) + ("*" + mono if mono else ""))
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return Poly.zero()
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), made monic. Rejects the zero polynomial."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Poly.one()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def squarefree_mod_p(p: Poly) -> bool:
    """True when the certificate mod P proves p squarefree over the
    rationals (see the module docstring); False decides nothing."""
    if p.degree <= 0:
        return True
    f = _to_primitive_int(p)
    if (p.degree * f[-1]) % P == 0:
        return False
    fp = [c % P for c in f]
    dfp = [i * c % P for i, c in enumerate(fp) if i]
    return len(_mp_gcd(fp, dfp, P)) == 1


def is_squarefree(p: Poly) -> bool:
    """Whether p has no repeated factor over the rationals: certified mod
    P when it can be, else by the exact gcd."""
    return squarefree_mod_p(p) or poly_gcd(p, p.derivative()).degree == 0


def _to_primitive_int(p: Poly) -> list[int]:
    """Scale a nonzero rational polynomial to a primitive integer one
    with positive leading coefficient."""
    denom = lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    ints = [c.numerator * (denom // c.denominator) for c in p.coeffs]
    content = int_gcd(*ints)
    ints = [v // content for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


# ---------------------------------------------------------------------------
# Factorization over the rationals: Zassenhaus.
#
# Reduce to a monic integer polynomial, factor it modulo a small prime
# where it stays squarefree, Hensel-lift the modular factors until their
# coefficients are pinned down by the Landau-Mignotte bound, then
# recombine lifted factors into true integer divisors. Coefficient size
# only enters through the lifting precision, so matrix minimal
# polynomials with large entries stay cheap.
#
# Modular polynomials are plain int lists (ascending, no trailing zeros);
# Fraction arithmetic would be pure overhead here.


def _mp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mp_add(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _mp_trim(out)


def _mp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = a[:] + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _mp_trim(out)


def _mp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c == 0:
            continue
        for j, e in enumerate(b):
            out[i + j] += c * e
    return _mp_trim([v % m for v in out])


def _mp_divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial; works over Z/m for any m."""
    assert b and b[-1] == 1
    rem = a[:]
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % m
        if c == 0:
            continue
        quo[i - db] = c
        for j, e in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - c * e) % m
    return _mp_trim(quo), _mp_trim(rem)


def _mp_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _mp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _mp_divmod_monic(a, _mp_monic(b, p), p)[1]
        # reduce a modulo the monic version of b; scaling does not change gcds
    return _mp_monic(a, p) if a else []


def _mp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p) with f monic."""
    result = [1]
    base = _mp_divmod_monic(a, f, p)[1]
    while e:
        if e & 1:
            result = _mp_divmod_monic(_mp_mul(result, base, p), f, p)[1]
        base = _mp_divmod_monic(_mp_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _mp_eea(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Bezout pair (s, t) with s*a + t*b = 1 mod p for coprime a, b."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        lead_inv = pow(r1[-1], -1, p)
        monic_r1 = [(c * lead_inv) % p for c in r1]
        q, r = _mp_divmod_monic(r0, monic_r1, p)
        q = [(c * lead_inv) % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _mp_sub(s0, _mp_mul(q, s1, p), p)
        t0, t1 = t1, _mp_sub(t0, _mp_mul(q, t1, p), p)
    assert len(r0) == 1, "arguments were not coprime"
    inv = pow(r0[0], -1, p)
    return [(c * inv) % p for c in s0], [(c * inv) % p for c in t0]


def _edf_candidates(degree_bound: int, p: int) -> Iterator[list[int]]:
    """Deterministic stream of trial polynomials for equal-degree splitting."""
    for deg in range(1, degree_bound + 1):
        for combo in itertools.product(range(p), repeat=deg):
            yield list(combo) + [1]


def _mp_equal_degree(g: list[int], d: int, p: int) -> list[list[int]]:
    """Split a monic product of distinct irreducibles of degree d, p odd."""
    if len(g) - 1 == d:
        return [g]
    half = (p**d - 1) // 2
    for r in _edf_candidates(len(g) - 2, p):
        u = _mp_gcd(r, g, p)
        if 0 < len(u) - 1 < len(g) - 1:
            h = u
        else:
            s = _mp_powmod(r, half, g, p)
            s = _mp_sub(s, [1], p)
            if not s:
                continue
            h = _mp_gcd(s, g, p)
            if not (0 < len(h) - 1 < len(g) - 1):
                continue
        rest = _mp_divmod_monic(g, h, p)[0]
        return _mp_equal_degree(h, d, p) + _mp_equal_degree(rest, d, p)
    raise InvariantError("equal-degree splitting exhausted its candidates")


def _mp_factor(f: list[int], p: int) -> list[list[int]]:
    """Irreducible factors of a monic squarefree polynomial mod an odd prime."""
    out: list[list[int]] = []
    v = f[:]
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _mp_powmod(h, p, v, p)
        g = _mp_gcd(_mp_sub(h, [0, 1], p), v, p)
        if len(g) - 1 > 0:
            out.extend(_mp_equal_degree(g, d, p))
            v = _mp_divmod_monic(v, g, p)[0]
            h = _mp_divmod_monic(h, v, p)[1]
    if len(v) - 1 > 0:
        out.append(v)
    return out


def _hensel_step(
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    m: int,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2.
    f, g, h monic."""
    M = m * m
    fm = [c % M for c in f]
    e = _mp_sub(fm, _mp_mul(g, h, M), M)
    q, r = _mp_divmod_monic(_mp_mul(s, e, M), h, M)
    g2 = _mp_add(g, _mp_add(_mp_mul(t, e, M), _mp_mul(q, g, M), M), M)
    h2 = _mp_add(h, r, M)
    b = _mp_sub(_mp_add(_mp_mul(s, g2, M), _mp_mul(t, h2, M), M), [1], M)
    c, dd = _mp_divmod_monic(_mp_mul(s, b, M), h2, M)
    s2 = _mp_sub(s, dd, M)
    t2 = _mp_sub(t, _mp_add(_mp_mul(t, b, M), _mp_mul(c, g2, M), M), M)
    assert g2 and g2[-1] == 1 and h2 and h2[-1] == 1
    return g2, h2, s2, t2


def _hensel_lift_tree(
    f: list[int], factors: list[list[int]], p: int, target: int
) -> list[list[int]]:
    """Lift a mod-p factorization of a monic integer f to modulus >= target.

    Splits the factor list in half, lifts the pair, recurses. Every
    returned factor is monic with coefficients reduced into [0, m)."""
    if len(factors) == 1:
        m = p
        while m < target:
            m *= m
        return [[c % m for c in f]]
    mid = len(factors) // 2
    g = [1]
    for q in factors[:mid]:
        g = _mp_mul(g, q, p)
    h = [1]
    for q in factors[mid:]:
        h = _mp_mul(h, q, p)
    s, t = _mp_eea(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift_tree(g, factors[:mid], p, target) + _hensel_lift_tree(
        h, factors[mid:], p, target
    )


def _squarefree_prime(f: list[int]) -> int:
    """Smallest odd prime keeping a squarefree integer polynomial squarefree."""
    p = 3
    while True:
        for q in range(2, p):
            if p % q == 0:
                break
        else:
            fp = _mp_trim([c % p for c in f])
            if len(fp) == len(f):
                deriv = _mp_trim([(i * c) % p for i, c in enumerate(fp) if i > 0])
                if deriv and len(_mp_gcd(fp, deriv, p)) == 1:
                    return p
        p += 2


def _symmetric(c: int, m: int) -> int:
    return c - m if 2 * c > m else c


def _zassenhaus_monic(f: list[int]) -> list[list[int]]:
    """Irreducible integer factors of a monic squarefree integer polynomial."""
    n = len(f) - 1
    if n <= 1:
        return [f] if n == 1 else []
    p = _squarefree_prime(f)
    modular = _mp_factor([c % p for c in f], p)
    if len(modular) == 1:
        return [f]
    norm = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (1 << n) * norm  # symmetric residues must cover [-B, B]
    target = p
    while target <= bound:
        target *= target
    lifted = _hensel_lift_tree(f, modular, p, target)
    modulus = p
    while modulus < target:
        modulus *= modulus

    found: list[list[int]] = []
    remaining = list(range(len(lifted)))
    current = Poly.from_coeffs(f)
    size = 1
    while 2 * size <= len(remaining):
        progress = False
        for combo in itertools.combinations(remaining, size):
            g = [1]
            for i in combo:
                g = _mp_mul(g, lifted[i], modulus)
            cand = Poly.from_coeffs([_symmetric(c, modulus) for c in g])
            quo, rem = divmod(current, cand)
            if rem.is_zero:
                found.append([int(c) for c in cand.coeffs])
                current = quo
                remaining = [i for i in remaining if i not in combo]
                progress = True
                break
        if not progress:
            size += 1
    if current.degree > 0:
        found.append([int(c) for c in current.coeffs])
    return found


def _factor_squarefree(p: Poly) -> list[Poly]:
    """Monic irreducible factors of a squarefree rational polynomial."""
    if p.degree <= 0:
        return []
    if p.degree == 1:
        return [p.monic()]
    ints = _to_primitive_int(p)
    lead = ints[-1]
    n = len(ints) - 1
    if lead == 1:
        monic_ints = ints
    else:
        # y = lead*x turns f into a monic polynomial of the same degree
        monic_ints = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    out = []
    for g in _zassenhaus_monic(monic_ints):
        if lead != 1:
            g = [c * lead**i for i, c in enumerate(g)]
        out.append(Poly.from_coeffs(g).monic())
    return sorted(out, key=lambda q: (q.degree, q.coeffs))


def factor_rational(p: Poly) -> list[tuple[Poly, int]]:
    """Factor p into monic irreducibles with multiplicities.

    The product of the factors times the leading coefficient of p
    reproduces p exactly.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    irreducibles = _factor_squarefree(squarefree_part(p))
    result = []
    for q in sorted(set(irreducibles), key=lambda q: (q.degree, q.coeffs)):
        mult = 0
        rest = p
        while True:
            quo, rem = divmod(rest, q)
            if not rem.is_zero:
                break
            mult += 1
            rest = quo
        result.append((q, mult))
    check = Poly.constant(p.leading)
    for q, m in result:
        check = check * q**m
    if check != p:
        raise InvariantError("factorization failed to reproduce its input")
    return result
