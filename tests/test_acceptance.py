"""Acceptance gate: eight exactness and runtime contracts.

Every test prints one [PASS]/[FAIL] scoreboard line (visible even under
captured output) and then asserts. Timers wrap only the production
computation under test, never the independent confirmation oracles.
All comparisons are exact rational identities; the only tolerances are
the stated wall-clock bounds.
"""

import json
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import (
    DEGENERATE_LABELS,
    H_REGULAR_3,
    brute_force_symmetrizer_basis,
    same_span,
)
from symmetrizer import cli
from symmetrizer.algebra import (
    FiberMismatchError,
    nilpotent_report,
    recover_symmetrizer,
    sample_invertible_symmetrizers,
    st_decompose,
    symmetrizer_algebra,
)
from symmetrizer.corpus import GeneratorSpec, generate
from symmetrizer.forms import (
    ProjectivePoint,
    basis_vector,
    compose_linear,
    grassmann_point,
    is_nondegenerate,
    jacobian_kernel,
    twist,
    vanishing_order,
)
from symmetrizer.linalg import Matrix, vector
from symmetrizer.polytext import parse_poly


def _announce(capsys, number, label, failures, elapsed=None, bound=None):
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] criterion {number}: {label}"
    if elapsed is not None:
        line += f" ({elapsed:.3f}s" + (f" < {bound}s)" if bound else ")")
    if failures:
        line += f" - {failures[0]}"
    with capsys.disabled():
        print(line)


def test_criterion_1_square_zero_worked_example(capsys):
    failures = []
    F = parse_poly("x0^2*x1")

    # independent confirmation first: the all-slot-swaps oracle
    oracle = brute_force_symmetrizer_basis(F)

    start = time.perf_counter()
    A = symmetrizer_algebra(F)
    rep = nilpotent_report(A)
    elapsed = time.perf_counter() - start

    if not same_span(list(A.basis), oracle, 2):
        failures.append("production basis disagrees with the brute-force oracle")
    if (A.dim_total, A.dim_torus, A.dim_unipotent) != (2, 0, 1):
        failures.append(
            f"dims {(A.dim_total, A.dim_torus, A.dim_unipotent)} != (2, 0, 1)"
        )
    if len(rep.classes) != 1:
        failures.append(f"{len(rep.classes)} square-zero classes, expected 1")
    else:
        pts = rep.classes[0].image_points
        if [pt for pt, _ in pts] != [ProjectivePoint.from_vector([0, 1])]:
            failures.append(f"image points {pts}, expected [0 : 1]")
    u = vector([0, 1])
    order = vanishing_order(F, u)
    if order != 2 or order != F.degree - 1:
        failures.append(f"vanishing order {order} != d-1 = 2")
    # F(u,u,v) is linear in v, so the basis vectors decide it for all v
    if any(F.evaluate(u, u, basis_vector(2, j)) != 0 for j in range(2)):
        failures.append("F(u,u,v) != 0 for some basis v")
    if elapsed >= 0.1:
        failures.append(f"runtime {elapsed:.3f}s >= 0.1s")

    _announce(
        capsys, 1,
        "x0^2*x1: dims (2,0,1), square-zero image [0:1], order 2, oracle-confirmed",
        failures, elapsed, 0.1,
    )
    assert not failures, "; ".join(failures)


def test_criterion_2_regular_nilpotent_worked_example(capsys):
    failures = []
    F = parse_poly("x0^2*x2 + x0*x1^2")
    h = H_REGULAR_3

    start = time.perf_counter()
    A = symmetrizer_algebra(F)
    rep = nilpotent_report(A)
    elapsed = time.perf_counter() - start

    if A.dim_total != 3 or not same_span(
        list(A.basis), [Matrix.identity(3), h, h * h], 3
    ):
        failures.append("algebra is not the span of {I, h, h^2}")
    if A.dim_unipotent != 2:
        failures.append(f"dim_unipotent {A.dim_unipotent} != 2")
    if len(rep.classes) != 1:
        failures.append(f"{len(rep.classes)} square-zero classes, expected 1")
    if (h * h).rank() != 1:
        failures.append("dim Im(h^2) != 1")
    zero = Matrix.zeros(3)
    if any(f * f * f != zero for f in A.unipotent_basis):
        failures.append("some unipotent basis element has f^3 != 0")
    # the three partials 2*x0*x2 + x1^2, 2*x0*x1, x0^2 vanish together
    # only at [0:0:1], so the singular locus has exactly one point and
    # it satisfies the order-(d-1) condition; bound: 1 class <= 1 point
    if vanishing_order(F, vector([0, 0, 1])) != 2:
        failures.append("order at the unique singular point is not d-1")
    if not len(rep.classes) <= 1:
        failures.append("square-zero class count exceeds the singular point count")
    if elapsed >= 0.5:
        failures.append(f"runtime {elapsed:.3f}s >= 0.5s")

    _announce(
        capsys, 2,
        "x0^2*x2 + x0*x1^2: basis {I,h,h^2}, dim g+ = 2, one square-zero class, "
        "f^3 = 0, count bound 1 <= 1",
        failures, elapsed, 0.5,
    )
    assert not failures, "; ".join(failures)


def test_criterion_3_fermat_split(capsys):
    failures = []
    worst = 0.0
    for n in (2, 3, 4):
        for d in (3, 4):
            F = generate(GeneratorSpec("fermat", n, d))

            start = time.perf_counter()
            A = symmetrizer_algebra(F)
            dec = st_decompose(F, algebra=A)
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)

            tag = f"fermat({n},{d})"
            if (A.dim_total, A.dim_torus, A.dim_unipotent) != (n, n - 1, 0):
                failures.append(f"{tag}: dims != ({n},{n-1},0)")
            if dec is None or dec.k != n:
                failures.append(f"{tag}: st_decompose did not yield {n} blocks")
                continue
            labelled = [
                (i, v) for i, blk in enumerate(dec.blocks) for v in blk.basis
            ]
            for combo in combinations_with_replacement(labelled, d):
                if len({i for i, _ in combo}) < 2:
                    continue
                if F.evaluate(*(v for _, v in combo)) != 0:
                    failures.append(f"{tag}: cross-block certificate is nonzero")
                    break
            if elapsed >= 1.0:
                failures.append(f"{tag}: runtime {elapsed:.3f}s >= 1s")

    _announce(
        capsys, 3,
        "fermat n in {2,3,4}, d in {3,4}: dims (n,n-1,0), n blocks, "
        "zero cross-block certificate",
        failures, worst, 1.0,
    )
    assert not failures, "; ".join(failures)


def _embed_matrix(B: Matrix, n: int, offset: int) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(B.nrows):
        for j in range(B.ncols):
            rows[offset + i][offset + j] = B.entry(i, j)
    return Matrix.from_rows(rows)


def test_criterion_4_direct_sum_algebras(capsys):
    shapes = [
        (4, 3, (2, 2)),
        (5, 3, (2, 3)),
        (5, 4, (2, 3)),
        (4, 4, (2, 2)),
        (5, 3, (3, 2)),
    ]
    failures = []
    start = time.perf_counter()
    for seed in range(20):
        n, d, blocks = shapes[seed % len(shapes)]
        F = generate(GeneratorSpec("st_sum", n, d, seed=seed, blocks=blocks))
        A = symmetrizer_algebra(F)
        summands = []
        offset = 0
        for size in blocks:
            columns = [row[offset : offset + size] for row in Matrix.identity(n).rows]
            piece = compose_linear(F, Matrix.from_rows(columns))
            for b in symmetrizer_algebra(piece).basis:
                summands.append(_embed_matrix(b, n, offset))
            offset += size
        if not same_span(A.basis, summands, n):
            failures.append(
                f"seed {seed} ({n},{d},{blocks}): algebra != block direct sum"
            )
    elapsed = time.perf_counter() - start

    _announce(
        capsys, 4,
        "20 seeded st_sum corpora: g_F equals the block direct sum, both inclusions",
        failures, elapsed,
    )
    assert not failures, "; ".join(failures)


def test_criterion_5_fiber_round_trip(capsys, golden_nondegenerate):
    failures = []
    start = time.perf_counter()
    for label, F in golden_nondegenerate.items():
        n = F.nvars
        A = symmetrizer_algebra(F)
        base_point = grassmann_point(F)
        gs = sample_invertible_symmetrizers(F, algebra=A, seed=17, count=20)
        if len(gs) != 20:
            failures.append(f"{label}: only {len(gs)} invertible samples")
        for g in gs:
            Ft = twist(F, g)
            if grassmann_point(Ft) != base_point:
                failures.append(f"{label}: J moved under a symmetrizer twist")
                break
            if not same_span(A.basis, symmetrizer_algebra(Ft).basis, n):
                failures.append(f"{label}: algebra span changed under twist")
                break
            if recover_symmetrizer(F, Ft) != g:
                failures.append(f"{label}: recovered element differs from g")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.3f}s >= 30s")

    _announce(
        capsys, 5,
        "every golden nondegenerate form x 20 sampled g: J fixed, span fixed, "
        "g recovered exactly",
        failures, elapsed, 30.0,
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_generic_forms_have_trivial_algebra(capsys):
    failures = []
    start = time.perf_counter()
    found = 0
    trivial = 0
    seed = 0
    while found < 100:
        F = generate(GeneratorSpec("random", 3, 3, seed=seed, coefficient_bound=10))
        seed += 1
        if not is_nondegenerate(F):
            continue
        found += 1
        if symmetrizer_algebra(F).dim_total == 1:
            trivial += 1
    elapsed = time.perf_counter() - start

    if trivial < 99:
        failures.append(f"only {trivial}/100 forms had dim g_F = 1")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.3f}s >= 60s")

    _announce(
        capsys, 6,
        f"100 dense random nondegenerate (3,3) forms: {trivial}/100 with dim 1 "
        "(threshold 99)",
        failures, elapsed, 60.0,
    )
    assert not failures, "; ".join(failures)


def test_criterion_7_oracle_equivalence(capsys, golden_corpus):
    failures = []
    checked = 0
    start = time.perf_counter()
    for label, F in golden_corpus.items():
        if F.nvars > 3 or F.degree > 4:
            continue
        checked += 1
        production = list(symmetrizer_algebra(F).basis)
        oracle = brute_force_symmetrizer_basis(F)
        if not same_span(production, oracle, F.nvars):
            failures.append(f"{label}: slot-1/2 system disagrees with all-pairs oracle")
    elapsed = time.perf_counter() - start

    _announce(
        capsys, 7,
        f"{checked} golden forms with n <= 3, d <= 4: production and "
        "brute-force nullspaces identical",
        failures, elapsed,
    )
    assert not failures, "; ".join(failures)


def test_criterion_8_negative_controls(capsys, golden_corpus):
    failures = []
    start = time.perf_counter()

    cone = golden_corpus["cone_3_3"]
    if is_nondegenerate(cone):
        failures.append("cone passed the nondegeneracy test")
    if jacobian_kernel(cone) != [vector([0, 0, 1])]:
        failures.append("cone kernel is not <e2>")

    code = cli.main(["analyze", "x0^3 + x1^3", "--nvars", "3"])
    report = json.loads(capsys.readouterr().out)
    if code != 0 or report["nondegenerate"] or report["kernel"] != [["0", "0", "1"]]:
        failures.append("analyze did not flag the cone with its kernel")
    code = cli.main(
        ["analyze", "x0^3 + x1^3", "--nvars", "3", "--require-nondegenerate"]
    )
    capsys.readouterr()
    if code != 3:
        failures.append(f"--require-nondegenerate exited {code}, expected 3")

    try:
        recover_symmetrizer(parse_poly("x0^2*x1"), parse_poly("x0^3 + x1^3"))
        failures.append("recovery across distinct fibers did not raise")
    except FiberMismatchError:
        pass
    code = cli.main(["recover", "x0^2*x1", "x0^3 + x1^3"])
    capsys.readouterr()
    if code != 4:
        failures.append(f"recover across fibers exited {code}, expected 4")
    elapsed = time.perf_counter() - start

    _announce(
        capsys, 8,
        "cone flagged degenerate with kernel <e2>; cross-fiber recover exits 4",
        failures, elapsed,
    )
    assert not failures, "; ".join(failures)
