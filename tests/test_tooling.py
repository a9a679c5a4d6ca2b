"""Tooling contracts: every layer the benchmark's traced pass rebinds
exists on the engine, a census proves each nilpotency once, a census
and `analyze` build the n²-wide constraint system only when a pencil
certificate fails, a certified census reads g_F off the sketch mod P
with no exact solve, null space or kernel of ∂F and eliminates no basis
a route handed over, builds no `Span`, one
Hessian table per form and one pass of slice sums per certified form,
transport twists
nothing and inverts one pivot block per source form, fiber membership
is decided by one product with no reduction of a target's Jacobian, the
generator composes no forms, parsing builds one Fraction per monomial
of its result and printing a report matrix builds none, no small
command line ends outside the documented exit codes, and a fixed set of
command lines prints exactly the recorded golden outputs."""

import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetrizer import algebra, cli, corpus, forms, linalg, polytext
from conftest import MUTATION_CONE, MUTATION_FORMS
from test_evaluators import oracle_nullspace_fiber_invariance_check

EXIT_CODES = {0, 2, 3, 4, 5}

# Recorded command lines with their exit code, stdout and stderr: one pass
# over the 15 analyze_grid cells, one 20-spec census chunk and five
# recover pairs, the inputs of perfbench/workloads.py at seed 1; then
# hand-picked cases the workloads miss (check, generate, the Fermat
# probes, dim U of 2 and 3, a census of regular and fractional
# nilpotents and three-block sums at degrees 3 and 4, degenerate forms
# with the kernel <(1, -1, 0)> and with a 2-dimensional kernel off the
# coordinate axes, a census of cones and of prescribed nilpotents with
# dim U from 2 to 4, a census that repeats one prescribed (h, d) at
# three seeds between two seeds of another, and `analyze` of the random
# cubic in 8 variables at seed 1 and of a random cubic in 4 variables
# read as a cone in 5, whose fiber checks bound g_F on its pencil and on
# the n²-wide rows respectively; and parser cases: two recover pairs with
# fractional coefficients and irregular whitespace, an analyze whose
# repeated monomials merge and cancel, a grammar error left of a bad
# character, a zero denominator, a 5000-digit coefficient and a
# non-ASCII digit; and the order of recover's errors: a degenerate
# source, a degenerate target (exit 3 with no flag), two degrees
# (exit 4) and a degenerate target off the source's fiber, which the
# product rejects before the target's table shows it degenerate (exit
# 3); and terms that merge on integers: an analyze that cancels to the
# zero form, one with unreduced and zero coefficients, a recover whose
# target repeats monomials over different denominators, and a recover
# whose target cancels to a degenerate form (exit 3)). A change that
# keeps every output must keep these bytes. After an intended output
# change, rewrite the expectations with
# `PYTHONPATH=src python tests/test_tooling.py` and review the diff.
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"


def _traced_layers() -> tuple[str, ...]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", _traced_layers())
def test_traced_layer_exists(layer):
    # the same lookups as Tracer.install: a module function, or a method
    # found in its class's own namespace
    modname, _, attr = layer.partition(".")
    home = importlib.import_module(f"symmetrizer.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(home, cls_name))[meth]
    else:
        fn = getattr(home, attr)
    assert callable(fn)


def counting(counts: Counter, name: str, fn):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper


def test_census_proves_nilpotency_once(monkeypatch):
    """A census of prescribed nilpotents with dim U of 2 and 3: nilpotency
    is proved once per prescribed matrix and once per unipotent basis
    element."""
    h = "0,0,0,0;1,0,0,0;0,1,0,0;0,0,0,0"
    stdin = "".join(
        json.dumps({"kind": "prescribed_nilpotent", "nvars": 4, "degree": 3,
                    "seed": seed, "matrix": h}) + "\n"
        for seed in (1, 2, 3)
    )
    counts = Counter()
    for module in (algebra, corpus):
        monkeypatch.setattr(
            module, "nilpotency_index", counting(counts, "nilpotency", module.nilpotency_index)
        )
    code, out, _ = invoke(["census", "-"], stdin)
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert sorted(r["dim_unipotent"] for r in records) == [2, 2, 3]
    assert counts["nilpotency"] == sum(1 + r["dim_unipotent"] for r in records)


def test_only_a_failed_pencil_certificate_builds_the_wide_system(monkeypatch):
    """A census of random, Fermat and st_sum forms reads g_F off the
    pencil and never builds the n²-wide constraint system, and `analyze`
    of a random form builds it neither for g_F nor for the fiber check,
    which bounds dim g_F on F's own pencil. A cone, a form with
    vanishing Hessian and one with a derogatory pencil ratio build it
    once for g_F and once per `fiber_invariance_check`, which bounds
    dim g_{F^g} on the pencil of F^g; so does a pencil bound above
    dim g_F. Every such report is the exact null-space oracle's, also
    against a wrong algebra."""
    counts = Counter()
    monkeypatch.setattr(
        algebra, "constraint_matrix", counting(counts, "wide", algebra.constraint_matrix)
    )
    specs = [
        {"kind": kind, "nvars": n, "degree": 3, "seed": 1}
        | ({"blocks": [2, n - 2]} if kind == "st_sum" else {})
        for kind in ("random", "fermat", "st_sum")
        for n in (4, 5)
    ]
    code, out, _ = invoke(["census", "-"], "".join(json.dumps(s) + "\n" for s in specs))
    assert code == 0 and len(out.splitlines()) == len(specs)
    assert counts["wide"] == 0
    random_form = corpus.generate(corpus.GeneratorSpec(kind="random", nvars=5, degree=3, seed=1))
    code, out, _ = invoke(["analyze", str(random_form)])
    assert code == 0 and json.loads(out)["checks"]["fiber_invariance"] == {"status": "pass"}
    assert counts["wide"] == 0

    def fiber_reports(F, A):
        g = algebra.sample_invertible_symmetrizers(F, A, seed=1, count=1)[0]
        wrong = dataclasses.replace(A, basis=A.basis[1:])
        for B in (A, wrong):
            counts.clear()
            report = algebra.fiber_invariance_check(F, g, B)
            assert counts["wide"] == 1
            assert report == oracle_nullspace_fiber_invariance_check(F, g, B)
            assert report.algebra_match is (B is A)

    fallbacks = [
        corpus.generate(corpus.GeneratorSpec(kind="cone", nvars=4, degree=3)),
        polytext.parse_poly("x0*x3^2 + x1*x3*x4 + x2*x4^2"),
        polytext.parse_poly("2*x0*x2*x3 + 2*x1*x3^2"),
    ]
    for F in fallbacks:
        counts.clear()
        A = algebra.symmetrizer_algebra(F)
        assert counts["wide"] == 1
        fiber_reports(F, A)
    # a sketch rank of R^g mod P too low to bound dim g_{F^g} by dim g_F
    A = algebra.symmetrizer_algebra(random_form)
    certified = algebra._pencil_certificates
    monkeypatch.setattr(algebra, "_pencil_certificates", lambda F: certified(F)[:-1] + (0,))
    fiber_reports(random_form, A)


def test_a_census_chunk_reads_g_f_off_the_sketch_mod_p(monkeypatch):
    """Over the 20-spec census chunk of the golden cases, `_pencil_basis`
    makes no exact solve and takes no exact null space: g_F is read off
    the sketch of R mod P, reconstructed and checked, with no exact
    pencil kernel. Wherever certificate A held, `symmetrizer_algebra`
    takes nondegeneracy from it and computes no kernel of ∂F. The bases
    are handed over as their routes built them: the only `PivotBasis`
    eliminations are the radical's Gram-kernel combinations and the
    image of each square-zero class."""
    stdin = next(c["stdin"] for c in GOLDEN_CASES if c["argv"] == ["census", "-"])
    assert len(stdin.splitlines()) == 20
    counts, inside, certified, kernels, accepted = Counter(), [0], [], [], []
    pencil = algebra._pencil_basis

    def counted_pencil(F):
        inside[0] += 1
        try:
            basis = pencil(F)
        finally:
            inside[0] -= 1
        certified.append(basis is not None)
        return basis

    def exact_inside_pencil(name, fn):
        def wrapper(*args):
            counts[name] += inside[0] > 0
            return fn(*args)
        return wrapper

    modular = algebra._modular_pencil_basis

    def counted_modular(F, powers, echelon):
        basis = modular(F, powers, echelon)
        accepted.append(basis is not None)
        return basis

    builders, init = [], linalg.PivotBasis.__init__

    def counted_init(basis, *args, **kwargs):
        builders.append(sys._getframe(1).f_code.co_name)
        init(basis, *args, **kwargs)

    monkeypatch.setattr(algebra, "_pencil_basis", counted_pencil)
    monkeypatch.setattr(algebra, "_modular_pencil_basis", counted_modular)
    monkeypatch.setattr(linalg.PivotBasis, "__init__", counted_init)
    for name in ("solve_matrix", "integer_nullspace", "_exact_pencil_basis"):
        monkeypatch.setattr(algebra, name, exact_inside_pencil(name, getattr(algebra, name)))
    kernel = vars(forms.SymForm)["jacobian_kernel"]
    counted_kernel = functools.cached_property(counting(counts, "kernel", kernel.func))
    counted_kernel.__set_name__(forms.SymForm, "jacobian_kernel")
    monkeypatch.setattr(forms.SymForm, "jacobian_kernel", counted_kernel)
    symmetrizer = corpus.symmetrizer_algebra

    def counted_symmetrizer(F):
        before = counts["kernel"]
        A = symmetrizer(F)
        kernels.append(counts["kernel"] - before)
        return A

    monkeypatch.setattr(corpus, "symmetrizer_algebra", counted_symmetrizer)
    code, out, _ = invoke(["census", "-"], stdin)
    assert code == 0 and len(out.splitlines()) == 20
    assert len(certified) == len(kernels) == 20 and all(certified)
    assert counts["solve_matrix"] == counts["integer_nullspace"] == 0
    assert kernels == [0] * 20
    # every basis past the rank n - 1 shortcut reconstructs mod P
    assert accepted and all(accepted) and counts["_exact_pencil_basis"] == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert Counter(builders) == {
        "_trace_form_radical": sum(r["dim_unipotent"] > 0 for r in records),
        "register": sum(r["square_zero_count"] for r in records),
    }
    assert all(Counter(builders).values())


def test_a_census_chunk_builds_no_span_and_reads_each_table_once(monkeypatch):
    """Over the 20-spec census chunk of the golden cases, membership and
    coordinates are read off canonical bases, so no `Span` is built; each
    form builds its Hessian table once, and `_pencil_certificates` reads
    H, H′ and the sketch's slices in one `_slice_sums` per certified form."""
    stdin = next(c["stdin"] for c in GOLDEN_CASES if c["argv"] == ["census", "-"])
    spans, tables, sums, certified = [], [], [], []
    init = linalg.Span.__init__
    monkeypatch.setattr(
        linalg.Span, "__init__", lambda span, *args: spans.append(args) or init(span, *args)
    )
    table = vars(forms.SymForm)["hessian_table"]

    def counted_table(form):
        tables.append(form)
        return table.func(form)

    counted = functools.cached_property(counted_table)
    counted.__set_name__(forms.SymForm, "hessian_table")
    monkeypatch.setattr(forms.SymForm, "hessian_table", counted)
    slice_sums, certificates = algebra._slice_sums, algebra._pencil_certificates

    def counted_sums(F, weights):
        sums.append(F)
        return slice_sums(F, weights)

    def counted_certificates(F):
        result = certificates(F)
        if result is not None:
            certified.append(F)
        return result

    monkeypatch.setattr(algebra, "_slice_sums", counted_sums)
    monkeypatch.setattr(algebra, "_pencil_certificates", counted_certificates)
    code, out, _ = invoke(["census", "-"], stdin)
    assert code == 0 and len(out.splitlines()) == 20
    assert spans == []
    # the lists hold every form, so no two of them share an id
    assert len(set(map(id, tables))) == len(tables)
    assert len(certified) == 20
    assert sorted(map(id, sums)) == sorted(map(id, certified))


def test_transport_twists_nothing_and_inverts_one_block_per_form(monkeypatch):
    """Over `check_identities` on two nondegenerate forms, every
    `recover_symmetrizer` call reads g off the source's pivot block:
    no `twist` inside it, one inverse of the block per source form, and
    no reduction of a matrix with one row per degree-(d-1) monomial,
    the height of [J_F^T | J_Ft^T]."""
    counts, depth, heights = Counter(), [0], []
    recover = algebra.recover_symmetrizer

    def counted_recover(*args):
        counts["recover"] += 1
        depth[0] += 1
        try:
            return recover(*args)
        finally:
            depth[0] -= 1

    twist = algebra.twist

    def counted_twist(*args, **kwargs):
        counts["twist in recover"] += depth[0] > 0
        return twist(*args, **kwargs)

    echelon = linalg._echelon

    def counted_echelon(rows, ncols):
        if depth[0]:
            heights.append(len(rows))
        return echelon(rows, ncols)

    block = vars(forms.SymForm)["jacobian_pivot_inverse"]
    counted_block = functools.cached_property(counting(counts, "block", block.func))
    counted_block.__set_name__(forms.SymForm, "jacobian_pivot_inverse")
    monkeypatch.setattr(forms.SymForm, "jacobian_pivot_inverse", counted_block)
    monkeypatch.setattr(algebra, "recover_symmetrizer", counted_recover)
    monkeypatch.setattr(algebra, "twist", counted_twist)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    sources = [
        corpus.generate(corpus.GeneratorSpec(kind="random", nvars=4, degree=3, seed=1)),
        polytext.parse_poly("x0^3*x1 + x1^4 + x2^4 - 2*x0^4"),
    ]
    for F in sources:
        results = algebra.check_identities(F, samples=6)
        assert results["twist_roundtrip"].status == "pass"
    assert counts["recover"] == 12
    assert counts["twist in recover"] == 0
    assert counts["block"] == len(sources)
    widths = {forms.monomial_count(F.nvars, F.degree - 1) for F in sources}
    assert heights and widths.isdisjoint(heights)


def test_fiber_membership_is_one_product(monkeypatch):
    """Over `check_identities` on the two forms above and a run of CLI
    transport pairs, `recover_symmetrizer` reduces the n×C(n+d−2, d−1)
    Jacobian of each source form once and that of no target, a
    successful recovery builds no Hessian table for its target, and
    the fiber check reduces no Jacobian. A form caches one
    Hessian table and no echelon form of its Jacobian."""
    assert [name for name in vars(forms.SymForm) if "hessian" in name] == ["hessian_table"]
    assert "jacobian_rref" not in vars(forms.SymForm)
    where, calls, reduced, tables = [], [], [], []

    def inside(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((*args, *kwargs.values()))
            where.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return wrapper

    echelon = linalg._echelon

    def counted_echelon(rows, ncols):
        rows = tuple(map(tuple, rows))
        if where:
            reduced.append((where[-1], rows))
        return echelon(rows, ncols)

    table = vars(forms.SymForm)["hessian_table"]

    def counted_table(form):
        tables.append(form)
        return table.func(form)

    recover = inside("recover", algebra.recover_symmetrizer)
    successes = []

    def counted_recover(F, Ft):
        start = len(tables)
        g = recover(F, Ft)
        successes.append(not any(form is Ft for form in tables[start:]))
        return g

    counted = functools.cached_property(counted_table)
    counted.__set_name__(forms.SymForm, "hessian_table")
    monkeypatch.setattr(forms.SymForm, "hessian_table", counted)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(algebra, "recover_symmetrizer", counted_recover)
    monkeypatch.setattr(cli, "recover_symmetrizer", counted_recover)
    monkeypatch.setattr(
        algebra, "_fiber_invariance_on_basis", inside("fiber", algebra._fiber_invariance_on_basis)
    )
    sources = [
        corpus.generate(corpus.GeneratorSpec(kind="random", nvars=4, degree=3, seed=1)),
        polytext.parse_poly("x0^3*x1 + x1^4 + x2^4 - 2*x0^4"),
    ]
    for F in sources:
        results = algebra.check_identities(F, samples=6)
        assert results["twist_roundtrip"].status == results["fiber_invariance"].status == "pass"
    # recovered pairs, a pair off the fiber and a degenerate target
    pairs = [
        (str(F.nvars), str(F), str(forms.twist(F, g)))
        for F in sources
        for g in algebra.sample_invertible_symmetrizers(F, seed=2, count=2)
    ]
    n, F, _ = pairs[0]
    pairs += [(n, F, F + " + x0^2*x1"), ("3", "x0^3+x1^3+x2^3", "x0^3+x0^2*x1")]
    codes = [invoke(["recover", F, Ft, "--nvars", n])[0] for n, F, Ft in pairs]
    assert codes == [0] * 4 + [4, 3]
    assert successes == [True] * (len(sources) * 6 + 4)
    # every Jacobian of a form that reached transport or the fiber check
    jacobians = {F.jacobian.ints for args in calls for F in args if isinstance(F, forms.SymForm)}
    of_jacobians = lambda at: [rows for w, rows in reduced if w == at and rows in jacobians]
    expected = sources + [polytext.parse_poly(F, int(n)) for n, F, _ in pairs]
    assert of_jacobians("recover") == [F.jacobian.ints for F in expected]
    assert of_jacobians("fiber") == []


@pytest.mark.parametrize("text, nvars", [(t, None) for t in MUTATION_FORMS] + [MUTATION_CONE])
def test_the_fiber_check_runs_on_the_basis(monkeypatch, text, nvars):
    """`check_identities` proves `fiber_invariance` on the basis of g_F:
    no per-sample `fiber_invariance_check`, one `_pencil_certificates`
    on F itself for the algebra bound at g = I, and at most one twisted
    form per basis element and one per round-trip sample."""
    F = polytext.parse_poly(text, nvars)
    A = algebra.symmetrizer_algebra(F)
    counts, certified = Counter(), []
    per_g, certificates, twist = (
        algebra.fiber_invariance_check, algebra._pencil_certificates, algebra.twist
    )

    def counted_per_g(*args, **kwargs):
        counts["per g"] += 1
        return per_g(*args, **kwargs)

    def counted_twist(*args, **kwargs):
        counts["twist"] += 1
        return twist(*args, **kwargs)

    monkeypatch.setattr(algebra, "fiber_invariance_check", counted_per_g)
    monkeypatch.setattr(
        algebra, "_pencil_certificates", lambda G: certified.append(G) or certificates(G)
    )
    monkeypatch.setattr(algebra, "twist", counted_twist)
    samples = 8
    results = algebra.check_identities(F, samples=samples, algebra=A)
    assert results["fiber_invariance"].status == "pass"
    assert counts["per g"] == 0
    # the block algebras of a split form read their own certificates
    assert sum(G is F for G in certified) == 1
    assert counts["twist"] <= A.dim + samples


def test_generate_composes_no_forms(monkeypatch):
    """generate builds cones and direct sums by padding exponent vectors:
    no compose_linear (wherever a module holds it), for every kind,
    integer and fractional nilpotents included. st_decompose, which
    restricts a form to its blocks, still counts."""
    counts = Counter()
    for module in (forms, corpus, algebra):
        if hasattr(module, "compose_linear"):
            monkeypatch.setattr(
                module, "compose_linear", counting(counts, "compose", forms.compose_linear)
            )
    h = "0,0,0,0;1/2,0,0,0;0,-3,0,0;0,0,0,0"
    specs = [
        {"kind": kind, "nvars": n, "degree": d, "seed": seed}
        | ({"blocks": [1, 2, n - 3]} if kind == "st_sum" else {})
        | ({"matrix": h} if kind == "prescribed_nilpotent" else {})
        for kind in corpus.KINDS
        for n, d in ((4, 3), (4, 4))
        for seed in (1, 2)
    ]
    code, out, _ = invoke(["census", "-"], "".join(json.dumps(s) + "\n" for s in specs))
    assert code == 0 and len(out.splitlines()) == len(specs)
    code, st_sum, _ = invoke(["generate", "st_sum", "--nvars", "5", "--degree", "3",
                              "--blocks", "2,3", "--seed", "1"])
    assert code == 0 and counts == Counter()
    algebra.st_decompose(polytext.parse_poly(st_sum))
    assert counts["compose"] > 0


@contextlib.contextmanager
def counting_fractions():
    """Counts every Fraction built while the block runs."""
    counts = Counter()
    original = vars(Fraction)["__new__"]

    def new(cls, *args, **kwargs):
        counts["fraction"] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(new)
    try:
        yield counts
    finally:
        Fraction.__new__ = original


def test_parsing_and_printing_build_no_spare_fractions():
    """parse_poly merges terms on integers and builds one Fraction per
    nonzero monomial of the result: repeats, cancellations, unreduced p/q
    and explicit zeros build none of their own. Printing a report matrix
    reads its integer rows and builds none."""
    text = (
        "1/2*x0^3 + 2/4*x0^3 - 1/3*x0^2*x1 + x0*x1*x0 + 3/9*x0^2*x1"
        " + 5*x1^3 - 10/2*x1^3 + 0*x2^3 + 0/5*x1^3 - 7/6*x1*x2^2*x1^0 + x2^3"
    )
    with counting_fractions() as counts:
        F = polytext.parse_poly(text)
    assert F.coeff_map == {
        (3, 0, 0): 1, (2, 1, 0): 1, (0, 1, 2): Fraction(-7, 6), (0, 0, 3): 1
    }
    assert counts["fraction"] == len(F.terms)
    g = linalg.Matrix(((2, 0, -1), (3, 4, 6), (0, 12, 8)), 12, 3)
    with counting_fractions() as counts:
        printed = cli._matrix(g)
    assert printed == [[str(x) for x in row] for row in g.rows]
    assert printed == [["1/6", "0", "-1/12"], ["1/4", "1/3", "1/2"], ["0", "1", "2/3"]]
    assert counts["fraction"] == 0


# ---------------------------------------------------------------------------
# CLI fuzz: variables x0..x2, degree at most 4, one sampled symmetrizer.

COEFFICIENTS = ["", "2*", "-1*", "1/2*", "0*", "-3/4*"]
SEPARATORS = [" + ", " - ", "+", "-"]


@st.composite
def over_limit_poly_texts(draw):
    """Polynomials whose cost estimate exceeds forms.MAX_CELLS: a
    variable index of at least 199 at degree 3, or one variable of degree
    at least 10^6, each written with a leading coefficient or not."""
    if draw(st.booleans()):
        body = f"x0^2*x{draw(st.integers(199, 10**30))}"
    else:
        body = f"x{draw(st.integers(0, 2))}^{draw(st.integers(10**6, 10**30))}"
    return draw(st.sampled_from(COEFFICIENTS)) + body


@st.composite
def poly_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(over_limit_poly_texts())
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="x012^*+-/ 34$\u0661", max_size=12))
    degree = draw(st.sampled_from([3, 3, 4, 4, 2, 0]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(st.lists(st.integers(0, 2), min_size=degree, max_size=degree))
        factors = "*".join(f"x{i}^{slots.count(i)}" for i in sorted(set(slots)))
        terms.append(draw(st.sampled_from(COEFFICIENTS)) + factors)
    signs = [draw(st.sampled_from(SEPARATORS)) for _ in terms[1:]]
    lead = draw(st.sampled_from(["", "", "-"]))
    return lead + terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(
        ["fermat", "random", "st_sum", "cone", "prescribed_nilpotent"]
    ))
    spec = {
        "kind": kind,
        # 10^6 variables and degree 10^20 are over forms.MAX_CELLS
        "nvars": draw(st.sampled_from([2, 3, 3, -1, 10**6])),
        "degree": draw(st.sampled_from([3, 4, 4, 1, 10**20])),
        "seed": draw(st.integers(-1, 3)),
    }
    if kind == "st_sum" or draw(st.booleans()):
        spec["blocks"] = draw(st.sampled_from(
            [[1, 1], [1, 2], [2, 1], [1, 1, 1], [3], [0, 2], []]
        ))
    if kind == "prescribed_nilpotent" or draw(st.booleans()):
        # entries outside the p or p/q grammar: an exponent, a decimal point
        # and a zero denominator
        spec["matrix"] = draw(st.sampled_from(
            ["0,0;1,0", "0,0,0;1,0,0;0,0,0", "0,0,0;1,0,0;0,1,0", "1,0;0,1", "0,x;1,0", "0",
             "0,0;1e9,0", "0,0;1.5,0", "0,0;1/0,0"]
        ))
    return spec


@st.composite
def invocations(draw):
    """(argv, stdin) for one CLI call."""
    command = draw(st.sampled_from(["analyze", "check", "recover", "generate", "census"]))
    if command in ("analyze", "check"):
        argv = [command, draw(poly_texts()), "--samples", "1"]
        argv += ["--seed", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--nvars", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv.append("--assume-finite-singularities")
        if command == "analyze" and draw(st.booleans()):
            argv.append("--require-nondegenerate")
        return argv, None
    if command == "recover":
        source = draw(poly_texts())
        target = draw(st.one_of(st.just(source), poly_texts(), st.just(source + " + x0^3")))
        return [command, source, target], None
    spec = draw(specs())
    if command == "census":
        lines = [spec] + [draw(specs()) for _ in range(draw(st.integers(0, 1)))]
        return ["census", "-"], "".join(json.dumps(line) + "\n" for line in lines)
    argv = ["generate", spec["kind"], "--nvars", str(spec["nvars"])]
    argv += ["--degree", str(spec["degree"]), "--seed", str(spec["seed"])]
    if "blocks" in spec:
        argv += ["--blocks", ",".join(map(str, spec["blocks"]))]
    if "matrix" in spec:
        argv += ["--matrix", spec["matrix"]]
    return argv, None


def invoke(argv, stdin=None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one call: main's return value or
    argparse's SystemExit code; any other exception escapes and fails the
    test."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@given(invocations())
@settings(deadline=None, max_examples=60)
def test_every_small_invocation_ends_in_a_documented_exit_code(invocation):
    argv, stdin = invocation
    assert invoke(argv, stdin)[0] in EXIT_CODES


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_over_limit_input_is_refused_before_any_work(data):
    command = data.draw(st.sampled_from(["analyze", "check", "recover"]))
    if data.draw(st.booleans()):  # a small polynomial in too many variables
        argv = [command, "x0^3 + x1^3", "--nvars", str(data.draw(st.integers(200, 10**30)))]
    else:
        argv = [command, data.draw(over_limit_poly_texts())]
    if command == "recover":
        argv.insert(2, data.draw(st.one_of(over_limit_poly_texts(), st.just("x0^3 + x1^3"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms.SymForm, "from_coeffs", staticmethod(_refuse_work))
        code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert "exceeds the limit" in err


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started on an over-limit input")


@given(poly_texts().map(lambda text: "-" + text.lstrip("-")))
@settings(deadline=None, max_examples=30)
def test_leading_minus_polynomial_reads_as_after_dashdash(text):
    assert invoke(["analyze", text, "--samples", "1"]) == invoke(
        ["analyze", "--samples", "1", "--", text]
    )


# ---------------------------------------------------------------------------
# Golden outputs

GOLDEN_CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN_CASES)]
)
def test_golden_output(case):
    expected = (case["exit"], case["stdout"], case["stderr"])
    assert invoke(case["argv"], case.get("stdin")) == expected


if __name__ == "__main__":
    for case in GOLDEN_CASES:
        case["exit"], case["stdout"], case["stderr"] = invoke(case["argv"], case.get("stdin"))
    GOLDEN.write_text(json.dumps(GOLDEN_CASES, indent=1) + "\n")
