"""The three workloads: seeded inputs and known-answer checks.

Each workload turns a seed into a list of CLI calls. A call is one
`symmetrizer.cli.main(argv)` invocation, with optional stdin, and carries
one expectation per op it performs: one per `analyze` form, one per
`recover` pair, one per `census` spec. Expectations come from how the
inputs were built, and `verify` checks outputs against them with the
benchmark's own arithmetic (oracle.py), never the engine's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

# A known engine defect (ROADMAP item 4): st_decompose picks the best of a
# few random combinations, so on the Fermat cubics with n >= 7 it can
# report fewer than n blocks, or hit the degree cap of the factorizer and
# raise UnsupportedDegreeError. The rows that show it are probes: they run
# in the traced pass and their failures are reported there on their own,
# not as failed ops of a workload. A probe failing for any other reason
# makes the run incorrect.
FERMAT_DEFECT_REASONS = frozenset({"st_blocks.k", "exception:UnsupportedDegreeError"})


@dataclass
class Call:
    argv: list[str]
    expect: list[dict]
    stdin: str | None = None
    known_defect: frozenset[str] = field(default_factory=frozenset)
    probe: bool = False

    @property
    def nops(self) -> int:
        return len(self.expect)


def _generate(kind, n, d, seed=0, blocks=None, h=None):
    """Engine-generated corpus form as an oracle polynomial dict."""
    from symmetrizer.corpus import GeneratorSpec, generate
    from symmetrizer.linalg import Matrix

    spec = GeneratorSpec(
        kind=kind, nvars=n, degree=d, seed=seed,
        blocks=tuple(blocks) if blocks else None,
        nilpotent=Matrix.from_rows(h) if h else None,
    )
    return dict(generate(spec).terms)


def square_zero(n: int) -> list[list[int]]:
    """h with h e0 = e1 and h e_i = 0 otherwise."""
    h = [[0] * n for _ in range(n)]
    h[1][0] = 1
    return h


def _matrix_text(h) -> str:
    return ";".join(",".join(str(x) for x in row) for row in h)


def _split(rng: random.Random, n: int) -> list[int]:
    first = rng.randint(1, n - 1)
    return [first, n - first]


def _nonzero(rng: random.Random) -> int:
    return rng.choice([-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9])


# ---------------------------------------------------------------------------
# analyze_grid

# (kind, n, d): every kind, n from 3 to 6, d of 3 and 4. The full product
# does not fit a run (random (6,4) alone takes about 40 s), so the grid
# keeps cells that take well under a second and still covers every kind,
# every n and both degrees. The seed draws only coefficients: the analyze
# --seed is the default and st_sum blocks are balanced, because the two
# moved a cell's cost by up to 40% from seed to seed.
GRID = (
    ("cone", 3, 3), ("fermat", 3, 3), ("random", 3, 3), ("fermat", 3, 4),
    ("prescribed_nilpotent", 3, 3), ("st_sum", 3, 3), ("prescribed_nilpotent", 3, 4),
    ("cone", 4, 4), ("fermat", 4, 3), ("random", 3, 4), ("prescribed_nilpotent", 4, 3),
    ("st_sum", 4, 3), ("cone", 5, 3), ("random", 4, 3), ("cone", 6, 3),
)

# Fermat cubics past the grid, each with the analyze --seed that shows one
# failure mode of the st_decompose defect: 6 blocks at n=7, 7 blocks at
# n=8, UnsupportedDegreeError at n=9. Drawing these seeds from the run
# seed would make the n=9 row last 0.6 s or 8 s depending on the draw.
# They run only in the traced pass, as probes (see FERMAT_DEFECT_REASONS):
# together they take about 10 s, a third of a run, and while they fail
# they have no latency to report.
FERMAT_DEFECT_ROWS = ((7, 1), (8, 1), (9, 2))

ANALYZE_PASSES = 8  # more than a run gets through


def analyze_grid(seed: int) -> list[Call]:
    """The n >= 7 Fermat probes, then ANALYZE_PASSES passes over GRID. Every
    pass has the same cells with fresh coefficients, so a run averages
    over many forms while each pass keeps the same mix."""
    rng = random.Random(seed)
    calls = []
    for n, cli_seed in FERMAT_DEFECT_ROWS:
        poly = {tuple(3 if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}
        exp = {"kind": "fermat", "n": n, "d": 3, "poly": poly}
        argv = ["analyze", oracle.to_text(poly), "--nvars", str(n), "--seed", str(cli_seed)]
        calls.append(Call(argv, [exp], known_defect=FERMAT_DEFECT_REASONS, probe=True))
    for _ in range(ANALYZE_PASSES):
        for kind, n, d in GRID:
            exp = {"kind": kind, "n": n, "d": d}
            if kind == "st_sum":
                exp["blocks"] = [n // 2, n - n // 2]
            if kind == "prescribed_nilpotent":
                exp["h"] = square_zero(n)
            gen_seed = rng.randrange(1 << 16)
            exp["poly"] = _generate(kind, n, d, gen_seed, exp.get("blocks"), exp.get("h"))
            argv = ["analyze", oracle.to_text(exp["poly"]), "--nvars", str(n)]
            calls.append(Call(argv, [exp]))
    return calls


def _verify_analyze(exp: dict, report: dict) -> list[str]:
    bad = []
    n, d, poly = exp["n"], exp["d"], exp["poly"]
    if report.get("nvars") != n or report.get("degree") != d:
        bad.append("shape")
        return bad
    basis = [oracle.matrix_from_json(b) for b in report["basis"]]
    for i, g in enumerate(basis):
        if not oracle.is_symmetrizer(poly, n, d, g):
            bad.append(f"basis[{i}] not a symmetrizer")
    flats = [oracle.flatten(g) for g in basis]
    if not basis or oracle.rank(flats) != len(basis) or len(basis) != report["dim_g"]:
        bad.append("basis rank")
    if n <= 6 and report["dim_g"] != oracle.symmetrizer_dim(poly, n, d):
        bad.append("dim_g")
    for key, res in report["checks"].items():
        if res["status"] == "fail":
            bad.append(f"checks.{key}")
    kind = exp["kind"]
    if kind == "cone":
        silent = [0] * (n - 1) + [1]
        kernel = report.get("kernel") or []
        if report["nondegenerate"] is not False or len(kernel) != 1 or not oracle.in_span(
            [silent], [Fraction(x) for x in kernel[0]]
        ):
            bad.append("cone kernel")
        return bad
    if report["nondegenerate"] is not True:
        bad.append("nondegenerate")
        return bad
    if report["dim_g"] != 1 + report["dim_torus"] + report["dim_unipotent"]:
        bad.append("dim split")
    blocks = report["st_blocks"]
    k = blocks["k"] if blocks else 1
    if kind == "fermat":
        if (report["dim_g"], report["dim_torus"], report["dim_unipotent"]) != (n, n - 1, 0):
            bad.append("fermat dims")
        if k != n:
            bad.append("st_blocks.k")
    elif kind == "st_sum":
        if k < len(exp["blocks"]):
            bad.append("st_blocks.k")
    elif kind == "prescribed_nilpotent":
        h = [[Fraction(x) for x in row] for row in exp["h"]]
        if not oracle.in_span(flats, oracle.flatten(h)):
            bad.append("h not in span")
        if not report["nilpotent"]["classes"]:
            bad.append("no square-zero class")
    return bad


# ---------------------------------------------------------------------------
# census_stream

CENSUS_KINDS = ("random", "st_sum", "fermat", "prescribed_nilpotent")
CENSUS_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (5, 3))
CENSUS_SPECS = 600
# One call holds each kind at each shape once, so a run that stops
# between calls always measures the same mix of specs.
CENSUS_CHUNK = len(CENSUS_KINDS) * len(CENSUS_SHAPES)


def census_stream(seed: int) -> list[Call]:
    """CENSUS_SPECS specs cycling through every kind and shape, fed to
    `census -` in chunks so a run can stop between calls."""
    rng = random.Random(seed)
    lines, exps = [], []
    for i in range(CENSUS_SPECS):
        kind = CENSUS_KINDS[i % len(CENSUS_KINDS)]
        n, d = CENSUS_SHAPES[(i // len(CENSUS_KINDS)) % len(CENSUS_SHAPES)]
        spec = {"kind": kind, "nvars": n, "degree": d, "seed": rng.randrange(1 << 16)}
        if kind == "st_sum":
            spec["blocks"] = _split(rng, n)
        if kind == "prescribed_nilpotent":
            spec["matrix"] = _matrix_text(square_zero(n))
        lines.append(json.dumps(spec))
        exps.append(spec)
    return [
        Call(["census", "-"], exps[i:i + CENSUS_CHUNK],
             stdin="\n".join(lines[i:i + CENSUS_CHUNK]) + "\n")
        for i in range(0, CENSUS_SPECS, CENSUS_CHUNK)
    ]


def _verify_census(spec: dict, rec: dict, brute_dim) -> list[str]:
    base = {k: spec[k] for k in ("kind", "nvars", "degree", "seed")}
    if {k: rec.get(k) for k in base} != base:
        return ["record header"]
    if "skipped" in rec:
        return ["skipped"]
    bad = []
    n, kind = spec["nvars"], spec["kind"]
    dims = (rec["dim_g"], rec["dim_torus"], rec["dim_unipotent"])
    if dims[0] != 1 + dims[1] + dims[2]:
        bad.append("dim split")
    if kind == "fermat":
        if dims != (n, n - 1, 0) or rec["square_zero_count"] != 0:
            bad.append("fermat dims")
    elif kind == "prescribed_nilpotent":
        if dims[2] < 1 or rec["square_zero_count"] < 1:
            bad.append("no square-zero class")
    else:
        if kind == "st_sum" and dims[1] < len(spec["blocks"]) - 1:
            bad.append("st_sum torus")
        if dims[0] != brute_dim(spec):
            bad.append("dim_g")
    return bad


# ---------------------------------------------------------------------------
# transport_pairs

TRANSPORT_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (5, 3))
TRANSPORT_KINDS = ("fermat", "st_sum", "prescribed_nilpotent")
TRANSPORT_BASES = 20  # per kind
PAIRS_PER_BASE = 5  # the last of them lies in another fiber (fermat, st_sum)


def _transport_g(rng, kind, n, blocks):
    if kind == "fermat":
        return [[_nonzero(rng) if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == "st_sum":
        a, b = _nonzero(rng), _nonzero(rng)
        return [[(a if i < blocks[0] else b) if i == j else 0 for j in range(n)]
                for i in range(n)]
    a, b = _nonzero(rng), _nonzero(rng)
    h = square_zero(n)
    return [[a * (i == j) + b * h[i][j] for j in range(n)] for i in range(n)]


def transport_pairs(seed: int) -> list[Call]:
    """Pairs (F, F^g) with g built by hand: diagonal for fermat,
    block-scalar for st_sum, a*I + b*h for prescribed_nilpotent. For
    fermat and st_sum every PAIRS_PER_BASE-th target also gets the term
    c*x0^(d-1)*x_(n-1), whose x0-partial mixes variables no partial of F
    mixes, so the pair lies in different fibers and must exit 4."""
    rng = random.Random(seed)
    calls = []
    for b in range(TRANSPORT_BASES):
        for kind in TRANSPORT_KINDS:
            n, d = TRANSPORT_SHAPES[(b + TRANSPORT_KINDS.index(kind)) % len(TRANSPORT_SHAPES)]
            blocks = _split(rng, n) if kind == "st_sum" else None
            h = square_zero(n) if kind == "prescribed_nilpotent" else None
            F = _generate(kind, n, d, rng.randrange(1 << 16), blocks, h)
            for j in range(PAIRS_PER_BASE):
                g = [[Fraction(x) for x in row] for row in _transport_g(rng, kind, n, blocks)]
                target = oracle.twist(F, n, d, g)
                expect = {"kind": kind, "n": n, "d": d, "g": g}
                if kind != "prescribed_nilpotent" and j == PAIRS_PER_BASE - 1:
                    mono = tuple([d - 1] + [0] * (n - 2) + [1])
                    c = _nonzero(rng)
                    while True:
                        cand = dict(target)
                        oracle.add_term(cand, mono, Fraction(c))
                        if oracle.partials_rank(cand, n, d) == n:
                            break
                        c += 1
                    target = cand
                    expect["g"] = None
                argv = ["recover", oracle.to_text(F), oracle.to_text(target), "--nvars", str(n)]
                calls.append(Call(argv, [expect]))
    return calls


def _verify_recover(exp: dict, rc, out: str) -> list[str]:
    if exp["g"] is None:
        return [] if rc == 4 and out == "" else ["mismatch exit"]
    if rc != 0:
        return ["exit code"]
    got = oracle.matrix_from_json(json.loads(out)["matrix"])
    return [] if got == exp["g"] else ["recovered matrix"]


# ---------------------------------------------------------------------------


class Verifier:
    """Known-answer checks for one workload. The oracle's symmetrizer count
    of a census spec is kept, because every pass repeats the same specs."""

    def __init__(self, workload: str):
        self.workload = workload
        self._dims: dict = {}

    def _brute_dim(self, spec: dict) -> int:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._dims:
            n, d = spec["nvars"], spec["degree"]
            poly = _generate(spec["kind"], n, d, spec["seed"], spec.get("blocks"))
            self._dims[key] = oracle.symmetrizer_dim(poly, n, d)
        return self._dims[key]

    def verify(self, call: Call, out: str, rc, exc: str | None) -> list[list[str]]:
        """Failure reasons for each op of the call; empty means correct."""
        if self.workload == "census_stream":
            lines = out.splitlines()
            result = []
            for i, spec in enumerate(call.expect):
                if i >= len(lines):
                    result.append([f"exception:{exc}" if exc else "no record"])
                    continue
                try:
                    rec = json.loads(lines[i])
                except ValueError:
                    result.append(["not json"])
                    continue
                result.append(_verify_census(spec, rec, self._brute_dim))
            if exc is None and rc != 0:
                result = [r + ["exit code"] for r in result]
            return result
        if exc is not None:
            return [[f"exception:{exc}"]]
        if self.workload == "transport_pairs":
            try:
                return [_verify_recover(call.expect[0], rc, out)]
            except (ValueError, KeyError, TypeError):
                return [["malformed output"]]
        if rc != 0:
            return [["exit code"]]
        try:
            return [_verify_analyze(call.expect[0], json.loads(out))]
        except (ValueError, KeyError, TypeError, IndexError):
            return [["malformed report"]]


# Calls per pass, for workloads whose runs stop only between whole passes:
# stopping mid-pass would change the mix of inputs a run measures, and
# with it every metric. An analyze pass is the grid (an op takes up to
# about a second); a transport pass is every kind at every shape once.
# The traced pass is the probes plus the first pass.
PASS_CALLS = {
    "analyze_grid": len(GRID),
    "transport_pairs": len(TRANSPORT_SHAPES) * len(TRANSPORT_KINDS) * PAIRS_PER_BASE,
}

WORKLOADS = {
    "analyze_grid": analyze_grid,
    "census_stream": census_stream,
    "transport_pairs": transport_pairs,
}
