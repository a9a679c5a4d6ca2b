"""Command-line surface.

Subcommands: analyze, recover, check, generate, census. All reports are
JSON with every rational rendered as the string "p" or "p/q" (never a
float), under a versioned "schema" field. Exit codes: 0 success, 2 bad
input, 3 degenerate form where nondegeneracy was required, 4 fiber
mismatch, 5 internal invariant violation (includes failed identity
checks, which are engine bugs by construction), 141 stdout closed before
the output was written (`console_main`; a shell gives 141 to a process
that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Any, Iterable

from .algebra import (
    CheckResult,
    FiberMismatchError,
    NilpotentReport,
    STDecomposition,
    check_identities,
    recover_symmetrizer,
    symmetrizer_algebra,
)
from .corpus import GeneratorError, GeneratorSpec, census, generate
from .forms import (
    DegenerateFormError,
    SizeLimitError,
    check_size,
    jacobian_kernel,
)
from .linalg import InvariantError, Matrix, Vec
from .polytext import ParseError, format_poly, parse_poly

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_FIBER = 4
EXIT_INVARIANT = 5
EXIT_CLOSED_STDOUT = 141

# the most symmetrizers --samples may ask for; the cost is linear in the
# count, and 1000 take 2.4 s and 24 MB on the Fermat cubic in six variables
MAX_SAMPLES = 1000


def _vec(v: Vec) -> list[str]:
    return [str(x) for x in v]


def _ratio(x: int, den: int) -> str:
    """x/den printed as its Fraction prints, "p" or "p/q", without one."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _matrix(m: Matrix) -> list[list[str]]:
    return [[_ratio(x, m.den) for x in row] for row in m.ints]


def _checks(results: dict[str, CheckResult]) -> dict[str, Any]:
    out = {}
    for key, res in results.items():
        status = "skipped" if res.status == "skip" else res.status
        entry: dict[str, Any] = {"status": status}
        if res.detail:
            entry["reason"] = res.detail
        out[key] = entry
    return out


def _st_blocks(dec: STDecomposition | None) -> Any:
    if dec is None:
        return None
    return {
        "k": dec.k,
        "splitting_element": _matrix(dec.splitting_element),
        "blocks": [
            {
                "basis": [_vec(v) for v in blk.basis],
                "form": format_poly(blk.form),
                "factor": str(blk.factor),
            }
            for blk in dec.blocks
        ],
    }


def _nilpotent(rep: NilpotentReport | None) -> Any:
    if rep is None:
        return None
    return {
        "classes": [
            {
                "coefficients": _vec(cl.coefficients),
                "matrix": _matrix(cl.matrix),
                "image_dim": cl.image_dim,
                "image_points": [
                    {"point": _vec(pt.coords), "vanishing_order": order}
                    for pt, order in cl.image_points
                ],
            }
            for cl in rep.classes
        ],
        "max_nilpotency_index": rep.max_nilpotency_index,
        "cube_zero_all": rep.cube_zero_all,
        "search_complete": rep.search_complete,
        "infinite_family": rep.infinite_family,
    }


# a matrix entry: an optional sign, then p or p/q in decimal digits
_MATRIX_ENTRY = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _matrix_entry(text: str) -> Fraction:
    entry = text.strip()
    m = _MATRIX_ENTRY.fullmatch(entry)
    if m is None:
        raise GeneratorError(f"bad matrix entry {entry!r}: expected p or p/q")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # past the interpreter's limit on digits per int
        raise GeneratorError(f"bad matrix entry of {len(entry)} characters: too long") from None
    if den == 0:
        raise GeneratorError(f"bad matrix entry {entry!r}: zero denominator")
    return Fraction(num, den)


def _parse_matrix_arg(text: str, n: int) -> Matrix:
    """Rows separated by ';', entries by ',', each entry an optional sign
    then "p" or "p/q", with spaces allowed around it."""
    rows = [[_matrix_entry(entry) for entry in row.split(",")] for row in text.split(";")]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise GeneratorError(f"matrix must be {n}x{n}")
    return Matrix.from_rows(rows)


def _emit(obj: Any) -> None:
    # one write per report: json.dump would issue one per encoder chunk
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    F = parse_poly(args.poly, args.nvars)
    A = symmetrizer_algebra(F)
    if not A.nondegenerate and args.require_nondegenerate:
        print("input form is degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    dec, rep = A.decomposition, A.nilpotents
    checks = check_identities(
        F,
        seed=args.seed,
        samples=args.samples,
        assume_finite_singular=args.assume_finite_singularities,
        algebra=A,
    )
    report = {
        "schema": SCHEMA,
        "polynomial": format_poly(F),
        "nvars": F.nvars,
        "degree": F.degree,
        "nondegenerate": A.nondegenerate,
        "kernel": None if A.nondegenerate else [_vec(v) for v in jacobian_kernel(F)],
        "dim_g": A.dim_total,
        "dim_torus": A.dim_torus,
        "dim_unipotent": A.dim_unipotent,
        "basis": [_matrix(b) for b in A.basis],
        "st_blocks": _st_blocks(dec),
        "nilpotent": _nilpotent(rep),
        "checks": _checks(checks),
    }
    _emit(report)
    return EXIT_OK


def _cmd_recover(args: argparse.Namespace) -> int:
    F = parse_poly(args.poly_from, args.nvars)
    Ft = parse_poly(args.poly_to, args.nvars if args.nvars else F.nvars)
    g = recover_symmetrizer(F, Ft)
    _emit({"schema": SCHEMA, "matrix": _matrix(g)})
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    F = parse_poly(args.poly, args.nvars)
    results = check_identities(
        F,
        seed=args.seed,
        samples=args.samples,
        assume_finite_singular=args.assume_finite_singularities,
    )
    _emit({"schema": SCHEMA, "polynomial": format_poly(F), "checks": _checks(results)})
    if any(res.status == "fail" for res in results.values()):
        print("identity check failed: engine invariant violated", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _spec_from_args(args: argparse.Namespace) -> GeneratorSpec:
    blocks = None
    if args.blocks:
        try:
            blocks = tuple(int(b) for b in args.blocks.split(","))
        except ValueError:
            raise GeneratorError(f"bad block sizes {args.blocks!r}") from None
    nilpotent = None
    if args.matrix:
        nilpotent = _parse_matrix_arg(args.matrix, args.nvars)
    spec = GeneratorSpec(
        kind=args.kind,
        nvars=args.nvars,
        degree=args.degree,
        seed=args.seed,
        coefficient_bound=args.bound,
        blocks=blocks,
        nilpotent=nilpotent,
    )
    check_size(spec.nvars, spec.degree)
    return spec


def _cmd_generate(args: argparse.Namespace) -> int:
    F = generate(_spec_from_args(args))
    print(format_poly(F))
    return EXIT_OK


def _integer(value, key: str) -> int:
    """int(value) for a spec field that holds an integral JSON number;
    booleans, strings and numbers with a fractional part are refused."""
    integral = type(value) is int or (type(value) is float and value.is_integer())
    if not integral:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _specs_from_jsonl(lines: Iterable[str]) -> Iterable[GeneratorSpec]:
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GeneratorError(f"line {lineno}: bad JSON ({exc})") from None
        if not isinstance(payload, dict) or "kind" not in payload:
            raise GeneratorError(f"line {lineno}: expected an object with a 'kind'")
        try:
            nvars = _integer(payload["nvars"], "nvars")
            nilpotent = None
            if "matrix" in payload:
                if not isinstance(payload["matrix"], str):
                    raise TypeError("'matrix' must be a string")
                nilpotent = _parse_matrix_arg(payload["matrix"], nvars)
            blocks = None
            if "blocks" in payload:
                if not isinstance(payload["blocks"], list):
                    raise TypeError("'blocks' must be a list")
                blocks = tuple(_integer(b, "blocks") for b in payload["blocks"])
            spec = GeneratorSpec(
                kind=payload["kind"],
                nvars=nvars,
                degree=_integer(payload["degree"], "degree"),
                seed=_integer(payload.get("seed", 0), "seed"),
                coefficient_bound=_integer(payload.get("bound", 10), "bound"),
                blocks=blocks,
                nilpotent=nilpotent,
            )
            check_size(spec.nvars, spec.degree)
        except (KeyError, TypeError, ValueError) as exc:
            raise GeneratorError(f"line {lineno}: {exc}") from None
        yield spec


def _cmd_census(args: argparse.Namespace) -> int:
    try:
        if args.specs == "-":
            text = sys.stdin.read()
        else:
            with open(args.specs, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise GeneratorError(f"cannot read {args.specs}: {exc}") from None
    for row in census(_specs_from_jsonl(text.splitlines())):
        sys.stdout.write(json.dumps(row) + "\n")
    return EXIT_OK


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be from 1 to {MAX_SAMPLES}, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmetrizer",
        description="Exact analysis of symmetrizer algebras of symmetric forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--nvars", type=int, default=None, help="variable count override")
        p.add_argument("--seed", type=int, default=0, help="seed for the identity checks")
        p.add_argument(
            "--samples", type=_sample_count, default=8,
            help=f"sampled symmetrizers per check (1 to {MAX_SAMPLES})",
        )
        p.add_argument(
            "--assume-finite-singularities",
            action="store_true",
            help="assert the singular locus is finite, enabling the checks that need it",
        )

    p = sub.add_parser("analyze", help="full report for one form")
    p.add_argument("poly", help="polynomial text, e.g. 'x0^2*x1'")
    common(p)
    p.add_argument(
        "--require-nondegenerate",
        action="store_true",
        help="treat a degenerate input as an error (exit 3)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recover", help="transport element between two forms")
    p.add_argument("poly_from")
    p.add_argument("poly_to")
    p.add_argument("--nvars", type=int, default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("check", help="run the identity suite on one form")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("generate", help="emit one corpus form as text")
    p.add_argument("kind", choices=["fermat", "random", "st_sum", "cone", "prescribed_nilpotent"])
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=10, help="coefficient bound")
    p.add_argument("--blocks", default=None, help="comma-separated sizes for st_sum")
    p.add_argument(
        "--matrix",
        default=None,
        help="nilpotent matrix for prescribed_nilpotent, rows ';'-separated, e.g. '0,0;1,0'",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("census", help="tabulate algebra data over a spec file")
    p.add_argument("specs", help="path to JSON-lines spec file, or '-' for stdin")
    p.set_defaults(func=_cmd_census)
    return parser


# argparse reads a token that starts with '-', holds no space and is not a
# number as an option, so it would refuse a polynomial with a leading minus
# sign, such as '-x0^3+x1^3'. Such a token after analyze, check or recover
# (and before any '--') gets a leading space, which argparse reads as a
# positional; the space comes off again after parsing. Options keep
# working: '-h' and '--...' never match, nor does a negative number.
_LEADING_MINUS = re.compile(r"-[^-h]")
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
_POLY_COMMANDS = ("analyze", "check", "recover")
_POLY_DESTS = ("poly", "poly_from", "poly_to")


def _shield_leading_minus(argv: list[str]) -> tuple[list[str], set[str]]:
    """(argv with each leading-minus polynomial shielded, the shielded tokens)."""
    if not argv or argv[0] not in _POLY_COMMANDS:
        return argv, set()
    out, shielded = argv[:1], set()
    for k, token in enumerate(argv[1:], start=1):
        if token == "--":
            return out + argv[k:], shielded
        if _LEADING_MINUS.match(token) and not _NEGATIVE_NUMBER.match(token):
            token = " " + token
            shielded.add(token)
        out.append(token)
    return out, shielded


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv, shielded = _shield_leading_minus(
        list(sys.argv[1:] if argv is None else argv)
    )
    args = parser.parse_args(argv)
    for dest in _POLY_DESTS:
        if getattr(args, dest, None) in shielded:
            setattr(args, dest, getattr(args, dest)[1:])
    try:
        return args.func(args)
    except (ParseError, GeneratorError, SizeLimitError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateFormError as exc:
        print(f"degenerate form: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FiberMismatchError as exc:
        print(f"fiber mismatch: {exc}", file=sys.stderr)
        return EXIT_FIBER
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the flush
        # at interpreter exit from raising again (the Python docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)
