"""Tooling contracts: every layer the benchmark's traced pass rebinds
exists on the engine, and no small command line ends outside the
documented exit codes."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetrizer import cli

EXIT_CODES = {0, 2, 3, 4, 5}


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


# ---------------------------------------------------------------------------
# CLI fuzz: variables x0..x2, degree at most 4, one sampled symmetrizer.

COEFFICIENTS = ["", "2*", "-1*", "1/2*", "0*", "-3/4*"]


@st.composite
def poly_texts(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="x012^*+-/ 34", max_size=12))
    degree = draw(st.sampled_from([3, 3, 4, 4, 2, 0]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(st.lists(st.integers(0, 2), min_size=degree, max_size=degree))
        factors = "*".join(f"x{i}^{slots.count(i)}" for i in sorted(set(slots)))
        terms.append(draw(st.sampled_from(COEFFICIENTS)) + factors)
    signs = [draw(st.sampled_from([" + ", " - "])) for _ in terms[1:]]
    return terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(
        ["fermat", "random", "st_sum", "cone", "prescribed_nilpotent"]
    ))
    spec = {
        "kind": kind,
        "nvars": draw(st.sampled_from([2, 3, 3, -1])),
        "degree": draw(st.sampled_from([3, 4, 4, 1])),
        "seed": draw(st.integers(-1, 3)),
    }
    if kind == "st_sum" or draw(st.booleans()):
        spec["blocks"] = draw(st.sampled_from(
            [[1, 1], [1, 2], [2, 1], [1, 1, 1], [3], [0, 2], []]
        ))
    if kind == "prescribed_nilpotent" or draw(st.booleans()):
        spec["matrix"] = draw(st.sampled_from(
            ["0,0;1,0", "0,0,0;1,0,0;0,0,0", "0,0,0;1,0,0;0,1,0", "1,0;0,1", "0,x;1,0", "0"]
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


def exit_code(argv, stdin) -> int:
    """main's return value or argparse's SystemExit code; any other
    exception escapes and fails the test."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code
    finally:
        sys.stdin = saved


@given(invocations())
@settings(deadline=None, max_examples=60)
def test_every_small_invocation_ends_in_a_documented_exit_code(invocation):
    argv, stdin = invocation
    assert exit_code(argv, stdin) in EXIT_CODES
