"""Command-line contract: report shapes, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import MUTATION_FORMS, off_by_one_twist
from symmetrizer import algebra, cli, corpus, forms
from symmetrizer.algebra import constraint_matrix
from symmetrizer.forms import MAX_CELLS, cost_estimate
from symmetrizer.polytext import parse_poly

RATIONAL = re.compile(r"-?\d+(/\d+)?")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def assert_no_floats(obj):
    assert not isinstance(obj, float), f"float leaked into report: {obj!r}"
    if isinstance(obj, dict):
        for v in obj.values():
            assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_floats(v)


class TestAnalyze:
    def test_square_zero_worked_example(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "x0^2*x1")
        assert code == 0
        assert report["schema"] == 1
        assert report["polynomial"] == "x0^2*x1"
        assert (report["nvars"], report["degree"]) == (2, 3)
        assert report["nondegenerate"] is True
        assert report["kernel"] is None
        assert (report["dim_g"], report["dim_torus"], report["dim_unipotent"]) == (2, 0, 1)
        classes = report["nilpotent"]["classes"]
        assert len(classes) == 1
        assert classes[0]["matrix"] == [["0", "0"], ["1", "0"]]
        assert classes[0]["image_points"] == [
            {"point": ["0", "1"], "vanishing_order": 2}
        ]
        assert report["st_blocks"] is None

    def test_fermat_reports_split_blocks(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "x0^3 + x1^3 + x2^3")
        assert code == 0
        assert report["dim_g"] == 3
        assert report["st_blocks"]["k"] == 3
        assert len(report["st_blocks"]["blocks"]) == 3
        assert all(
            check["status"] in ("pass", "skipped")
            for check in report["checks"].values()
        )

    def test_degenerate_is_reported_not_fatal(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "x0^3", "--nvars", "2")
        assert code == 0
        assert report["nondegenerate"] is False
        assert report["kernel"] == [["0", "1"]]
        assert report["st_blocks"] is None and report["nilpotent"] is None

    def test_degenerate_can_be_required_away(self, capsys):
        code, out, err = run(
            capsys, "analyze", "x0^3", "--nvars", "2", "--require-nondegenerate"
        )
        assert code == 3
        assert out == ""
        assert "degenerate" in err

    def test_reports_never_contain_floats(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "x0^2*x2 + x0*x1^2")
        assert code == 0
        assert_no_floats(report)
        for mat in report["basis"]:
            for row in mat:
                for entry in row:
                    assert RATIONAL.fullmatch(entry)

    @pytest.mark.parametrize("n, seed", [(7, "1"), (8, "1"), (9, "2")])
    def test_fermat_blocks_do_not_depend_on_the_seed(self, capsys, n, seed):
        poly = " + ".join(f"x{i}^3" for i in range(n))
        code, report, _ = run_json(capsys, "analyze", poly, "--nvars", str(n), "--seed", seed)
        assert code == 0
        assert report["st_blocks"]["k"] == n
        _, at_zero, _ = run_json(capsys, "analyze", poly, "--nvars", str(n), "--seed", "0")
        assert report["st_blocks"] == at_zero["st_blocks"]

    def test_decomposition_and_nilpotents_computed_once(self, capsys, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("st_decompose", "nilpotent_report"):
            monkeypatch.setattr(algebra, name, counted(getattr(algebra, name)))
        code, _, _ = run(capsys, "analyze", "x0^3 + x1^3 + x2^3")
        assert code == 0
        assert sorted(calls) == ["nilpotent_report", "st_decompose"]

    def test_no_state_carries_between_calls(self, capsys):
        poly = "x0^3 + x1^3 + x2^3"
        assert run(capsys, "analyze", poly, "--seed", "3", "--samples", "2")[0] == 0
        assert run(capsys, "recover", "x0^2*x1", "x0^2*x1 + x0^3")[0] == 0
        later = run(capsys, "analyze", poly)
        reused = cli._build_parser().parse_args(["analyze", poly])
        assert reused == cli._build_parser.__wrapped__().parse_args(["analyze", poly])
        cli._build_parser.cache_clear()
        assert run(capsys, "analyze", poly) == later

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "x0^2 + x1^3")
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")


class TestRecover:
    def test_worked_shear(self, capsys):
        code, report, _ = run_json(capsys, "recover", "x0^2*x1", "x0^2*x1 + x0^3")
        assert code == 0
        assert report == {"schema": 1, "matrix": [["1", "0"], ["3", "1"]]}

    def test_self_recovery_is_identity(self, capsys):
        code, report, _ = run_json(capsys, "recover", "x0^2*x1", "x0^2*x1")
        assert code == 0
        assert report["matrix"] == [["1", "0"], ["0", "1"]]

    def test_distinct_fibers_exit_4(self, capsys):
        code, out, err = run(capsys, "recover", "x0^2*x1", "x0^3 + x1^3")
        assert code == 4
        assert out == ""
        assert err.startswith("fiber mismatch:")

    def test_mismatched_variable_counts_exit_2(self, capsys):
        code, _, err = run(capsys, "recover", "x0^2*x1", "x0^3 + x2^3")
        assert code == 2
        assert "input error" in err

    def test_mismatched_degrees_exit_4(self, capsys):
        code, out, err = run(capsys, "recover", "x0^3", "x0^4")
        assert code == 4
        assert out == ""
        assert err.startswith("fiber mismatch:")


class TestCheck:
    @pytest.mark.parametrize("poly", ["x0^2*x1", "x0^2*x2 + x0*x1^2"])
    def test_identity_suite_passes(self, capsys, poly):
        code, report, _ = run_json(capsys, "check", poly, "--samples", "4")
        assert code == 0
        assert report["schema"] == 1
        assert all(
            c["status"] in ("pass", "skipped") for c in report["checks"].values()
        )

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("poly", MUTATION_FORMS)
    def test_a_wrong_twist_exits_5_with_its_report(self, capsys, monkeypatch, poly, position):
        monkeypatch.setattr(algebra, "twist", off_by_one_twist(position))
        code, report, err = run_json(capsys, "check", poly)
        assert code == 5
        assert report["checks"]["fiber_invariance"]["status"] == "fail"
        assert report["checks"]["twist_roundtrip"]["status"] == "fail"
        assert err == "identity check failed: engine invariant violated\n"

    def test_degenerate_input_checks_with_skips(self, capsys):
        code, report, _ = run_json(capsys, "check", "x0^3", "--nvars", "2")
        assert code == 0
        skipped = [c for c in report["checks"].values() if c["status"] == "skipped"]
        assert skipped
        assert all("reason" in c for c in skipped)

    def test_finiteness_flag_unlocks_more_checks(self, capsys):
        _, plain, _ = run_json(capsys, "check", "x0^2*x1", "--samples", "4")
        _, flagged, _ = run_json(
            capsys,
            "check",
            "x0^2*x1",
            "--samples",
            "4",
            "--assume-finite-singularities",
        )
        count = lambda rep: sum(
            1 for c in rep["checks"].values() if c["status"] == "pass"
        )
        assert count(flagged) > count(plain)


class TestGenerate:
    def test_fermat_text(self, capsys):
        code, out, _ = run(capsys, "generate", "fermat", "--nvars", "3", "--degree", "3")
        assert code == 0
        assert out == "x0^3 + x1^3 + x2^3\n"

    def test_seeded_generation_is_reproducible(self, capsys):
        argv = ("generate", "random", "--nvars", "3", "--degree", "3", "--seed", "1")
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_st_sum_needs_blocks(self, capsys):
        code, _, err = run(
            capsys, "generate", "st_sum", "--nvars", "4", "--degree", "3"
        )
        assert code == 2
        assert "input error" in err

    def test_bad_block_list_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "generate", "st_sum",
            "--nvars", "4", "--degree", "3", "--blocks", "2,x",
        )
        assert code == 2
        assert "bad block sizes" in err

    def test_prescribed_matrix_argument(self, capsys):
        code, out, _ = run(
            capsys,
            "generate", "prescribed_nilpotent",
            "--nvars", "2", "--degree", "3", "--matrix", "0,0;1,0",
        )
        assert code == 0
        assert "x0" in out

    def test_bad_matrix_entry_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "generate", "prescribed_nilpotent",
            "--nvars", "2", "--degree", "3", "--matrix", "0,q;1,0",
        )
        assert code == 2
        assert "bad matrix entry" in err

    @pytest.mark.parametrize("entry, reason", [
        ("1e9", "'1e9': expected p or p/q"),
        ("1.5", "'1.5': expected p or p/q"),
        ("1e1000000000", "'1e1000000000': expected p or p/q"),
        ("1/0", "'1/0': zero denominator"),
        ("9" * 5000, "of 5000 characters: too long"),
    ], ids=["exponent", "decimal-point", "huge-exponent", "zero-denominator", "5000-digits"])
    def test_entry_outside_the_rational_grammar_exits_2_at_once(
        self, capsys, tmp_path, entry, reason
    ):
        # the time bound catches a number built from the entry before it
        # is checked: Fraction("1e1000000000") runs for hours
        matrix = f"0,0;{entry},0"
        census_line = json.dumps(
            {"kind": "prescribed_nilpotent", "nvars": 2, "degree": 3, "matrix": matrix}
        )
        path = tmp_path / "specs.jsonl"
        path.write_text(census_line + "\n")
        for argv in (
            ["generate", "prescribed_nilpotent", "--nvars", "2", "--degree", "3",
             "--matrix", matrix],
            ["census", str(path)],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert f"bad matrix entry {reason}" in err


class TestCensus:
    def spec_lines(self, seeds):
        return [
            json.dumps({"kind": "random", "nvars": 3, "degree": 3, "seed": s})
            for s in seeds
        ]

    def test_ten_rows_in_order(self, capsys, tmp_path):
        path = tmp_path / "specs.jsonl"
        path.write_text("\n".join(self.spec_lines(range(10))) + "\n")
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 10
        assert [r["seed"] for r in rows] == list(range(10))
        for r in rows:
            assert ("dim_g" in r) or ("skipped" in r)
            assert_no_floats(r)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(self.spec_lines([4])) + "\n")
        )
        code, out, _ = run(capsys, "census", "-")
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["seed"] == 4

    def test_bad_json_line_is_located(self, capsys, tmp_path):
        path = tmp_path / "specs.jsonl"
        path.write_text(self.spec_lines([0])[0] + "\nnot json\n")
        code, _, err = run(capsys, "census", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "random", "nvars": "abc", "degree": 3, "seed": 1},
            {"kind": "random", "nvars": 3, "degree": 3, "seed": "x"},
            {"kind": "prescribed_nilpotent", "nvars": "abc", "degree": 3,
             "matrix": "0,0;1,0"},
            {"kind": "prescribed_nilpotent", "nvars": 2, "degree": 3, "matrix": 5},
        ],
    )
    def test_bad_numeric_field_aborts_with_exit_2(self, capsys, tmp_path, bad):
        path = tmp_path / "specs.jsonl"
        path.write_text(self.spec_lines([0])[0] + "\n" + json.dumps(bad) + "\n")
        code, out, err = run(capsys, "census", str(path))
        assert code == 2
        assert err.startswith("input error: line 2:")
        # rows before the bad line were already written
        assert [json.loads(line)["seed"] for line in out.splitlines()] == [0]

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"kind": "random", "nvars": 3, "degree": 3, "seed": 1.7}, "'seed'"),
            ({"kind": "random", "nvars": 2.9, "degree": 3, "seed": 1}, "'nvars'"),
            ({"kind": "st_sum", "nvars": 3, "degree": 3, "blocks": [1.5, 1.5]},
             "'blocks'"),
        ],
    )
    def test_fractional_integer_field_aborts_with_exit_2(
        self, capsys, tmp_path, bad, field
    ):
        path = tmp_path / "specs.jsonl"
        path.write_text(self.spec_lines([0])[0] + "\n" + json.dumps(bad) + "\n")
        code, out, err = run(capsys, "census", str(path))
        assert code == 2
        assert err.startswith("input error: line 2:")
        assert field in err
        assert [json.loads(line)["seed"] for line in out.splitlines()] == [0]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"kind": "fermat", "nvars": 3, "degree": 3, "seed": True},
             "'seed' must be an integer, got True"),
            ({"kind": "fermat", "nvars": "3", "degree": 3, "seed": 1},
             "'nvars' must be an integer, got '3'"),
            ({"kind": "fermat", "nvars": 3, "degree": "3.0", "seed": 1},
             "'degree' must be an integer, got '3.0'"),
            ({"kind": "random", "nvars": 3, "degree": 3, "seed": 1, "bound": False},
             "'bound' must be an integer, got False"),
            ({"kind": "st_sum", "nvars": 3, "degree": 3, "blocks": [True, 2]},
             "'blocks' must be an integer, got True"),
        ],
    )
    def test_boolean_or_string_integer_field_aborts_with_exit_2(
        self, capsys, tmp_path, bad, message
    ):
        # bool is an int subclass and int("3") parses: neither may slip through
        path = tmp_path / "specs.jsonl"
        path.write_text(self.spec_lines([0])[0] + "\n" + json.dumps(bad) + "\n")
        code, out, err = run(capsys, "census", str(path))
        assert code == 2
        assert err == f"input error: line 2: {message}\n"
        assert [json.loads(line)["seed"] for line in out.splitlines()] == [0]

    def test_integral_float_fields_still_run(self, capsys, tmp_path):
        path = tmp_path / "specs.jsonl"
        path.write_text(
            json.dumps({"kind": "st_sum", "nvars": 3.0, "degree": 3, "seed": 2.0,
                        "blocks": [1.0, 2.0]}) + "\n"
        )
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert (row["nvars"], row["seed"]) == (3, 2)
        assert_no_floats(row)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "census", str(tmp_path / "absent.jsonl"))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
    def test_unreadable_file_exits_2(self, capsys, tmp_path, unreadable):
        path = tmp_path
        if unreadable == "not_utf8":
            path = tmp_path / "specs.jsonl"
            path.write_bytes(self.spec_lines([0])[0].encode() + b"\n\xff\xfe\n")
        code, out, err = run(capsys, "census", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    def test_stdin_not_utf8_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8"))
        code, out, err = run(capsys, "census", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")


class TestSizeGuard:
    """A form whose estimated cost exceeds forms.MAX_CELLS is refused with
    exit 2 at the parse or spec boundary, before any coefficient is stored."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an over-limit input")

        monkeypatch.setattr(forms.SymForm, "from_coeffs", staticmethod(refuse))
        monkeypatch.setattr(corpus, "generate", refuse)

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "x0^99999999999999999999"],
         "n = 1, d = 99999999999999999999: estimated cost 6.70e+21 cells"),
        (["analyze", "x9^60"], "n = 10, d = 60: estimated cost 1.92e+14 cells"),
        (["check", "x0^3", "--nvars", "200"], "n = 200, d = 3: estimated cost 1.59e+11 cells"),
        (["recover", "x99999^3", "x0^3 + x1^3"], "n = 100000, d = 3: estimated cost"),
        (["generate", "fermat", "--nvars", "1000000", "--degree", "3"],
         "n = 1000000, d = 3: estimated cost 5.00e+29 cells"),
    ])
    def test_over_the_limit_exits_2_with_the_estimate(self, capsys, no_work, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {message}")
        assert "exceeds the limit" in err

    def test_census_refuses_the_line_after_the_earlier_records(self, capsys, monkeypatch):
        lines = [
            {"kind": "fermat", "nvars": 2, "degree": 3},
            {"kind": "fermat", "nvars": 2, "degree": 10**20},
            {"kind": "fermat", "nvars": 3, "degree": 3},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(x) + "\n" for x in lines)))
        code, out, err = run(capsys, "census", "-")
        assert code == 2
        assert [json.loads(row)["nvars"] for row in out.splitlines()] == [2]
        assert err.startswith("input error: line 2: n = 2, d = 100000000000000000000: estimated")

    def test_the_limit_is_inclusive(self, capsys, monkeypatch):
        # x0^3 + x1^3 costs 14 cells
        monkeypatch.setattr(forms, "MAX_CELLS", 14)
        assert run(capsys, "analyze", "x0^3 + x1^3")[0] == 0
        monkeypatch.setattr(forms, "MAX_CELLS", 13)
        code, _, err = run(capsys, "analyze", "x0^3 + x1^3")
        assert code == 2
        assert err == "input error: n = 2, d = 3: estimated cost 14 cells exceeds the limit 13\n"

    def test_an_overlong_number_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "analyze", "x0^" + "9" * 5000)
        assert code == 2
        assert err == "input error: number of 5000 digits is too long (at position 3)\n"

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (3, 4), (4, 3), (2, 5), (5, 4)])
    def test_the_estimate_counts_the_constraint_cells(self, n, d):
        M = constraint_matrix(parse_poly(f"x{n - 1}^{d}", n))
        assert cost_estimate(n, d) == M.nrows * M.ncols + d * d.bit_length()

    def test_every_benchmark_shape_is_far_under_the_default(self):
        # the largest benchmark input is the Fermat probe at n = 9, d = 3
        assert cost_estimate(9, 3) == 26250
        assert 30 * cost_estimate(9, 3) < MAX_CELLS


class TestArgumentErrors:
    def test_unknown_command_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "check"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_an_argparse_error(self, capsys, command, samples):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "x0^3+x1^3+x2^3", "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_samples_above_the_cap_is_refused_before_any_work(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "parse_poly", lambda *args: pytest.fail("work started"))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "x0^3+x1^3", "--samples", str(cli.MAX_SAMPLES + 1)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be from 1 to {cli.MAX_SAMPLES}" in captured.err


class TestClosedStdout:
    """The reader of stdout is gone before the command writes."""

    @pytest.mark.parametrize("argv", [["analyze", "x0^2*x1"], ["census", "-"]])
    def test_exits_with_one_code_and_no_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "symmetrizer", *argv],
                input=b'{"kind": "fermat", "nvars": 3, "degree": 3}\n',
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_STDOUT, b"")


class TestLeadingMinus:
    """A polynomial may begin with '-' and hold no space; argparse alone
    would read it as an unknown option."""

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_runs_like_the_dashdash_form(self, capsys, command):
        poly = "-x0^3+x1^3"
        direct = run(capsys, command, poly, "--samples", "2")
        assert direct[0] == 0
        assert json.loads(direct[1])["polynomial"] == "-1*x0^3 + x1^3"
        assert direct == run(capsys, command, "--samples", "2", "--", poly)
        assert direct == run(capsys, command, "-x0^3 + x1^3", "--samples", "2")

    def test_recover_takes_two(self, capsys):
        code, out, _ = run_json(capsys, "recover", "-x0^3+x1^3", "-8*x0^3+x1^3")
        assert code == 0
        assert out["matrix"] == [["8", "0"], ["0", "1"]]

    def test_coefficients_and_option_values(self, capsys):
        code, report, _ = run_json(
            capsys, "analyze", "-1/2*x0^3+x1^3", "--seed", "-3", "--nvars", "3"
        )
        assert code == 0
        assert (report["polynomial"], report["nvars"]) == ("-1/2*x0^3 + x1^3", 3)

    def test_parse_error_positions_refer_to_the_text_given(self, capsys):
        code, out, err = run(capsys, "analyze", "-2x")
        assert (code, out) == (2, "")
        assert err == "input error: unexpected character 'x' (at position 2)\n"

    def test_help_still_works(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: symmetrizer analyze")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "x0^3+x1^3", "--bogus"], "unrecognized arguments: --bogus"),
            (["check", "-x0^3", "-x1^3"], "unrecognized arguments:  -x1^3"),
            (["generate", "-x0^3"], "the following arguments are required"),
        ],
    )
    def test_argparse_errors_remain(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
