"""The benchmark's own tests.

    python3 perfbench/test_bench.py

They check that a seed fixes the inputs byte for byte, that tampered
outputs are counted as failed ops, that the traced pass leaves every
op's stdout unchanged, that the timed loop stops only between passes and
scales every call, and that the benchmark refuses to run without the
engine's sources. A few seconds on one core.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
CLI = run.load_engine()


def serialize(calls) -> bytes:
    return repr([(c.argv, c.stdin, c.expect, sorted(c.known_defect), c.probe)
                 for c in calls]).encode()


def first_results(calls):
    return run.run_calls(CLI, calls)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, make_inputs in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(serialize(make_inputs(7)), serialize(make_inputs(7)))
                self.assertNotEqual(serialize(make_inputs(7)), serialize(make_inputs(8)))


class NegativeControl(unittest.TestCase):
    """Outputs edited after the fact must be counted as failed ops."""

    def assert_counted_failed(self, workload, call, out, rc=0, exc=None):
        verifier = workloads.Verifier(workload)
        result = (call, 0.0, 1.0, out, [1.0] * call.nops, rc, exc)
        _, attempted, failed, unexpected, _ = run.score([result], verifier)
        self.assertEqual(attempted, call.nops)
        self.assertGreaterEqual(failed, 1)
        self.assertTrue(unexpected)

    def test_analyze_tampering(self):
        call = next(c for c in workloads.analyze_grid(3)
                    if not c.probe and c.expect[0]["kind"] == "fermat")
        (res,) = first_results([call])
        out = res[3]
        verifier = workloads.Verifier("analyze_grid")
        self.assertEqual(verifier.verify(call, out, res[5], res[6]), [[]])

        report = json.loads(out)
        wrong_k = copy.deepcopy(report)
        wrong_k["st_blocks"]["k"] -= 1
        self.assert_counted_failed("analyze_grid", call, json.dumps(wrong_k))

        not_sym = copy.deepcopy(report)
        n = report["nvars"]
        not_sym["basis"][-1] = [["1" if (i, j) == (0, 1) else "0" for j in range(n)]
                                for i in range(n)]
        self.assert_counted_failed("analyze_grid", call, json.dumps(not_sym))
        self.assert_counted_failed("analyze_grid", call, out, rc=None, exc="RuntimeError")

    def test_recover_tampering(self):
        calls = workloads.transport_pairs(3)
        matched = next(c for c in calls if c.expect[0]["g"] is not None)
        mismatched = next(c for c in calls if c.expect[0]["g"] is None)
        res = first_results([matched, mismatched])
        verifier = workloads.Verifier("transport_pairs")
        for call, _, _, out, _, rc, exc in res:
            self.assertEqual(verifier.verify(call, out, rc, exc), [[]])
        self.assertEqual(res[1][5], 4)

        payload = json.loads(res[0][3])
        payload["matrix"][0][0] = str(Fraction(payload["matrix"][0][0]) + 1)
        self.assert_counted_failed("transport_pairs", matched, json.dumps(payload))
        self.assert_counted_failed("transport_pairs", mismatched, res[0][3], rc=0)

    def test_census_tampering(self):
        call = workloads.census_stream(3)[0]
        (res,) = first_results([call])
        lines = res[3].splitlines()
        rec = json.loads(lines[0])
        rec["dim_g"] += 1
        tampered = "\n".join([json.dumps(rec)] + lines[1:]) + "\n"
        self.assert_counted_failed("census_stream", call, tampered)
        truncated = "\n".join(lines[:3]) + "\n"
        self.assert_counted_failed("census_stream", call, truncated, rc=None, exc="ValueError")


class TracedPass(unittest.TestCase):
    def test_stdout_unchanged_and_originals_restored(self):
        calls = ([c for c in workloads.analyze_grid(5) if not c.probe][:3]
                 + workloads.census_stream(5)[:1]
                 + workloads.transport_pairs(5)[:10])
        before = {name: vars(mod).copy() for name, mod in sys.modules.items()
                  if name.startswith("symmetrizer.")}
        tracer = Tracer()
        plain, traced = run.paired_pass(CLI, calls, tracer)
        for a, b in zip(plain, traced):
            self.assertEqual((a[3], a[5], a[6]), (b[3], b[5], b[6]), a[0].argv[:2])
        self.assertGreater(len(tracer.start), 0)
        table = {row["layer"]: row for row in tracer.layer_table(1.0)}
        self.assertEqual(table["cli.main"]["calls"], len(calls))
        self.assertEqual(table["corpus.census"]["calls"], 1)
        for name, namespace in before.items():
            self.assertEqual(vars(sys.modules[name]), namespace, name)


class TimedLoop(unittest.TestCase):
    def test_stops_between_passes_and_scales_every_call(self):
        calls = workloads.transport_pairs(5)
        per_pass = workloads.PASS_CALLS["transport_pairs"]
        results, scales, wall = run.timed_loop(CLI, calls, 0.2, per_pass)
        self.assertEqual(len(results) % per_pass, 0)
        self.assertEqual(len(scales), len(results))
        self.assertTrue(all(k > 0 for k in scales))
        self.assertGreater(wall, 0)


class NeedsSources(unittest.TestCase):
    def test_refuses_without_src(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census_stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
