"""Every workload, every metric, in one command.

    python3 perfbench/report.py                      # seed 1
    python3 perfbench/report.py --seeds 1-10         # spread over ten seeds
    python3 perfbench/report.py --seeds 1-10 --baseline perfbench/baseline.json

For each workload it runs perfbench/run.py once per seed untraced and
prints each end-to-end metric with its unit (median and quartiles when
there are several seeds), then runs the first seed traced and prints the
per-layer table. Runs happen one after another, never side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--baseline", type=Path, help="also write the results to this JSON file")
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": cpu_model()},
        "seconds": seconds, "seeds": args.seeds, "workloads": {},
    }
    print(f"machine: {out['machine']}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            text, result = bench(workload, seed, seconds, 0)
            runs.append(result)
            print(f"[{workload} seed {seed}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if len(args.seeds) == 1:
                print("\n".join(text))
        summary = {}
        print(f"{workload}: end-to-end over {len(runs)} run(s)")
        print(f"  {'metric':<22}{'unit':>6}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'bound':>7}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            print(f"  {name:<22}{unit:>6}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}"
                  f"{spread:>9.3f}{bounds[name]:>7}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {'failed_frac':<22}{'':>6}{failed / attempted:>13.6g}   ({failed} of {attempted} ops)")

        text, traced = bench(workload, args.seeds[0], seconds, 1)
        print("\n".join(text))
        out["workloads"][workload] = {
            "end_to_end": summary,
            "failed_frac": failed / attempted,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "traced_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report": text,
        }
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
