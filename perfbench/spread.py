"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sweep_past_bounds --seeds 1-10 [--out FILE]
    python3 perfbench/spread.py --workload bulk_peel_cli sweep_past_bounds --seeds 1 --repeat 10

Runs ``perfbench/run.py --trace 0`` once per seed and repetition, one run at
a time; with several workloads the runs alternate between them.  For each
workload and end-to-end metric it prints the median, the quartiles and the
quartile spread (Q3 - Q1) / median, next to the bound in BENCHMARK.json.
Many seeds measure what a change is judged against; one seed repeated
measures the machine alone, because every run gets the same inputs.
``--out`` writes the per-run results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float], bound) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in args.workload}
    for seed in args.seeds:
        for _ in range(args.repeat):
            for workload in args.workload:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=900, check=True)
                wall = time.perf_counter() - start
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs[workload].append({"seed": seed, "wall_s": wall, **result})
                print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "repeat": args.repeat, "workloads": {}}
    for workload, wruns in runs.items():
        summary = {name: summarize([r["metrics"][name]["value"] for r in wruns],
                                   bounds.get(name))
                   for name in wruns[0]["metrics"]}
        report["workloads"][workload] = {"runs": wruns, "summary": summary}
        print(workload)
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f"  bound {s['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["correct"] for wruns in runs.values() for r in wruns) else 1


if __name__ == "__main__":
    sys.exit(main())
