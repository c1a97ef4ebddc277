#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload ladder --seeds 1 2 3 4 5 [--trace 0]
        [--out results.json]

For every metric: the median of the runs, the quartiles
(statistics.quantiles(values, n=4)), and the spread, (q3 - q1) / median.
For an end-to-end metric the spread is compared with its bound from
BENCHMARK.json; a steady benchmark keeps it below a third of the bound.
Runs one seed at a time, with run_seconds from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the summary as JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if k in bounds), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
               "attempted": [r["attempted"] for r in runs],
               "failed": [r["failed"] for r in runs],
               "correct": [r["correct"] for r in runs], "metrics": {}}
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary["metrics"][name] = s
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
        print(f"{name:<36} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.4f} {bound if bound is not None else '':>6} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
