"""Run the benchmark's workloads over several seeds and summarise them.

    python3 bench/repeat.py                          # every workload, seed 0
    python3 bench/repeat.py --seeds 10 --seconds 15  # the stability check
    python3 bench/repeat.py --workloads sweep_bnn --seeds 5 --trace 1

Run from the root of the repository. Each run is bench/run.py in a fresh
interpreter, one after another. Prints every run's metrics by name with
their unit, then per workload and metric the median, the quartiles and the
quartile spread as a share of the median (statistics.quantiles, n=4).
--json PATH also writes the summary, with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_micro", "sweep_bnn", "rat_verify", "lockstep")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out["metrics"][name] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=1,
                        help="runs per workload, seeds 0..n-1")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)

    summary = {"machine": {"nproc": os.cpu_count(),
                           "python": platform.python_version(),
                           "platform": platform.platform()},
               "seconds": args.seconds, "trace": args.trace,
               "seeds": list(range(args.seeds)),
               "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in summary["seeds"]]
        s = summarise(results)
        summary["workloads"][workload] = s
        print(f"== {workload}: {s['runs']} runs, correct {s['correct']}, "
              f"failed {s['failed']}/{s['attempted']}")
        for name, m in s["metrics"].items():
            print(f"   {name:36s} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.4f} {m['unit']}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(s["correct"] for s in summary["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
