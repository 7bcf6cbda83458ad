"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload nilpotent --seeds 1-10 [--seconds 10]

For every metric it prints the median and the quartile spread
(Q3 - Q1) / median of the values, with statistics.quantiles(n=4), plus
the share of failed operations of each run.  The run length defaults to
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        print(f"seed {seed}: {json.dumps(result)}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"failed/attempted per run: {', '.join(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:40s} median {med:12.5g}  spread {(q3 - q1) / med:7.4f}")
        else:
            print(f"{name:40s} median {med:12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
