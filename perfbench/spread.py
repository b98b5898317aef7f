#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --workload cascade --seeds 10 [--first-seed 0]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric the median and the distance between the first and
third quartiles (``statistics.quantiles(n=4)``) as a share of the
median, next to the metric's bound. Exits nonzero if a run fails, if
the share of failed operations differs between runs, or if a spread
other than that of ``setup_s`` exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)

    values = {name: [] for name, *_ in spec.END_TO_END}
    shares = set()
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.4f}" for n, v in values.items())
            + f" wall={time.perf_counter() - t0:.1f}s", flush=True)

    if len({f / a for f, a in shares}) > 1:
        print(f"failed shares differ: {sorted(shares)}")
        ok = False
    for name, unit, _, bound in spec.END_TO_END:
        v = values[name]
        if len(v) < 2:
            continue
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag = "  <- above a third of the bound"
            ok = False
        print(f"{args.workload:14s} {name:12s} median {median:10.4f} {unit:4s}"
              f" spread {100 * spread:5.2f}% (bound {100 * bound:.0f}%)"
              f"{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
