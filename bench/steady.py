"""Run the benchmark on several seeds and print each metric's spread.

Usage, from the repository root::

    python3 bench/steady.py --workload study --seeds 1 2 3 4 5 --seconds 36

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median: the
spread the benchmark's bounds are judged against.  Output digests are
appended to ``.bench_work/digests.jsonl`` by each run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import median, quartile_spread

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {done.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 and median(vals) else float("nan")
        print(f"{name:36s} median {median(vals):14.6g}  spread {spread:8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
