"""Run the benchmark once per seed and summarise each metric's spread.

Usage, from the repository root:

    python3 bench/repeat.py --workload session --seeds 1-10 [--trace 0|1] [--tag NAME]

Each run is ``python3 bench/run.py ... --seconds <run_seconds>`` in a child
process, one after another; its last stdout line is saved as
``bench/results/<tag>-<workload>-t<trace>-s<seed>.json``.  The summary gives,
per metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median, which is the spread that each
``bound`` in ``BENCHMARK.json`` must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="run")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)

    results = []
    for seed in args.seeds:
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        name = f"{args.tag}-{args.workload}-t{args.trace}-s{seed}.json"
        (out_dir / name).write_text(line + "\n", encoding="utf-8")
        result = json.loads(line)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(metric)
        print(f"{metric:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
