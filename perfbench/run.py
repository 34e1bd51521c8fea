"""Benchmark of the horocover verifier, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload {axioms,thin,thick} [--seed N]
        [--seconds S] [--trace {0,1}]

Runs rounds of the workload, each in a fresh single-threaded process
(round.py), while another round is expected to end within --seconds (at
least one); every round of a run builds the same inputs from the seed and
makes the same calls.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, medians over the rounds;
with --trace 1 they are its per-layer ones, from spans around the calls
into each layer.  Any failure to run exits non-zero without printing a
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms", "thin", "thick")
# every run ends within this many seconds, whatever --seconds asks
HARD_LIMIT_S = 170


def _round(workload: str, seed: int, trace: int, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), workload, str(seed),
         str(trace), repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(rounds, name: str, trace: int) -> float:
    if not trace:
        return statistics.median(r[name] for r in rounds)
    layer, field = name.rsplit(".", 1)
    return statistics.median(r["layers"][layer][field] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    start = time.monotonic()
    rounds = []
    try:
        while True:
            began = time.monotonic()
            rounds.append(_round(args.workload, args.seed, args.trace,
                                 HARD_LIMIT_S - (began - start)))
            now = time.monotonic()
            # start another round only if one as long would end in time
            if now - start + (now - began) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    problems = sorted({p for r in rounds for p in r["problems"]})
    if len({r["report"] for r in rounds}) != 1:
        problems.append("rounds on the same inputs gave different reports")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": _median(rounds, m["name"], args.trace),
                                "unit": m["unit"]} for m in metrics},
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, verify_s "
          + " ".join(f"{r['verify_s']:.3f}" for r in rounds), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
