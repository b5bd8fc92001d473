"""Alternating parent/change pairs of the benchmark, summarised as JSON.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json --seed S

The parent side is ``git archive REV`` unpacked into a temporary
directory; the change side is this checkout's working tree. Each run is
``bench/run.py`` in its own process, one at a time, for BENCHMARK.json's
``run_seconds``, on every workload it lists. Pair k of the ten runs both
sides at seed S + k, the parent first when k is even. The JSON holds
every run's end-to-end metrics and, per workload and metric, each side's
median and quartiles and the number of pairs the change won (a tie
counts for neither side), with the direction taken from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
        timeout=60 + 10 * seconds)
    result = json.loads(done.stdout.splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, better: dict) -> dict:
    out = {}
    for name, lower in better.items():
        sides = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        sign = 1 if lower else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"parent": spread(sides["parent"]),
                     "change": spread(sides["change"]),
                     "change_wins": wins, "pairs": len(sides["parent"])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                              args.parent], capture_output=True, check=True).stdout
    report = {"parent": args.parent, "seed": args.seed, "seconds": seconds,
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        checkouts = {"parent": Path(tmp), "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_bench(checkouts[side], workload, args.seed + k, seconds)
                    runs.append({"side": side, "seed": args.seed + k, **run})
                    print(f"{workload} pair {k} {side}: {run['metrics']}", flush=True)
            report["workloads"][workload] = {
                "runs": runs, "summary": summarise(runs, better),
                "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                           for side in ("parent", "change")}}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
