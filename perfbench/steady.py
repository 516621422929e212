"""Steadiness self-check: are two sets of runs of the same code alike?

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` once per seed 1..10 and workload in each of two
sets, then prints, for every end-to-end metric, each set's median and
spread (the distance between the first and third quartile as a share of
the median) next to the bound fixed in BENCHMARK.json, and how far the
second set's median moved from the first in the metric's worse direction.
Exits 1 if a run was wrong, a spread exceeds its bound, or a median moved
by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import HELD_OUT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    ok = True
    print(f"held-out seed for confirming claims: {HELD_OUT_SEED} "
          f"(not among {SEEDS.start}..{SEEDS.stop - 1})")
    for workload in WORKLOADS:
        sets = []
        for s in range(SETS):
            runs = [run_once(workload, seed, spec["run_seconds"]) for seed in SEEDS]
            wrong = sum(r["failed"] for r in runs)
            if wrong or not all(r["correct"] for r in runs):
                print(f"{workload} set {s + 1}: {wrong} wrong responses")
                ok = False
            sets.append({m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                         for m in metrics})
        print(f"\n{workload}: {len(SEEDS)} seeds x {SETS} sets of {spec['run_seconds']} s")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            for values in (s[name] for s in sets):
                sp = spread(values)
                ok &= sp <= bound
                mark = ("ok" if sp <= bound / 3 else
                        "within bound" if sp <= bound else "TOO WIDE")
                cells.append(f"median {statistics.median(values):.6g} spread {sp:.3f} ({mark})")
            first, second = (statistics.median(s[name]) for s in sets)
            worse = (second - first) / first
            worse = worse if m["better"] == "lower" else -worse
            ok &= worse <= bound
            print(f"  {name:16s} {m['unit']:4s} bound {bound:.2f}: " + "; ".join(cells)
                  + f"; second set worse by {worse:+.3f}"
                  + ("" if worse <= bound else " (BEYOND BOUND)"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
