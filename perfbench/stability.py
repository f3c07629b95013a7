"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --workload certify --seeds 1-10 [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per seed, one run after another, and prints
for each metric in BENCHMARK.json the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, against the metric's bound.  ``--out`` also writes every
value as JSON.  ``--seconds`` defaults to ``run_seconds`` from
BENCHMARK.json.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="first-last, as 1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: wall {wall:.1f} s, attempted {result['attempted']} failed {result['failed']}  "
              + "  ".join(f"{n} {v[-1]:.5g}" for n, v in values.items()), flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
        print(f"{m['name']:<16} median {med:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
              f"spread {spread:6.1%} (bound {m['bound']:.0%}, a third {m['bound'] / 3:.1%})")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                              "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
