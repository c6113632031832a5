"""Run-to-run spread of the end-to-end metrics over several workload seeds.

Usage (from the repository root):

    python3 perfbench/stability.py --workload full --seeds 1 2 3 4 5 [--json OUT]

Runs ``perfbench/run.py`` once per seed, for ``run_seconds`` from
``BENCHMARK.json``, and prints, per metric, the median
and the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``).  A benchmark is steady
when every spread except ``setup_s`` stays below a third of its bound in
``BENCHMARK.json``.  ``--json`` also writes these figures, with the failed
and attempted operations, to a file (the form of ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--json", type=Path, help="write the summary to this file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4f}"
                                           for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                         "spread": round(spread, 4), "runs": len(vals)}
        flag = "ok" if name == "setup_s" or spread < bounds[name] / 3 else "WIDE"
        print(f"{args.workload} {name}: median {med:.4f}, spread {spread:.4f} "
              f"(bound {bounds[name]}, target < {bounds[name] / 3:.4f}) {flag}")
    if args.json:
        summary["failed_ops"] = {"failed": failed, "attempted": attempted}
        summary["seeds"] = args.seeds
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
