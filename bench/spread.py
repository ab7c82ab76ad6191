"""Run a workload over several seeds and print each metric's spread.

    python3 bench/spread.py --workload cubic_shift --seeds 0-9

For every metric of the final JSON line, and every per-arm figure of the
run records, prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a share
of the median, next to the bound in BENCHMARK.json.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", default="20")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += result["failed"] or not result["correct"]
        record = json.loads((ROOT / ".bench_out" /
                             f"{args.workload}-seed{seed}-trace0.json").read_text())
        row = {n: m["value"] for n, m in result["metrics"].items()}
        row.update({f"figure.{n}": v for n, v in record["figures"].items()})
        for name, v in row.items():
            values.setdefault(name, []).append(v)
        print(f"seed {seed}: " + " ".join(f"{n}={v:.5g}" for n, v in row.items()
                                           if not n.startswith("figure.")), flush=True)

    print(f"{'metric':<44} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} bound")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<44} {len(vals):>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.4f} {bounds.get(name, '')}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
