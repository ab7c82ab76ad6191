"""Benchmark driver for the uga package.

    python3 bench/run.py --workload cubic_shift --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload

Run from the repository root.  The package is imported from `src/`; no
install is needed.  One process, one BLAS thread, closed loop: each pass of
the workload starts when the previous one has finished, and passes repeat
until `--seconds` have been measured (at least one pass).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs an untraced
and a traced pass per round and prints the per-layer metrics.  Earlier
stdout lines give the machine record and every figure with its unit; the
last line is the JSON result.  The full record (and, when traced, every
span) is written to `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import os

# Thread count changes both speed and results (see README); pin it before
# numpy is imported, here and in every child process.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cubic_shift", "battery_transfer", "gradcheck")
SETUP_REPEATS = 3        # setup samples per run: this process + 2 children
PASS_SEED_STRIDE = 1     # pass k of a run uses seed + k * stride
CHILD_TIMEOUT_S = 600


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate inputs, print the seconds taken")
    return p.parse_args(argv)


def _child(args_list):
    """Run this script in a child process; returns (code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args_list],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def _last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_metrics(title, values, unit_of):
    print(f"-- {title}")
    for name, value in values.items():
        print(f"{name:<44} {_fmt(value):>14} {unit_of(name)}")


def _run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import speed

    work = OUT / f"work-{os.getpid()}"
    try:
        with speed.Probe() as setup:
            try:
                import workloads as wl
            except ImportError as e:
                print(f"error: cannot import the uga package from {ROOT / 'src'}: {e}",
                      file=sys.stderr)
                return 2
            import report
            inputs = wl.make_inputs(args.workload, args.seed, work / "setup")
        sample = {"setup_s": setup.ref_seconds, "raw_setup_s": setup.seconds}
        if args.setup_only:
            print(json.dumps(sample))
            return 0
        return _measure(args, wl, report, speed, inputs, sample, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl, report, speed, inputs, setup_sample, work) -> int:
    from tracing import Tracer

    ledger = wl.Ledger()
    setup_samples = [setup_sample]
    for _ in range(SETUP_REPEATS - 1):
        code, out, err = _child(["--workload", args.workload, "--seed",
                                 str(args.seed), "--setup-only"])
        try:
            sample = _last_json(out)
            setup_samples.append({k: float(sample[k])
                                  for k in ("setup_s", "raw_setup_s")})
            ledger.record("setup repeat", None if code == 0 else err.strip())
        except (TypeError, ValueError, KeyError):
            ledger.record("setup repeat", f"exit {code}: {err.strip()[-500:]}")

    run_pass = wl.PASSES[args.workload]
    tracer = Tracer() if args.trace else None
    untraced, traced, overheads = [], [], []
    start = time.perf_counter()
    while True:
        k = len(untraced)
        seed = args.seed + k * PASS_SEED_STRIDE
        if k:
            inputs = wl.make_inputs(args.workload, seed, work / f"setup{k}")
        with speed.Probe() as probe:
            fig = run_pass(inputs, seed, ledger, work / f"pass{k}")
        untraced.append({"wall_s": probe.ref_seconds, "raw_wall_s": probe.seconds,
                         "slowdown": probe.slowdown, "fig": fig})
        if tracer:
            fig_t, wall_t = wl.traced_pass(tracer, args.workload, seed, ledger,
                                           work / f"traced{k}")
            traced.append(fig_t)
            overheads.append(wall_t - untraced[-1]["wall_s"])
            ledger.record("trace isolation", wl.isolation_problem(fig, fig_t))
            left = tracer.installed_leftovers()
            ledger.record("wrappers restored",
                          f"still wrapped: {left}" if left else None)
        if time.perf_counter() - start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = report.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    e2e = report.end_to_end(setup_samples, untraced, peak_rss_mb)
    figures = {**report.speed_figures(setup_samples, untraced),
               **report.workload_figures(untraced)}
    _print_metrics(f"{args.workload}: end-to-end ({len(untraced)} untraced "
                   f"pass(es), {len(setup_samples)} setup samples)", e2e,
                   lambda n: report.END_TO_END[n][0])
    _print_metrics(f"{args.workload}: measured times and per-arm figures",
                   figures, report.figure_unit)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_samples_s": setup_samples,
              "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "slowdown")}
                         | p["fig"] for p in untraced],
              "end_to_end": e2e, "figures": figures,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems}
    metrics = {n: {"value": v, "unit": report.END_TO_END[n][0]}
               for n, v in e2e.items()}
    if tracer:
        layers = report.per_layer(args.workload, tracer,
                                  [p["fig"] for p in untraced], traced,
                                  report.median(overheads))
        _print_metrics(f"{args.workload}: per-layer (traced)", layers,
                       lambda n: report.PER_LAYER[n][0])
        for arm in wl.ARMS[args.workload]:
            rows = report.phase_breakdown(tracer, traced, arm)
            print(f"-- {arm}: self ms/iter by phase (traced), sum "
                  f"{sum(v for _, v in rows):.4g} vs untraced "
                  f"{layers[f'train.ms_per_iter.{arm}']:.4g} "
                  f"+ overhead")
            for label, value in rows:
                print(f"   {label:<22} {value:10.4f}")
        record["per_layer"] = layers
        record["spans"] = tracer.dump()
        metrics = {n: {"value": v, "unit": report.PER_LAYER[n][0]}
                   for n, v in layers.items()}
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so imports, setup and peak memory
    are measured per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out, err = _child(["--workload", workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)])
        sys.stdout.write(out)
        sys.stderr.write(err)
        result = _last_json(out) if code == 0 else None
        if result is None:
            print(f"FAILED {workload}: exit code {code}", file=sys.stderr)
            total["correct"] = False
            total["attempted"] += 1
            total["failed"] += 1
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(f"-- all workloads: {total['attempted']} operations attempted, "
          f"{total['failed']} failed")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
