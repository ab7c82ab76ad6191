"""Command-line entry points.

Subcommands: datagen | train | eval | gradcheck | report.  Exit codes:
0 success, 1 failed check or failed run, 2 usage / bad config.
"""

import argparse
import contextlib
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from .data import (LabeledSet, SyntheticShiftSpec, gen_battery_curves,
                   make_cubic_shift_pair, read_vector_csv, write_battery_csv,
                   write_vector_csv)
from .metrics import (MetricsRow, build_report_table, evaluate,
                      fingerprint_array, fingerprint_file, read_metrics_csv,
                      write_manifest, write_metrics_csv, write_report_csv)
from .models import MlpSpec, load_checkpoint, save_checkpoint
from .train import HISTORY_COLUMNS, AlignmentKind, TrainConfig, train_uga

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or bad config; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uga",
        description="Evidential regression with uncertainty-guided "
                    "domain alignment.")
    sub = p.add_subparsers(dest="command", required=True)

    dg = sub.add_parser("datagen", help="generate synthetic datasets")
    dg.add_argument("--kind", required=True, choices=("cubic", "battery"))
    dg.add_argument("--out", required=True,
                    help="output directory (cubic) or CSV file (battery)")
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--n", type=int, default=2000,
                    help="samples per domain (cubic)")
    dg.add_argument("--shift", type=float, default=2.0,
                    help="target input shift (cubic)")
    dg.add_argument("--scale", type=float, default=1.0,
                    help="target input scale (cubic)")
    dg.add_argument("--noise", type=float, default=0.05,
                    help="label noise standard deviation (cubic)")
    dg.add_argument("--temp", type=float, default=25.0,
                    help="ambient temperature in Celsius (battery)")
    dg.add_argument("--cycles", type=int, default=6,
                    help="number of discharge cycles (battery)")
    dg.add_argument("--capacity-ah", type=float, default=0.5,
                    help="cell capacity in Ah (battery)")
    dg.add_argument("--hz", type=float, default=10.0,
                    help="raw sampling rate (battery)")

    tr = sub.add_parser("train", help="run the training loop")
    tr.add_argument("--config", required=True, help="TrainConfig JSON file")
    tr.add_argument("--source", required=True, help="labeled vector CSV")
    tr.add_argument("--target", default=None,
                    help="vector CSV; labels, if present, are ignored")
    tr.add_argument("--out-dir", required=True)
    tr.add_argument("--hidden", default="32,32",
                    help="comma-separated hidden layer widths")
    tr.add_argument("--dropout", type=float, default=0.1)

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="labeled vector CSV")
    ev.add_argument("--out", required=True, help="metrics CSV to write")
    ev.add_argument("--task", required=True)
    ev.add_argument("--method", required=True)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--reference", default=None,
                    help="vector CSV of source inputs for the posterior gap")

    gr = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    gr.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("report", help="join metrics files into one table")
    rp.add_argument("metrics", nargs="+", help="metrics CSV files")
    rp.add_argument("--out", required=True)
    rp.add_argument("--metric", default="mae")
    return p


def _read_vectors(path):
    """read_vector_csv with read and format errors as usage errors."""
    try:
        return read_vector_csv(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


def _load_labeled(path) -> LabeledSet:
    x, y = _read_vectors(path)
    if y is None:
        raise UsageError(f"{path}: missing label column y")
    return LabeledSet(x, y)


def _check_width(bundle, path, inputs: np.ndarray) -> None:
    """Vector CSV rows must match the checkpoint's MLP input width."""
    if not isinstance(bundle.spec, MlpSpec):
        raise UsageError(f"{path}: eval scores vector CSVs, but the checkpoint "
                         f"has a {bundle.extractor_kind} extractor")
    want = bundle.spec.layer_widths[0]
    if inputs.shape[1] != want:
        raise UsageError(f"{path}: {inputs.shape[1]} input columns, "
                         f"the checkpoint expects {want}")


def _make_dir(path: Path) -> None:
    """mkdir -p; a path blocked by an existing file is a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot create directory {path}: {e}") from None


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing path, such as a directory standing where
    the file goes, is a usage error naming the path."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None


def _cmd_datagen(args) -> int:
    out = Path(args.out)
    try:
        if args.kind == "battery":
            series = gen_battery_curves(args.temp, args.cycles, args.seed,
                                        capacity_ah=args.capacity_ah, hz=args.hz)
        else:
            source, target, bounds = make_cubic_shift_pair(
                SyntheticShiftSpec(n=args.n, noise_sd=args.noise, seed=args.seed),
                SyntheticShiftSpec(shift=args.shift, scale=args.scale, n=args.n,
                                   noise_sd=args.noise, seed=args.seed + 1))
    except ValueError as e:
        raise UsageError(f"bad datagen flags: {e}") from None
    if args.kind == "battery":
        _make_dir(out.parent)
        with _writing(out):
            write_battery_csv(series, out)
        print(f"wrote {sum(len(s) for s in series)} rows to {out}")
        return 0

    _make_dir(out)
    for name, part in (("source.csv", source), ("target.csv", target)):
        with _writing(out / name):
            write_vector_csv(out / name, part.inputs, part.labels)
    with _writing(out / "bounds.json"), open(out / "bounds.json", "w") as f:
        json.dump({"lo": bounds.lo, "hi": bounds.hi}, f)
        f.write("\n")
    print(f"wrote source.csv and target.csv ({args.n} rows each) to {out}")
    return 0


def _write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row.iteration, repr(row.supervised),
                             repr(row.alignment), repr(row.lam)])


def _cmd_train(args) -> int:
    try:
        cfg_text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config: {e}") from None
    try:
        cfg = TrainConfig.from_json(cfg_text)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad config: {e}") from None
    if cfg.alignment is not AlignmentKind.NONE and args.target is None:
        raise UsageError(f"{cfg.alignment.value} alignment needs --target")

    source = _load_labeled(args.source)
    if args.target is not None:
        target = _read_vectors(args.target)[0]
        if target.shape[1] != source.inputs.shape[1]:
            raise UsageError(f"{args.target}: {target.shape[1]} input "
                             f"columns, the source has {source.inputs.shape[1]}")
    else:
        target = np.zeros((0, source.inputs.shape[1]))

    try:
        hidden = tuple(int(w) for w in args.hidden.split(","))
        spec = MlpSpec(layer_widths=(source.inputs.shape[1], *hidden),
                       dropout_p=args.dropout)
    except ValueError as e:
        raise UsageError(f"bad model flags: {e}") from None

    out_dir = Path(args.out_dir)
    _make_dir(out_dir)
    started = time.monotonic()
    try:
        # The loop's finiteness checks name a failure; numpy's overflow
        # warnings on the way there would only bury that one line.
        with np.errstate(all="ignore"):
            bundle, history = train_uga(source, target, cfg, spec)
    except (ValueError, RuntimeError, MemoryError) as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started

    with _writing(out_dir / "checkpoint.bin"):
        save_checkpoint(bundle, out_dir / "checkpoint.bin")
    with _writing(out_dir / "history.csv"):
        _write_history_csv(out_dir / "history.csv", history)
    fingerprints = {"source": fingerprint_array(source.inputs),
                    "source_labels": fingerprint_array(source.labels)}
    if len(target):
        fingerprints["target"] = fingerprint_array(target)
    with _writing(out_dir / "manifest.json"):
        write_manifest(out_dir / "manifest.json", json.loads(cfg.to_json()),
                       cfg.seed, fingerprints, elapsed)
    print(f"trained {cfg.iterations} iterations "
          f"({cfg.alignment.value}); artifacts in {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        bundle = load_checkpoint(args.checkpoint)
    except OSError as e:
        raise UsageError(f"cannot read checkpoint: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad checkpoint: {e}") from None
    dataset = _load_labeled(args.data)
    _check_width(bundle, args.data, dataset.inputs)
    reference = _read_vectors(args.reference)[0] if args.reference else None
    if reference is not None:
        _check_width(bundle, args.reference, reference)
    out = Path(args.out)
    _make_dir(out.parent)

    started = time.monotonic()
    try:
        # A finite checkpoint can still overflow; evaluate's finiteness
        # checks name that, and numpy's warnings would only bury the line.
        with np.errstate(all="ignore"):
            report = evaluate(bundle, dataset, reference_inputs=reference)
    except (ValueError, RuntimeError) as e:
        print(f"eval failed: {e}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started

    with _writing(out):
        write_metrics_csv(out, [MetricsRow(args.task, args.method, args.seed,
                                           report)])
    fingerprints = {"data": fingerprint_array(dataset.inputs),
                    "labels": fingerprint_array(dataset.labels),
                    "checkpoint": fingerprint_file(args.checkpoint)}
    if reference is not None:
        fingerprints["reference"] = fingerprint_array(reference)
    manifest = out.with_suffix(".manifest.json")
    with _writing(manifest):
        write_manifest(manifest,
                       {"checkpoint": str(args.checkpoint), "data": str(args.data),
                        "task": args.task, "method": args.method},
                       args.seed, fingerprints, elapsed, metrics_file=out.name)
    print(f"wrote {out} (task={args.task} method={args.method} "
          f"mae={report.mae:.6g})")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        results = gc.run_all(seed=args.seed)
    except RuntimeError as e:       # a probe worker that ended without a result
        print(f"gradcheck failed: {e}", file=sys.stderr)
        return 1
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<14} error={r.error:.3e}  tol={r.tol:.0e}  {status}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.metrics:
        try:
            rows.extend(read_metrics_csv(path))
        except OSError as e:
            raise UsageError(f"cannot read {path}: {e}") from None
        except ValueError as e:
            raise UsageError(str(e)) from None
    try:
        header, table = build_report_table(rows, metric=args.metric)
    except ValueError as e:
        raise UsageError(str(e)) from None
    out = Path(args.out)
    _make_dir(out.parent)
    with _writing(out):
        write_report_csv(out, header, table)
    print(f"wrote {out}: {len(table)} tasks x {len(header) - 1} methods")
    return 0


_COMMANDS = {
    "datagen": _cmd_datagen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on unknown subcommands or bad flags, 0 on --help
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"{args.command} failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
