"""Produce the full diagnostic artifact set for a small study.

Trains the shifted-cubic task under two methods and two seeds, then writes
everything downstream tooling consumes: per-run metrics CSVs, a pivoted
summary table (methods as columns, seed medians as cells), per-domain
uncertainty histograms, and a manifest tying the run to its data
fingerprints.  Have a look at the printed files to see the exact formats.

    python demos/05_uncertainty_report.py

writes under a fresh temporary directory; `main(out_dir)` writes into
out_dir.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np

from uga import autodiff as ad
from uga.data import LabeledSet, SyntheticShiftSpec, gen_cubic_shift, normalize_labels
from uga.evidential import NigOutput, uncertainties
from uga.metrics import (EVAL_CHUNK, MetricsRow, build_report_table, evaluate,
                         fingerprint_array, read_metrics_csv, write_manifest,
                         write_metrics_csv, write_report_csv)
from uga.models import MlpSpec, model_forward
from uga.train import TrainConfig, train_uga

HISTOGRAM_COLUMNS = ("domain", "sample_idx", "aleatoric", "epistemic", "total")
SUMMARY_STATS = ("q05", "q25", "q50", "q75", "q95", "mean")


def _posterior_params(bundle, inputs) -> NigOutput:
    """The NIG head over all rows, forwarded in evaluate's chunks."""
    parts = []
    with ad.no_grad():
        for start in range(0, inputs.shape[0], EVAL_CHUNK):
            parts.append(model_forward(inputs[start:start + EVAL_CHUNK], bundle)[1])
    return NigOutput(*(ad.constant(np.vstack([getattr(p, name).data for p in parts]))
                       for name in ("gamma", "nu", "alpha", "beta")))


def uncertainty_histograms(bundle, domain_sets: dict):
    """Per-sample uncertainty rows plus per-domain summary quantiles.

    domain_sets maps a domain name to an input array.  Returns
    (rows, summary): rows follow HISTOGRAM_COLUMNS; summary rows are
    (domain, statistic, aleatoric, epistemic, total).
    """
    if not domain_sets:
        raise ValueError("no domains given")
    rows = []
    summary = []
    for domain, inputs in domain_sets.items():
        inputs = np.asarray(inputs)
        if inputs.shape[0] == 0:
            raise ValueError(f"empty domain {domain!r}")
        al, ep = uncertainties(_posterior_params(bundle, inputs))
        total = al + ep
        for idx in range(al.size):
            rows.append((domain, idx, al[idx], ep[idx], total[idx]))
        qs = (0.05, 0.25, 0.50, 0.75, 0.95)
        for stat, q in zip(SUMMARY_STATS, qs):
            summary.append((domain, stat, float(np.quantile(al, q)),
                            float(np.quantile(ep, q)),
                            float(np.quantile(total, q))))
        summary.append((domain, "mean", float(al.mean()), float(ep.mean()),
                        float(total.mean())))
    return rows, summary


def write_histogram_csv(path, rows) -> None:
    """HISTOGRAM_COLUMNS rows, floats in round-trip repr() form."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HISTOGRAM_COLUMNS)
        for domain, idx, al, ep, total in rows:
            writer.writerow([domain, str(idx), repr(float(al)),
                             repr(float(ep)), repr(float(total))])


def main(out_dir) -> None:
    out = Path(out_dir)
    print(f"writing artifacts under {out}\n")

    rows = []
    hist_bundle = None
    for seed in (0, 1):
        src = gen_cubic_shift(SyntheticShiftSpec(n=800, noise_sd=0.05, seed=1000 + seed))
        tgt = gen_cubic_shift(SyntheticShiftSpec(shift=2.0, n=800, noise_sd=0.05, seed=2000 + seed))
        src_n, bounds = normalize_labels(src)
        tgt_n = LabeledSet(tgt.inputs, np.clip(bounds.apply(tgt.labels), 0.0, 1.0))
        for method in ("none", "uga_feature"):
            cfg = TrainConfig(alignment=method, iterations=250, batch_size=128,
                              lr=3e-3, seed=seed, aug_weight=32.0, clip_norm=0.5)
            bundle, _ = train_uga(src_n, tgt_n.unlabeled(), cfg,
                                  MlpSpec(layer_widths=(1, 32, 32), dropout_p=0.0))
            label = "source_only" if method == "none" else method
            rows.append(MetricsRow("cubic_shift", label, seed,
                                   evaluate(bundle, tgt_n)))
            if method == "none" and seed == 0:
                hist_bundle = (bundle, src_n, tgt_n)

    metrics_path = out / "metrics.csv"
    write_metrics_csv(metrics_path, rows)
    print(f"-- {metrics_path.name}: one row per (task, method, seed)")
    print(metrics_path.read_text().strip().split("\n")[0])
    print("...\n")

    # pivot to a method-by-task table of seed medians
    header, table = build_report_table(read_metrics_csv(metrics_path), metric="mae")
    write_report_csv(out / "report.csv", header, table)
    print(f"-- report.csv (median target mae per method):")
    print((out / "report.csv").read_text())

    # uncertainty decomposition per domain; summaries are quantiles
    bundle, src_n, tgt_n = hist_bundle
    hist_rows, summary = uncertainty_histograms(
        bundle, {"source": src_n.inputs, "target": tgt_n.inputs})
    write_histogram_csv(out / "uncertainty.csv", hist_rows)
    print(f"-- uncertainty.csv: {len(hist_rows)} per-sample rows; domain means below")
    for domain, stat, al, ep, total in summary:
        if stat == "mean":
            print(f"   {domain:>7}: aleatoric {al:.5f}  epistemic {ep:.5f}  total {total:.5f}")

    write_manifest(
        out / "manifest.json",
        {"task": "cubic_shift", "methods": ["source_only", "uga_feature"]},
        0,
        {"source": fingerprint_array(src_n.inputs),
         "target": fingerprint_array(tgt_n.inputs)},
        0.0,
        metrics_file=metrics_path.name)
    print(f"\n-- manifest.json keys: {sorted(json.loads((out / 'manifest.json').read_text()))}")
    print("\ntarget epistemic should sit above source: the model has never seen")
    print("labels there, and the head knows it")


if __name__ == "__main__":
    main(tempfile.mkdtemp(prefix="uga_report_"))
