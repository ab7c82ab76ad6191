"""Evaluation metrics, calibration diagnostics, and report artifacts.

`evaluate` runs a trained bundle over a labeled dataset (in chunks, with
gradients disabled) and produces a MetricsReport: MAE/MSE/R-squared,
90% interval coverage, mean uncertainties, and, when a reference domain is
supplied, the squared MMD between the two domains' evidential posterior
vectors.  CSV emitters use repr() formatting so every float round-trips
and reports stay diffable.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json

import numpy as np

from . import __version__
from . import autodiff as ad
from .alignment import mmd2_biased, posterior_vector
from .data import LabeledSet, _csv_rows, _refuse_non_finite
from .evidential import (_CORNISH_FISHER_MIN_DF, _T95_DF2, _Z95, NigOutput,
                         _t95_cornish_fisher, _t_tail, predictive_interval,
                         uncertainties)
from .models import CHECKPOINT_VERSION, ModelBundle, model_forward

__all__ = [
    "mae",
    "mse",
    "r2",
    "coverage",
    "MetricsReport",
    "MetricsRow",
    "evaluate",
    "write_metrics_csv",
    "read_metrics_csv",
    "build_report_table",
    "write_report_csv",
    "fingerprint_array",
    "fingerprint_file",
    "write_manifest",
]

METRICS_COLUMNS = ("task", "method", "seed", "mae", "mse", "r2",
                   "coverage90", "posterior_gap")

EVAL_CHUNK = 512


def _check_pair(preds, labels):
    preds = np.asarray(preds, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if preds.size == 0:
        raise ValueError("empty inputs")
    if preds.size != labels.size:
        raise ValueError(f"{preds.size} predictions vs {labels.size} labels")
    return preds, labels


def mae(preds, labels) -> float:
    preds, labels = _check_pair(preds, labels)
    return float(np.mean(np.abs(preds - labels)))


def mse(preds, labels) -> float:
    preds, labels = _check_pair(preds, labels)
    return float(np.mean((preds - labels) ** 2))


def r2(preds, labels) -> float:
    """1 - SS_res/SS_tot; negative when worse than predicting the mean."""
    preds, labels = _check_pair(preds, labels)
    if preds.size < 2:
        raise ValueError("r2 needs at least 2 samples")
    ss_tot = float(np.sum((labels - labels.mean()) ** 2))
    # Constant labels need not give ss_tot == 0: the mean of three 0.4s
    # rounds to 0.4000000000000001.
    if ss_tot == 0.0 or np.all(labels == labels[0]):
        raise ValueError("r2 undefined for constant labels")
    ss_res = float(np.sum((labels - preds) ** 2))
    return 1.0 - ss_res / ss_tot


def _r2_or_none(preds, labels) -> float | None:
    """r2, or None for the two cases where it is undefined: fewer than two
    samples and constant labels (the only ValueErrors r2 raises once the
    pair has passed mae's checks)."""
    try:
        return r2(preds, labels)
    except ValueError:
        return None


def coverage(intervals, labels) -> float:
    """Fraction of labels inside their [lo, hi] interval."""
    lo, hi = intervals
    lo = np.asarray(lo, dtype=np.float64).ravel()
    hi = np.asarray(hi, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if not (lo.size == hi.size == labels.size):
        raise ValueError("intervals and labels differ in length")
    return float(np.mean((labels >= lo) & (labels <= hi)))


# Relative slack of each bound on the quantile below: it covers their own
# error (a few 1e-12) and that of `stdtrit` (a few ulps).
_RTOL = 1e-9


def _covered90(p: NigOutput, labels) -> np.ndarray:
    """Whether each label lies inside its `predictive_interval(p, 0.9)`,
    decided bit for bit, where possible without that interval's quantile q*.

    The ends gamma -/+ q*scale move monotonically with q in floats too, so a
    label inside at some q <= q* is inside, and one outside at some q >= q*
    is outside.  The normal and 2-df quantiles bound q* for every row; for
    the rows they leave, Cornish-Fisher's quantile bounds it at large df,
    and at smaller df the Student-t tail tells on which side of q* the
    label's own distance from gamma, in scales, lies.  `predictive_interval`
    answers the rows left after that: labels within about 1e-9 of an end.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    gamma, nu, alpha, beta = (t.data.ravel() for t in (p.gamma, p.nu, p.alpha, p.beta))
    df = 2.0 * alpha
    scale = np.sqrt(beta * (1.0 + nu) / (nu * alpha))
    inside = np.zeros(y.size, dtype=bool)

    def settle(rows, q_lo, q_hi):
        """Mark the rows that q_lo <= q* <= q_hi decides; return the others."""
        yr, gr, d_lo, d_hi = y[rows], gamma[rows], q_lo * scale[rows], q_hi * scale[rows]
        sure_in = (yr >= gr - d_lo) & (yr <= gr + d_lo)
        sure_out = (yr < gr - d_hi) | (yr > gr + d_hi)
        inside[rows[sure_in]] = True
        return rows[~(sure_in | sure_out)]

    rows = settle(np.arange(y.size), _Z95 * (1.0 - _RTOL), _T95_DF2 * (1.0 + _RTOL))
    large = df[rows] >= _CORNISH_FISHER_MIN_DF
    big, small = rows[large], rows[~large]
    q = _t95_cornish_fisher(df[big])
    big = settle(big, q * (1.0 - _RTOL), q * (1.0 + _RTOL))
    t = np.abs(y[small] - gamma[small]) / scale[small]
    t_in, t_out = t * (1.0 + _RTOL), t * (1.0 - _RTOL)
    tail_in, tail_out = np.split(_t_tail(np.concatenate([t_in, t_out]), np.tile(df[small], 2)), 2)
    small = settle(small, np.where(tail_in >= 0.05 * (1.0 + _RTOL), t_in, 0.0),
                   np.where(tail_out <= 0.05 * (1.0 - _RTOL), t_out, np.inf))
    rows = np.concatenate([big, small])
    if rows.size:
        lo, hi = predictive_interval(NigOutput.from_values(
            gamma[rows], nu[rows], alpha[rows], beta[rows]), 0.9)
        inside[rows] = (y[rows] >= lo) & (y[rows] <= hi)
    return inside


@dataclasses.dataclass(frozen=True)
class MetricsReport:
    """Pure function of (checkpoint, dataset); posterior_gap is None without
    a reference set, r2 is None where it is undefined (one row, or constant
    labels)."""

    mae: float
    mse: float
    r2: float | None
    coverage90: float
    mean_aleatoric: float
    mean_epistemic: float
    mean_total: float
    posterior_gap: float | None

    def __post_init__(self):
        if not np.isfinite([self.mae, self.mse, self.r2 or 0.0]).all():
            raise ValueError("mae, mse and r2 must be finite")
        if self.mae < 0 or self.mse < 0:
            raise ValueError("mae and mse must be nonnegative")
        if self.r2 is not None and self.r2 > 1.0:
            raise ValueError("r2 cannot exceed 1")
        if not 0.0 <= self.coverage90 <= 1.0:
            raise ValueError("coverage must be a fraction")


@dataclasses.dataclass(frozen=True)
class MetricsRow:
    task: str
    method: str
    seed: int
    report: MetricsReport


def _forward_chunks(bundle: ModelBundle, inputs: np.ndarray) -> NigOutput:
    """The NIG head over every row, evaluated chunk by chunk without
    building a persistent graph."""
    heads = []
    with ad.no_grad():
        for start in range(0, inputs.shape[0], EVAL_CHUNK):
            heads.append(model_forward(inputs[start:start + EVAL_CHUNK], bundle)[1])
    return NigOutput(*(ad.constant(np.vstack([getattr(h, name).data for h in heads]))
                       for name in ("gamma", "nu", "alpha", "beta")))


def evaluate(bundle: ModelBundle, dataset: LabeledSet,
             reference_inputs=None) -> MetricsReport:
    """Score a bundle on one labeled domain; coverage90 is the share of
    labels inside their 90% predictive interval.

    reference_inputs, when given, are inputs from the other domain; the
    posterior_gap is then the squared MMD between the two domains'
    [nu, alpha, beta] vectors.  A nan or an infinity in any of the three
    arrays is refused with the array's name and the first bad row."""
    if len(dataset) == 0:
        raise ValueError("empty evaluation set")
    if reference_inputs is not None and len(reference_inputs) == 0:
        raise ValueError("empty reference set")
    _refuse_non_finite("dataset inputs", dataset.inputs)
    _refuse_non_finite("dataset labels", dataset.labels)
    p = _forward_chunks(bundle, dataset.inputs)
    preds = p.gamma.data
    al, ep = uncertainties(p)
    gap = None
    if reference_inputs is not None:
        _refuse_non_finite("reference inputs", reference_inputs)
        ref = _forward_chunks(bundle, np.asarray(reference_inputs))
        with ad.no_grad():
            gap = mmd2_biased(posterior_vector(p), posterior_vector(ref)).item()
    return MetricsReport(
        mae=mae(preds, dataset.labels),
        mse=mse(preds, dataset.labels),
        r2=_r2_or_none(preds, dataset.labels),
        coverage90=float(np.mean(_covered90(p, dataset.labels))),
        mean_aleatoric=float(al.mean()),
        mean_epistemic=float(ep.mean()),
        mean_total=float((al + ep).mean()),
        posterior_gap=gap,
    )


# -- artifacts --------------------------------------------------------------

def _fmt(x) -> str:
    """Full round-trip decimal formatting; None becomes the empty marker."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            r = row.report
            writer.writerow([row.task, row.method, str(row.seed),
                             _fmt(r.mae), _fmt(r.mse), _fmt(r.r2),
                             _fmt(r.coverage90), _fmt(r.posterior_gap)])


def read_metrics_csv(path) -> list[dict]:
    """Rows as dicts of strings.  Each row must have the header's field
    count and each metric cell must be empty or a finite number; errors
    name the file and the row."""
    with open(path, newline="") as f:
        reader = _csv_rows(f)
        header = tuple(next(reader, (1, ()))[1])
        if header != METRICS_COLUMNS:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        numbered = list(reader)
    for row_no, row in numbered:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header names {len(header)}")
            if not np.all(np.isfinite([float(cell) for cell in row[3:] if cell])):
                raise ValueError("non-finite metric")
        except ValueError as e:
            raise ValueError(f"{path}: bad metrics row {row_no}: {e}") from None
    return [dict(zip(header, row)) for _, row in numbered]


def build_report_table(metric_dicts: list[dict], metric: str = "mae"):
    """Pivot metrics rows into tasks x methods, aggregating seeds by median.

    Missing (task, method) cells stay as explicit empty markers.
    """
    if metric not in METRICS_COLUMNS[3:]:
        raise ValueError(f"unknown metric {metric!r}")
    tasks, methods = [], []
    cells: dict[tuple[str, str], list[float]] = {}
    for row in metric_dicts:
        task, method = row["task"], row["method"]
        if task not in tasks:
            tasks.append(task)
        if method not in methods:
            methods.append(method)
        if row[metric] != "":
            cells.setdefault((task, method), []).append(float(row[metric]))
    table = []
    for task in tasks:
        out_row = [task]
        for method in methods:
            vals = cells.get((task, method))
            out_row.append(_fmt(float(np.median(vals))) if vals else "")
        table.append(out_row)
    return ["task"] + methods, table


def write_report_csv(path, header, table) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(table)


def fingerprint_array(arr) -> str:
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def fingerprint_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, config: dict, seed: int, fingerprints: dict,
                   wall_clock_s: float, metrics_file=None) -> None:
    """Write the provenance sidecar of one run or metrics file as JSON."""
    manifest = {
        "config": config, "seed": seed,
        "dataset_fingerprints": fingerprints,
        "artifact_versions": {"package": __version__,
                              "checkpoint_format": CHECKPOINT_VERSION},
        "wall_clock_s": wall_clock_s, "metrics_file": metrics_file,
    }
    with open(path, "w") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
