"""Dataset generation, battery CSV ingestion, windowing, and splits.

Synthetic side: a cubic regression family whose input distribution can be
translated and rescaled between domains while the label range stays put,
and a battery discharge simulator whose capacity and voltage sag respond
monotonically to ambient temperature.  Real side: ingestion of the
canonical battery CSV schema with 1 Hz downsampling and the drive-cycle
train/test split.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "LabeledSet",
    "SyntheticShiftSpec",
    "LabelBounds",
    "CYCLE_TAGS",
    "TEST_CYCLES",
    "gen_cubic_shift",
    "make_cubic_shift_pair",
    "gen_battery_curves",
    "write_battery_csv",
    "ingest_battery_csv",
    "write_vector_csv",
    "read_vector_csv",
    "windows_to_set",
    "split_by_cycle",
    "normalize_labels",
]

CSV_COLUMNS = ("time_s", "voltage_v", "current_a", "temp_c", "soc", "cycle")
# A battery series is one cycle as a numpy record array of these fields.
SERIES_FIELDS = ("t", "v", "i", "temp", "soc", "cycle")

CYCLE_TAGS = ("US06", "HWFET", "UDDS", "LA92", "NN", "Mixed")

# Declared test memberships per dataset; everything else trains.
TEST_CYCLES = {
    "Panasonic": frozenset({"US06", "LA92", "NN"}),
    "LG": frozenset({"US06", "LA92", "HWFET"}),
}

# Rough aggressiveness of each drive cycle, scaling the simulated current.
_CYCLE_CURRENT_SCALE = {
    "US06": 1.5, "LA92": 1.3, "HWFET": 1.1,
    "UDDS": 0.9, "NN": 1.0, "Mixed": 1.0,
}

# The simulated current never drops below this, so a cycle lasts at most
# capacity / _MIN_CURRENT_A seconds.
_MIN_CURRENT_A = 0.3
# Most records one simulated cycle may take (about 400 MB of records).
_MAX_RECORDS_PER_CYCLE = 1_000_000
# Standard deviations of the V, I and T measurement noise.
_NOISE_SD = (2e-3, 5e-3, 0.1)


@dataclasses.dataclass
class LabeledSet:
    """Inputs paired with scalar labels; one row (or window) per sample."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def unlabeled(self) -> np.ndarray:
        """The inputs alone, as train_uga takes a target domain."""
        return self.inputs


def _refuse_non_finite(name: str, array) -> None:
    """Raise ValueError naming the array and its first row holding a nan or an inf."""
    bad = ~np.isfinite(array).all(axis=tuple(range(1, np.ndim(array))))
    if bad.any():
        raise ValueError(f"{name}: non-finite value in row {int(bad.argmax())}")


@dataclasses.dataclass(frozen=True)
class SyntheticShiftSpec:
    """One domain of the cubic family: input x = u*scale + shift for a
    latent u ~ Uniform(-4, 4); the label depends on u only, so shifted
    domains keep a common label range."""

    shift: float = 0.0
    scale: float = 1.0
    noise_sd: float = 0.0
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift!r}")
        # Comparisons with nan are false, so these bounds also reject nan.
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(
                f"noise_sd must be finite and nonnegative, got {self.noise_sd!r}")
        if self.n < 1:
            raise ValueError("n must be positive")


@dataclasses.dataclass(frozen=True)
class LabelBounds:
    """Affine label map fitted on source raw labels."""

    lo: float
    hi: float

    def apply(self, y):
        return (np.asarray(y, dtype=np.float64) - self.lo) / (self.hi - self.lo)


def gen_cubic_shift(spec: SyntheticShiftSpec) -> LabeledSet:
    """One domain with RAW labels: u ~ U(-4,4), x = u*scale + shift,
    y = u^3/64 + noise.  Normalization is applied separately with the
    source domain's bounds (see make_cubic_shift_pair).  A scale, shift or
    noise_sd so large that an input or a label overflows raises ValueError."""
    rng = np.random.default_rng(spec.seed)
    u = rng.uniform(-4.0, 4.0, size=spec.n)
    with np.errstate(over="ignore"):
        x = u * spec.scale + spec.shift
        y = u ** 3 / 64.0
        if spec.noise_sd > 0:
            y = y + rng.normal(0.0, spec.noise_sd, size=spec.n)
    _refuse_non_finite("generated inputs", x)
    _refuse_non_finite("generated labels", y)
    return LabeledSet(x.reshape(-1, 1), y)


def make_cubic_shift_pair(
    source_spec: SyntheticShiftSpec, target_spec: SyntheticShiftSpec
) -> tuple[LabeledSet, LabeledSet, LabelBounds]:
    """Generate both domains and normalize labels with the source bounds.

    Normalized labels are clipped into [0, 1]: label noise can push a few
    raw values marginally outside the fitted source range.
    """
    src = gen_cubic_shift(source_spec)
    tgt = gen_cubic_shift(target_spec)
    src_n, bounds = normalize_labels(src)
    tgt_labels = np.clip(bounds.apply(tgt.labels), 0.0, 1.0)
    return src_n, LabeledSet(tgt.inputs, tgt_labels), bounds


def normalize_labels(source: LabeledSet) -> tuple[LabeledSet, LabelBounds]:
    """Fit min-max bounds on the source raw labels and rescale to [0, 1].

    Returns (normalized_source, bounds); `bounds.apply` maps other labels,
    such as a target domain's held-out ones, through the same map.
    """
    if len(source) == 0:
        raise ValueError("empty source set")
    lo = float(np.min(source.labels))
    hi = float(np.max(source.labels))
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"source label range [{lo!r}, {hi!r}] is empty or overflows")
    bounds = LabelBounds(lo, hi)
    normalized = LabeledSet(source.inputs,
                            np.clip(bounds.apply(source.labels), 0.0, 1.0))
    return normalized, bounds


# -- battery simulation -----------------------------------------------------

def _capacity_as(temp_c: float, capacity_ah: float) -> float:
    """Effective capacity in ampere-seconds; shrinks in the cold."""
    factor = max(0.3, 1.0 + 0.004 * (temp_c - 25.0))
    return capacity_ah * 3600.0 * factor


def _series(columns, tag: str) -> np.recarray:
    """One cycle: the five float columns, with tag in every record."""
    return np.rec.fromarrays([*columns, np.full(len(columns[0]), tag)],
                             names=SERIES_FIELDS)


def gen_battery_curves(temp_c: float, n_cycles: int, seed: int,
                       capacity_ah: float = 0.5, hz: float = 10.0,
                       ) -> list[np.recarray]:
    """Simulate full discharges at one ambient temperature, one record
    array (see SERIES_FIELDS) per cycle.

    Each cycle draws a piecewise-constant random current profile whose
    magnitude follows the tag's aggressiveness; soc falls monotonically
    from exactly 1 to exactly 0.  Lower temperature means less effective
    capacity and a larger resistive voltage sag.  V, I, T carry
    measurement noise; soc (the label) does not.  Raises ValueError when a
    cycle could take more than 1,000,000 records.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if not math.isfinite(temp_c):
        raise ValueError(f"temp_c must be finite, got {temp_c!r}")
    # Comparisons with nan are false, so these bounds also reject nan.
    for name, value in (("capacity_ah", capacity_ah), ("hz", hz)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    q_as = _capacity_as(temp_c, capacity_ah)
    most = q_as * hz / _MIN_CURRENT_A
    if most > _MAX_RECORDS_PER_CYCLE:
        raise ValueError(
            f"temp_c={temp_c!r}, capacity_ah={capacity_ah!r} and hz={hz!r} allow "
            f"up to {most:.3g} records per cycle, more than the cap of "
            f"{_MAX_RECORDS_PER_CYCLE:,}")
    rng = np.random.default_rng(seed)
    resistance = 0.05 * (1.0 + 0.01 * (25.0 - temp_c))
    return [_discharge(rng, CYCLE_TAGS[c % len(CYCLE_TAGS)], temp_c, q_as,
                       resistance, hz)
            for c in range(n_cycles)]


def _discharge(rng, tag, temp_c, q_as, resistance, hz) -> np.recarray:
    """One cycle, built a constant-current segment at a time.

    Draws the same random stream, and computes every value with the same
    float operations in the same order, as stepping one record at a time:
    each record takes one (V, I, T) noise row, in record order, and each
    segment's current and length are drawn after the previous segment's
    last record.  A segment whose length rounds to 0 never ends, so it
    runs to the end of the cycle.
    """
    scale = _CYCLE_CURRENT_SCALE[tag]
    dt = 1.0 / hz
    chunks = []

    def emit(k, drawn, current) -> bool:
        """Records for steps k at cumulative charge drawn; stops at, and
        includes, the first empty record.  True once the cycle is over."""
        soc = np.maximum(0.0, 1.0 - drawn / q_as)
        empty = np.flatnonzero(soc == 0.0)
        if empty.size:
            k, soc = k[:empty[0] + 1], soc[:empty[0] + 1]
        noise = rng.normal(0.0, _NOISE_SD, size=(soc.size, 3))
        # math.exp per record: numpy's exp may round differently.
        sag = np.array([math.exp(x) for x in (-8.0 * soc).tolist()])
        ocv = 3.0 + 1.2 * soc - 0.25 * sag
        chunks.append((k * dt, ocv - current * resistance + noise[:, 0],
                       current + noise[:, 1], temp_c + noise[:, 2], soc))
        return bool(empty.size)

    emit(np.zeros(1, dtype=np.int64), np.zeros(1), 0.0)
    k, drawn = 0, 0.0
    while True:
        current = float(np.clip(rng.uniform(0.5, 4.0) * scale,
                                _MIN_CURRENT_A, 6.0))
        # A length that rounds to 0 never counts down to 0 again, so that
        # segment runs to the end of the cycle.
        segment_left = int(rng.uniform(30.0, 120.0) * hz) or math.inf
        step = current * dt
        while segment_left:
            # Enough steps to empty the cell, give or take rounding; a
            # chunk that falls short is followed by another.
            n = min(int((q_as - drawn) / step) + 2, segment_left)
            # cumsum adds left to right, as `drawn += step` does.
            charge = np.cumsum(np.concatenate(([drawn], np.full(n, step))))[1:]
            if emit(np.arange(k + 1, k + n + 1), charge, current):
                return _series([np.concatenate(c) for c in zip(*chunks)], tag)
            k, drawn = k + n, float(charge[-1])
            segment_left -= n


def write_battery_csv(series_list, path) -> None:
    """Write record arrays in the canonical schema, floats by repr().

    Each row is built as one string; each distinct cycle tag goes through
    csv.writer once, so a tag that needs quoting is written as csv.writer
    writes it.
    """
    tails: dict = {}
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(CSV_COLUMNS)
        for series in series_list:
            columns = [series[name].tolist() for name in SERIES_FIELDS]
            for tag in set(columns[5]) - tails.keys():
                buf = io.StringIO()
                # As the last of two fields, so an empty tag stays empty.
                csv.writer(buf).writerow(("", tag))
                tails[tag] = buf.getvalue()[1:]
            f.write("".join([f"{t!r},{v!r},{i!r},{temp!r},{soc!r},{tails[tag]}"
                             for t, v, i, temp, soc, tag in zip(*columns)]))


def write_vector_csv(path, inputs, labels=None) -> None:
    """Write a flat feature table: columns x0..x{d-1}, plus y when labels
    are given.  Floats use repr() so files round-trip exactly."""
    table = np.asarray(inputs, dtype=float)
    if table.ndim != 2:
        raise ValueError("inputs must be 2-D (samples, features)")
    header = [f"x{j}" for j in range(table.shape[1])]
    if labels is not None:
        labels = np.asarray(labels, dtype=float).ravel()
        if len(labels) != len(table):
            raise ValueError("labels length does not match inputs")
        table, header = np.column_stack((table, labels)), header + ["y"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([[repr(v) for v in row] for row in table.tolist()])


def _csv_rows(f):
    """The non-blank rows of the CSV text file f as (row number, fields).
    Rows are numbered from 1, the header; blank lines are not rows but
    count.  A byte that is not UTF-8 and a malformed row, such as a field
    over the csv module's size limit, raise ValueError naming the file."""
    k = 0
    try:
        for k, row in enumerate(csv.reader(f), start=1):
            if row:
                yield k, row
    except UnicodeDecodeError as e:
        raise ValueError(f"{f.name}: not UTF-8 text: {e}") from None
    except csv.Error as e:
        raise ValueError(f"{f.name}: row {k + 1}: {e}") from None


def read_vector_csv(path):
    """Inverse of write_vector_csv.  Returns (inputs, labels-or-None)."""
    with open(path, newline="") as f:
        reader = _csv_rows(f)
        header = next(reader, (1, None))[1]
        if header is None:
            raise ValueError(f"{path}: vector CSV is empty")
        has_label = header[-1] == "y"
        feat = header[:-1] if has_label else header
        if feat != [f"x{j}" for j in range(len(feat))]:
            raise ValueError(f"{path}: unexpected vector CSV header {header!r}")
        if not feat:
            raise ValueError(f"{path}: vector CSV has no feature columns")
        rows = []
        for k, row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: row {k}: expected {len(header)} fields")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: row {k}: non-numeric field") from None
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{path}: row {k}: non-finite field")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: vector CSV has no data rows")
    table = np.array(rows)
    if not has_label:
        return table, None
    return table[:, :-1].copy(), table[:, -1].copy()


def ingest_battery_csv(path) -> list[np.recarray]:
    """Read the canonical schema, group rows into contiguous per-cycle
    series, and downsample each series to 1 Hz (first sample per
    1-second bucket).  Every row is checked; each series is one record
    array (see SERIES_FIELDS) of the rows the downsampling keeps."""
    with open(path, newline="") as f:
        reader = _csv_rows(f)
        # The last of repeated names wins, as in csv.DictReader.
        position = {name: k for k, name in enumerate(next(reader, (1, []))[1])}
        for col in CSV_COLUMNS:
            if col not in position:
                raise ValueError(f"{path}: battery CSV is missing column {col!r}")
        cols = [position[col] for col in CSV_COLUMNS]
        width = max(cols) + 1
        blocks: list[tuple[str, list]] = []
        tag = last_t = None
        for row_no, row in reader:
            try:
                if len(row) < width:
                    raise ValueError(f"{len(row)} fields, the header names {width}")
                t, *_, soc = values = [float(row[k]) for k in cols[:5]]
            except ValueError as e:
                raise ValueError(f"{path}: bad battery CSV row {row_no}: {e}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value in battery CSV row {row_no}")
            if not 0.0 <= soc <= 1.0:
                raise ValueError(f"{path}: soc {soc} outside [0, 1] at row {row_no}")
            cycle = row[cols[5]]
            if cycle != tag:
                if "\x00" in cycle:  # numpy's str dtype drops trailing NULs
                    raise ValueError(f"{path}: NUL in cycle tag at row {row_no}")
                tag, kept = cycle, []
                blocks.append((tag, kept))
            elif t <= last_t:
                raise ValueError(
                    f"{path}: non-monotone time within cycle {cycle!r} "
                    f"at row {row_no}")
            last_t = t
            if not kept or math.floor(t) != math.floor(kept[-1][0]):
                kept.append(values)
    return [_series(np.array(kept).T, tag) for tag, kept in blocks]


def windows_to_set(series_list, length: int = 100, stride: int = 1) -> LabeledSet:
    """Sliding (V, I, T) windows over every series of at least `length`
    records, every stride-th, stacked into one LabeledSet; a window's label
    is the soc at its final step."""
    if length < 1 or stride < 1:
        raise ValueError(f"length and stride must be >= 1, got {length}, {stride}")
    views, labels = [], []
    for series in series_list:
        if len(series) < length:
            continue
        feats = np.column_stack((series.v, series.i, series.temp))
        # (n - length + 1, 3, length) view -> (windows, length, 3)
        views.append(sliding_window_view(feats, length, axis=0)
                     .transpose(0, 2, 1)[::stride])
        labels.append(series.soc[length - 1::stride])
    if not views:
        raise ValueError("no series long enough to window")
    return LabeledSet(np.concatenate(views), np.concatenate(labels))


def split_by_cycle(series_list, dataset_tag: str):
    """Partition series into (train, test) by the declared test cycles."""
    if dataset_tag not in TEST_CYCLES:
        raise ValueError(f"unknown dataset tag {dataset_tag!r}; "
                         f"expected one of {sorted(TEST_CYCLES)}")
    test_tags = TEST_CYCLES[dataset_tag]
    train, test = [], []
    for series in series_list:
        tag = str(series[0].cycle)
        if tag not in CYCLE_TAGS:
            raise ValueError(f"unknown cycle tag {tag!r}")
        (test if tag in test_tags else train).append(series)
    return train, test
