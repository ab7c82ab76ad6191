import json

import numpy as np
import pytest

from uga import metrics as mt
from uga.data import LabeledSet
from uga.evidential import NigOutput, predictive_interval
from uga.models import CHECKPOINT_VERSION, MlpSpec, build_bundle


def trained_stub(seed=0):
    # an untrained bundle is enough for metric plumbing tests
    return build_bundle(MlpSpec(layer_widths=(2, 6, 4), dropout_p=0.0),
                        seed=seed)


def toy_set(n=40, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    return LabeledSet(x, rng.uniform(0, 1, size=n))


class TestBasicMetrics:
    def test_perfect_fit(self):
        y = np.array([0.2, 0.4, 0.9])
        assert mt.mae(y, y) == 0.0
        assert mt.mse(y, y) == 0.0
        assert mt.r2(y, y) == 1.0

    def test_hand_values(self):
        assert mt.mae([1.0, -1.0], [0.0, 0.0]) == 1.0
        assert mt.mse([1.0, -1.0], [0.0, 0.0]) == 1.0
        assert mt.mae([0.0, 2.0], [0.0, 0.0]) == 1.0
        assert mt.mse([0.0, 2.0], [0.0, 0.0]) == 2.0

    def test_r2_mean_predictor_zero(self):
        labels = np.array([1.0, 2.0, 3.0, 6.0])
        preds = np.full(4, labels.mean())
        assert mt.r2(preds, labels) == 0.0

    def test_r2_swapped_pair(self):
        assert mt.r2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-3.0)

    def test_r2_constant_labels_rejected(self):
        with pytest.raises(ValueError):
            mt.r2([1.0, 2.0], [3.0, 3.0])

    def test_r2_constant_labels_with_inexact_mean_rejected(self):
        labels = [0.4, 0.4, 0.4]
        assert np.mean(labels) != 0.4  # so the squared deviations are not 0
        with pytest.raises(ValueError, match="constant"):
            mt.r2([0.1, 0.2, 0.3], labels)

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError):
            mt.mae([], [])
        with pytest.raises(ValueError):
            mt.mse([1.0], [1.0, 2.0])


class TestCoverage:
    def test_centers_inside(self):
        labels = np.array([0.0, 1.0, 2.0])
        assert mt.coverage((labels - 1, labels + 1), labels) == 1.0

    def test_zero_width(self):
        labels = np.array([0.1, 0.2, 0.3])
        centers = labels + 1e-9
        assert mt.coverage((centers, centers), labels) == 0.0

    def test_partial(self):
        labels = np.array([0.0, 10.0])
        assert mt.coverage((np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                           labels) == 0.5

    def test_mismatched(self):
        with pytest.raises(ValueError):
            mt.coverage((np.zeros(2), np.zeros(2)), np.zeros(3))


def wide_nig(n=6000, seed=79, offset=0.0):
    # alpha from 1 + 1e-6 to past 1e9: every bound and the fallback run.
    rng = np.random.default_rng(seed)
    alpha = 1.0 + rng.exponential(3.0, n) * rng.choice([1e-6, 1.0, 1e3, 1e9], n)
    return NigOutput.from_values(offset + rng.normal(size=n), rng.uniform(0.1, 5, n),
                                 alpha, rng.uniform(0.1, 5, n))


def edge_labels(lo, hi, seed=3):
    """Per row, one of: its interval's ends, one ulp either side of them,
    or a label drawn around it."""
    rng = np.random.default_rng(seed)
    mid, half = 0.5 * (lo + hi), hi - lo
    choices = np.stack([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                        np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
                        mid + half * rng.normal(size=lo.size)])
    return choices[rng.integers(0, len(choices), lo.size), np.arange(lo.size)]


class TestCoveredMatchesPredictiveInterval:
    # evaluate's coverage90 skips predictive_interval's quantile where a
    # bound settles a row; every row must get that interval's answer.
    @pytest.mark.parametrize("offset", [0.0, 1e9])   # 1e9: gamma - y cancels
    def test_rows_at_and_beside_the_ends(self, offset):
        p = wide_nig(offset=offset)
        lo, hi = predictive_interval(p, 0.9)
        y = edge_labels(lo, hi)
        assert np.array_equal(mt._covered90(p, y), (y >= lo) & (y <= hi))

    def test_rows_no_bound_settles(self, monkeypatch):
        nan = lambda *args: np.full(args[-1].shape, np.nan)
        monkeypatch.setattr(mt, "_t95_cornish_fisher", nan)
        monkeypatch.setattr(mt, "_t_tail", nan)
        p = wide_nig(n=500)
        lo, hi = predictive_interval(p, 0.9)
        y = edge_labels(lo, hi)
        assert np.array_equal(mt._covered90(p, y), (y >= lo) & (y <= hi))

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_evaluate_coverage_at_the_ends(self, end, ulps):
        bundle, ds = trained_stub(), toy_set(n=300)
        lo, hi = predictive_interval(mt._forward_chunks(bundle, ds.inputs), 0.9)
        y = lo if end == "lo" else hi
        if ulps:
            y = np.nextafter(y, ulps * np.inf)
        y = np.where(np.arange(y.size) % 3 == 0, ds.labels, y)
        rep = mt.evaluate(bundle, LabeledSet(ds.inputs, y))
        assert rep.coverage90 == mt.coverage((lo, hi), y)


class TestReportInvariants:
    def test_negative_mae_rejected(self):
        with pytest.raises(ValueError):
            mt.MetricsReport(mae=-1.0, mse=0.0, r2=0.0, coverage90=0.9,
                             mean_aleatoric=1.0, mean_epistemic=1.0,
                             mean_total=2.0, posterior_gap=0.0)

    def test_r2_cap(self):
        with pytest.raises(ValueError):
            mt.MetricsReport(mae=0.0, mse=0.0, r2=1.5, coverage90=0.9,
                             mean_aleatoric=1.0, mean_epistemic=1.0,
                             mean_total=2.0, posterior_gap=0.0)


class TestEvaluate:
    def test_reports_all_fields(self):
        bundle = trained_stub()
        ds = toy_set()
        ref = toy_set(seed=2).inputs + 1.0
        rep = mt.evaluate(bundle, ds, reference_inputs=ref)
        for name in ("mae", "mse", "r2", "coverage90", "mean_aleatoric",
                     "mean_epistemic", "mean_total", "posterior_gap"):
            assert np.isfinite(getattr(rep, name))
        assert rep.posterior_gap >= 0.0
        assert rep.mean_total == pytest.approx(
            rep.mean_aleatoric + rep.mean_epistemic)

    def test_no_reference_no_gap(self):
        rep = mt.evaluate(trained_stub(), toy_set())
        assert rep.posterior_gap is None

    def test_deterministic_bit_exact(self):
        ds = toy_set()
        ref = toy_set(seed=3).inputs
        a = mt.evaluate(trained_stub(), ds, reference_inputs=ref)
        b = mt.evaluate(trained_stub(), ds, reference_inputs=ref)
        assert a == b

    def test_chunking_transparent(self):
        ds = toy_set(n=mt.EVAL_CHUNK + 37, seed=5)
        rep = mt.evaluate(trained_stub(), ds)
        single = mt.evaluate(trained_stub(), LabeledSet(ds.inputs[:10],
                                                        ds.labels[:10]))
        assert np.isfinite(rep.mae) and np.isfinite(single.mae)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.evaluate(trained_stub(), LabeledSet(np.zeros((0, 2)), np.zeros(0)))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="^empty reference set$"):
            mt.evaluate(trained_stub(), toy_set(),
                        reference_inputs=np.empty((0, 2)))

    @pytest.mark.parametrize("array", ["dataset inputs", "dataset labels",
                                       "reference inputs"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected_naming_array_and_row(self, array, bad):
        # An infinite input once gave a finite report through tanh's
        # saturation; now every array is checked where it enters.
        ds, ref = toy_set(), toy_set(seed=2).inputs
        target = {"dataset inputs": ds.inputs, "dataset labels": ds.labels,
                  "reference inputs": ref}[array]
        target[6] = bad
        with pytest.raises(ValueError, match=f"^{array}: non-finite value in row 6$"):
            mt.evaluate(trained_stub(), ds, reference_inputs=ref)

    @pytest.mark.parametrize("n, labels", [(1, [0.3]), (5, [0.3] * 5)])
    def test_undefined_r2_is_none(self, n, labels):
        # one row, or constant labels: R^2 is undefined, the rest is scored
        inputs = np.random.default_rng(7).normal(size=(n, 2))
        rep = mt.evaluate(trained_stub(),
                          LabeledSet(inputs, np.array(labels)),
                          reference_inputs=toy_set(seed=2).inputs)
        assert rep.r2 is None
        assert np.isfinite(rep.mae) and np.isfinite(rep.mse)


class TestReport:
    def test_undefined_r2_allowed(self):
        rep = mt.MetricsReport(mae=0.0, mse=0.0, r2=None, coverage90=0.9,
                               mean_aleatoric=0.01, mean_epistemic=0.02,
                               mean_total=0.03, posterior_gap=None)
        assert rep.r2 is None


class TestCsvArtifacts:
    def report(self, **kw):
        base = dict(mae=0.1, mse=0.02, r2=0.9, coverage90=0.91,
                    mean_aleatoric=0.01, mean_epistemic=0.02, mean_total=0.03,
                    posterior_gap=0.005)
        base.update(kw)
        return mt.MetricsReport(**base)

    def test_metrics_round_trip_formatting(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = [mt.MetricsRow("cubic_shift2", "uga_feature", 3,
                              self.report(mae=0.1))]
        mt.write_metrics_csv(path, rows)
        back = mt.read_metrics_csv(path)
        assert back[0]["mae"] == repr(0.1)
        assert float(back[0]["mae"]) == 0.1

    def test_empty_markers(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = [mt.MetricsRow("t", "m", 0, self.report(posterior_gap=None))]
        mt.write_metrics_csv(path, rows)
        back = mt.read_metrics_csv(path)
        assert back[0]["posterior_gap"] == ""

    def test_undefined_r2_written_as_empty_marker(self, tmp_path):
        path = tmp_path / "metrics.csv"
        mt.write_metrics_csv(path, [mt.MetricsRow("t", "m", 0,
                                                  self.report(r2=None))])
        assert mt.read_metrics_csv(path)[0]["r2"] == ""

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            mt.read_metrics_csv(path)

    @pytest.mark.parametrize("row, problem", [
        ("t,m,0,1", "4 fields, the header names 8"),
        ("t,m,0,0.1,0.2,0.3,0.9,,extra", "9 fields, the header names 8"),
        ("t,m,0,abc,,,,", "could not convert string to float: 'abc'"),
        ("t,m,0,nan,,,,", "non-finite metric"),
        ("t,m,0,0.1,,-inf,,", "non-finite metric"),
    ])
    def test_bad_rows_rejected_with_file_and_row(self, tmp_path, row, problem):
        path = tmp_path / "m.csv"
        path.write_text(",".join(mt.METRICS_COLUMNS) + "\nt,m,0,0.1,,,,\n"
                        + row + "\n")
        with pytest.raises(ValueError) as err:
            mt.read_metrics_csv(path)
        assert str(err.value) == f"{path}: bad metrics row 3: {problem}"

    def test_non_utf8_rejected_with_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(",".join(mt.METRICS_COLUMNS).encode() + b"\nt,\xff,0,0.1,,,,\n")
        with pytest.raises(ValueError) as err:
            mt.read_metrics_csv(path)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec "
                                         "can't decode byte 0xff")

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(mt.METRICS_COLUMNS) + "\n\nt,m,0,0.1,,,,\n\n")
        assert mt.read_metrics_csv(path) == [dict(zip(
            mt.METRICS_COLUMNS, ["t", "m", "0", "0.1", "", "", "", ""]))]
        path.write_text(",".join(mt.METRICS_COLUMNS) + "\n\nt,m,0,nan,,,,\n")
        with pytest.raises(ValueError, match="bad metrics row 3: non-finite"):
            mt.read_metrics_csv(path)

    def test_report_table_shape_and_missing_cells(self):
        rows = [
            {"task": "A", "method": "source_only", "seed": "0", "mae": "0.5",
             "mse": "", "r2": "", "coverage90": "", "posterior_gap": ""},
            {"task": "A", "method": "source_only", "seed": "1", "mae": "0.7",
             "mse": "", "r2": "", "coverage90": "", "posterior_gap": ""},
            {"task": "A", "method": "uga_feature", "seed": "0", "mae": "0.2",
             "mse": "", "r2": "", "coverage90": "", "posterior_gap": ""},
            {"task": "B", "method": "source_only", "seed": "0", "mae": "0.4",
             "mse": "", "r2": "", "coverage90": "", "posterior_gap": ""},
        ]
        header, table = mt.build_report_table(rows, metric="mae")
        assert header == ["task", "source_only", "uga_feature"]
        assert table[0] == ["A", repr(0.6), repr(0.2)]  # median of seeds
        assert table[1] == ["B", repr(0.4), ""]  # explicit empty marker

    def test_report_unknown_metric(self):
        with pytest.raises(ValueError):
            mt.build_report_table([], metric="rmse")


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        mt.write_manifest(path, {"alignment": "none"}, 2,
                          {"source": "ab" * 32}, 1.25, metrics_file="m.csv")
        back = json.loads(path.read_text())
        assert back["config"] == {"alignment": "none"}
        assert back["seed"] == 2
        assert back["dataset_fingerprints"] == {"source": "ab" * 32}
        assert back["wall_clock_s"] == 1.25
        assert back["metrics_file"] == "m.csv"
        assert back["artifact_versions"]["package"]

    def test_checkpoint_format_is_the_writers_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        mt.write_manifest(path, {}, 0, {}, 0.0)
        back = json.loads(path.read_text())
        assert back["artifact_versions"]["checkpoint_format"] == CHECKPOINT_VERSION
        assert back["metrics_file"] is None

    def test_fingerprints_stable_and_distinct(self):
        a = np.arange(6.0).reshape(2, 3)
        assert mt.fingerprint_array(a) == mt.fingerprint_array(a.copy())
        assert mt.fingerprint_array(a) != mt.fingerprint_array(a.T)

    def test_fingerprint_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"abc")
        q = tmp_path / "y.bin"
        q.write_bytes(b"abc")
        assert mt.fingerprint_file(p) == mt.fingerprint_file(q)
