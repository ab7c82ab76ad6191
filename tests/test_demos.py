"""Demo 05's uncertainty report: its histogram helpers and one full run."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from uga.models import MlpSpec, build_bundle

_PATH = Path(__file__).resolve().parent.parent / "demos" / "05_uncertainty_report.py"
_spec = importlib.util.spec_from_file_location("uncertainty_report", _PATH)
report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report)


def untrained_bundle(seed=0):
    return build_bundle(MlpSpec(layer_widths=(2, 6, 4), dropout_p=0.0),
                        seed=seed)


class TestHistograms:
    def test_row_count_is_sum_of_domains(self):
        rng = np.random.default_rng(7)
        rows, summary = report.uncertainty_histograms(
            untrained_bundle(), {"source": rng.normal(size=(15, 2)),
                                 "target": rng.normal(size=(25, 2))})
        assert len(rows) == 40
        assert [r[0] for r in rows[:15]] == ["source"] * 15
        assert len(summary) == 2 * len(report.SUMMARY_STATS)

    def test_constant_head_identical_rows(self):
        bundle = untrained_bundle()
        for name, t in bundle.named_parameters():
            t.data[...] = 0.0
        bundle.params["head.b"].data[...] = np.array([[0.3, 0.0, 0.5, -0.1]])
        rows, _ = report.uncertainty_histograms(
            bundle, {"d": np.random.default_rng(1).normal(size=(8, 2))})
        first = rows[0][2:]
        for row in rows[1:]:
            assert row[2:] == first

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            report.uncertainty_histograms(untrained_bundle(),
                                          {"d": np.zeros((0, 2))})


def test_demo_writes_its_artifacts(tmp_path, capsys):
    report.main(tmp_path)
    assert "writing artifacts under" in capsys.readouterr().out
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 5  # header + 2 methods x 2 seeds
    hist = (tmp_path / "uncertainty.csv").read_text().splitlines()
    assert hist[0] == ",".join(report.HISTOGRAM_COLUMNS)
    assert len(hist) == 1 + 800 + 800
    assert (tmp_path / "report.csv").read_text().startswith(
        "task,source_only,uga_feature")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["metrics_file"] == "metrics.csv"
