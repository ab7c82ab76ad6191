import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uga import cli
from uga.data import ingest_battery_csv, read_vector_csv
from uga.gradcheck import CheckResult
from uga.metrics import METRICS_COLUMNS, read_metrics_csv


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) > 1),
    reason="gradcheck forks only where os.fork and a second CPU exist")


@pytest.fixture()
def tiny_data(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["datagen", "--kind", "cubic", "--out", str(out),
                     "--n", "120", "--seed", "3"]) == 0
    return out


def write_config(path, **overrides):
    cfg = {"alignment": "none", "iterations": 12, "batch_size": 32,
           "lr": 0.003, "seed": 1}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run_train(tmp_path, data_dir, out_name="run", **overrides):
    cfg = write_config(tmp_path / f"{out_name}_cfg.json", **overrides)
    out_dir = tmp_path / out_name
    argv = ["train", "--config", str(cfg),
            "--source", str(data_dir / "source.csv"),
            "--out-dir", str(out_dir), "--hidden", "8,8"]
    if overrides.get("alignment", "none") != "none":
        argv += ["--target", str(data_dir / "target.csv")]
    assert cli.main(argv) == 0
    return out_dir


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "datagen" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "uga.cli", "nope"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


class TestDatagen:
    def test_cubic_outputs(self, tiny_data):
        x, y = read_vector_csv(tiny_data / "source.csv")
        assert x.shape == (120, 1)
        assert y.min() >= 0.0 and y.max() <= 1.0
        bounds = json.loads((tiny_data / "bounds.json").read_text())
        assert bounds["lo"] < bounds["hi"]

    def test_cubic_target_shifted(self, tiny_data):
        xs, _ = read_vector_csv(tiny_data / "source.csv")
        xt, _ = read_vector_csv(tiny_data / "target.csv")
        assert abs(xt.mean() - xs.mean() - 2.0) < 0.5

    def test_cubic_deterministic(self, tmp_path):
        for name in ("a", "b"):
            cli.main(["datagen", "--kind", "cubic", "--out",
                      str(tmp_path / name), "--n", "50", "--seed", "9"])
        for fname in ("source.csv", "target.csv", "bounds.json"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                   (tmp_path / "b" / fname).read_bytes()

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys):
        # 10^17 float64 rows (711 PiB) exceed any address space, so numpy's
        # request fails at once even on a host that overcommits memory.
        capsys.readouterr()
        assert cli.main(["datagen", "--kind", "cubic", "--out", str(tmp_path / "d"),
                         "--n", str(10 ** 17)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("datagen failed: Unable to allocate ")
        assert err.count("\n") == 1 and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag,value,array", [("--scale", "1e308", "inputs"),
                                                   ("--noise", "1e308", "labels"),
                                                   ("--noise", "4e307", "label range")])
    def test_overflowing_cubic_flags_exit_2_writing_nothing(self, tmp_path, capsys,
                                                           flag, value, array):
        capsys.readouterr()
        assert cli.main(["datagen", "--kind", "cubic", "--out", str(tmp_path / "d"),
                         flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad datagen flags: ") and array in err
        assert err.count("\n") == 1 and not (tmp_path / "d").exists()

    def test_battery_schema(self, tmp_path):
        out = tmp_path / "cells" / "pack.csv"
        assert cli.main(["datagen", "--kind", "battery", "--out", str(out),
                         "--temp", "-10", "--cycles", "2", "--seed", "0",
                         "--capacity-ah", "0.05"]) == 0
        series = ingest_battery_csv(out)
        assert len(series) == 2
        assert all(0.0 <= r.soc <= 1.0 for s in series for r in s)


class TestTrain:
    def test_writes_artifacts(self, tmp_path, tiny_data):
        out = run_train(tmp_path, tiny_data)
        assert (out / "checkpoint.bin").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,supervised,alignment,lambda"
        assert len(history) == 13  # header + one row per iteration
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alignment"] == "none"
        assert manifest["seed"] == 1
        assert "source" in manifest["dataset_fingerprints"]

    def test_alignment_run(self, tmp_path, tiny_data):
        out = run_train(tmp_path, tiny_data, out_name="uga",
                        alignment="uga_posterior")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alignment"] == "uga_posterior"
        assert "target" in manifest["dataset_fingerprints"]

    def test_deterministic_artifacts(self, tmp_path, tiny_data):
        a = run_train(tmp_path, tiny_data, out_name="r1")
        b = run_train(tmp_path, tiny_data, out_name="r2")
        assert (a / "checkpoint.bin").read_bytes() == \
               (b / "checkpoint.bin").read_bytes()
        assert (a / "history.csv").read_bytes() == \
               (b / "history.csv").read_bytes()

    def test_malformed_json_config(self, tmp_path, tiny_data, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = cli.main(["train", "--config", str(cfg),
                         "--source", str(tiny_data / "source.csv"),
                         "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "bad config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, tiny_data, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"alignment": "none", "warmup": 5}))
        assert cli.main(["train", "--config", str(cfg),
                         "--source", str(tiny_data / "source.csv"),
                         "--out-dir", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    def test_missing_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.main(["train", "--config", str(cfg),
                         "--source", str(tmp_path / "absent.csv"),
                         "--out-dir", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    def test_diverging_run_exits_1_with_one_line(self, tmp_path, tiny_data):
        # lr=1e308 overflows in Adam's step; numpy's warnings on the way to
        # the loop's own finiteness check must not reach stderr.
        cfg = tmp_path / "huge_lr.json"
        cfg.write_text(json.dumps({"iterations": 2, "lr": 1e308}))
        proc = subprocess.run(
            [sys.executable, "-m", "uga.cli", "train", "--config", str(cfg),
             "--source", str(tiny_data / "source.csv"),
             "--out-dir", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("training failed:")
        assert "iteration" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_overflowing_embedding_names_its_iteration(self, tmp_path, tiny_data):
        # aug_weight=1e308 overflows the augmented embedding in iteration 1,
        # before any MMD can be taken.
        cfg = write_config(tmp_path / "huge_aug.json", alignment="uga_feature",
                           aug_weight=1e308)
        proc = subprocess.run(
            [sys.executable, "-m", "uga.cli", "train", "--config", str(cfg),
             "--source", str(tiny_data / "source.csv"),
             "--target", str(tiny_data / "target.csv"),
             "--out-dir", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("training failed: iteration 1: ")
        assert "finite" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, tiny_data,
                                                 monkeypatch, capsys):
        # Stands in for the allocation a huge batch_size asks for; making it
        # for real could fill RAM on a host that overcommits memory.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(cli, "train_uga", out_of_memory)
        cfg = write_config(tmp_path / "cfg.json", batch_size=100_000_000_000)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg),
                         "--source", str(tiny_data / "source.csv"),
                         "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            "training failed: Unable to allocate 745. GiB for an array\n"

    @pytest.mark.parametrize("alignment", ["uga_feature", "uga_posterior"])
    def test_aligned_run_without_target_exits_2(self, tmp_path, tiny_data, capsys,
                                                alignment):
        config = write_config(tmp_path / "cfg.json", alignment=alignment)
        capsys.readouterr()
        assert cli.main(_train_argv(tmp_path, tiny_data, tmp_path / "run", config)) == 2
        assert capsys.readouterr().err == f"error: {alignment} alignment needs --target\n"
        assert not (tmp_path / "run").exists()

    def test_bad_hidden_flag(self, tmp_path, tiny_data, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.main(["train", "--config", str(cfg),
                         "--source", str(tiny_data / "source.csv"),
                         "--out-dir", str(tmp_path / "x"),
                         "--hidden", "8,oops"]) == 2
        capsys.readouterr()


class TestEval:
    def test_metrics_and_manifest(self, tmp_path, tiny_data):
        run = run_train(tmp_path, tiny_data)
        out = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(out), "--task", "cubic",
                         "--method", "source_only", "--seed", "1"]) == 0
        rows = read_metrics_csv(out)
        assert len(rows) == 1
        for key in ("mae", "mse", "r2"):
            assert np.isfinite(float(rows[0][key]))
        assert rows[0]["posterior_gap"] == ""
        manifest = json.loads((tmp_path / "metrics.manifest.json").read_text())
        assert manifest["metrics_file"] == "metrics.csv"
        assert "checkpoint" in manifest["dataset_fingerprints"]

    def test_reference_adds_gap(self, tmp_path, tiny_data):
        run = run_train(tmp_path, tiny_data)
        out = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(out), "--task", "cubic",
                         "--method", "source_only",
                         "--reference", str(tiny_data / "source.csv")]) == 0
        gap = float(read_metrics_csv(out)[0]["posterior_gap"])
        assert gap >= 0.0

    def test_rerun_bit_identical(self, tmp_path, tiny_data):
        run = run_train(tmp_path, tiny_data)
        argv = ["eval", "--checkpoint", str(run / "checkpoint.bin"),
                "--data", str(tiny_data / "target.csv"),
                "--task", "cubic", "--method", "source_only"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_checkpoint(self, tmp_path, tiny_data, capsys):
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        capsys.readouterr()

    def test_unlabeled_data_rejected(self, tmp_path, tiny_data, capsys):
        from uga.data import write_vector_csv
        run = run_train(tmp_path, tiny_data)
        bare = tmp_path / "bare.csv"
        write_vector_csv(bare, np.zeros((4, 1)))
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(bare),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        assert "label" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", ["--data", "--reference"])
    @pytest.mark.parametrize("ckpt_width, bad_width", [(2, 1), (1, 3)])
    def test_input_width_mismatch_exits_2(self, tmp_path, capsys, flag,
                                          ckpt_width, bad_width):
        from uga.data import write_vector_csv
        rng = np.random.default_rng(0)
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        write_vector_csv(train_dir / "source.csv",
                         rng.normal(size=(40, ckpt_width)), rng.normal(size=40))
        run = run_train(tmp_path, train_dir, iterations=2)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_vector_csv(good, rng.normal(size=(5, ckpt_width)), rng.normal(size=5))
        write_vector_csv(bad, rng.normal(size=(5, bad_width)), rng.normal(size=5))
        data, ref = (bad, good) if flag == "--data" else (good, bad)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(data), "--reference", str(ref),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: {bad_width} input columns, "
            f"the checkpoint expects {ckpt_width}\n")
        assert not (tmp_path / "m.csv").exists()

    def test_sequence_checkpoint_exits_2(self, tmp_path, tiny_data, capsys):
        from uga.models import SeqEncoderSpec, build_bundle, save_checkpoint
        ckpt = tmp_path / "seq.bin"
        save_checkpoint(build_bundle(SeqEncoderSpec(window_len=4)), ckpt)
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        assert "seq extractor" in capsys.readouterr().err


    @pytest.mark.parametrize("labels", [[0.4], [0.4, 0.4, 0.4]])
    def test_undefined_r2_writes_empty_cell(self, tmp_path, tiny_data, capsys,
                                            labels):
        # one row, or constant labels: R^2 is undefined
        from uga.data import write_vector_csv
        run = run_train(tmp_path, tiny_data)
        data = tmp_path / "few.csv"
        write_vector_csv(data, np.linspace(-1.0, 1.0, len(labels))[:, None],
                         np.array(labels))
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(data), "--out", str(out),
                         "--task", "t", "--method", "m",
                         "--reference", str(tiny_data / "source.csv")]) == 0
        row = read_metrics_csv(out)[0]
        assert row["r2"] == ""
        assert np.isfinite(float(row["mae"]))
        assert float(row["posterior_gap"]) >= 0.0
        report = tmp_path / "report.csv"
        assert cli.main(["report", str(out), "--metric", "r2",
                         "--out", str(report)]) == 0
        assert report.read_text().splitlines() == ["task,m", "t,"]
        capsys.readouterr()

    def test_malformed_checkpoint_spec_exits_2(self, tmp_path, tiny_data,
                                               capsys):
        run = run_train(tmp_path, tiny_data)
        ckpt = run / "checkpoint.bin"
        lines = ckpt.read_bytes().split(b"\n")
        spec = next(i for i, l in enumerate(lines) if l.startswith(b"spec "))
        lines[spec] = lines[spec].replace(b'"layer_widths": [1, 8, 8]',
                                          b'"layer_widths": 8')
        ckpt.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint:") and err.count("\n") == 1
        assert "layer_widths" in err

    def test_point_head_checkpoint_exits_2(self, tmp_path, tiny_data, capsys):
        run = run_train(tmp_path, tiny_data)
        ckpt = run / "checkpoint.bin"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data.replace(b"\nhead evidential\n", b"\nhead point\n"))
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        assert capsys.readouterr().err == \
            "error: bad checkpoint: unsupported head 'point'\n"

    def test_non_finite_checkpoint_exits_2(self, tmp_path, tiny_data, capsys):
        from uga.models import load_checkpoint, save_checkpoint
        run = run_train(tmp_path, tiny_data)
        ckpt = run / "checkpoint.bin"
        bundle = load_checkpoint(ckpt)
        bundle.params["head.W"].data[0, 0] = np.nan
        save_checkpoint(bundle, ckpt)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(tiny_data / "target.csv"),
                         "--out", str(tmp_path / "m.csv"),
                         "--task", "t", "--method", "m"]) == 2
        assert capsys.readouterr().err == (
            "error: bad checkpoint: non-finite value in parameter head.W\n")
        assert not (tmp_path / "m.csv").exists()

    def test_overflowing_checkpoint_exits_1_with_one_line(self, tmp_path,
                                                          tiny_data):
        # Finite head weights of 1.5e308 pass load_checkpoint but overflow
        # the head; numpy's overflow warnings must not reach stderr, and no
        # metrics file is written.
        from uga.models import load_checkpoint, save_checkpoint
        run = run_train(tmp_path, tiny_data)
        ckpt = run / "checkpoint.bin"
        bundle = load_checkpoint(ckpt)
        bundle.params["head.W"].data[:] = 1.5e308
        save_checkpoint(bundle, ckpt)
        proc = subprocess.run(
            [sys.executable, "-m", "uga.cli", "eval", "--checkpoint", str(ckpt),
             "--data", str(tiny_data / "target.csv"),
             "--out", str(tmp_path / "m.csv"), "--task", "t", "--method", "m"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("eval failed: ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_infinite_mae_exits_1_with_one_line(self, tmp_path, tiny_data):
        # A huge gamma column keeps every prediction finite (below 1e308),
        # but the mean absolute error overflows to inf; no metrics row with
        # mae=inf may be written.
        from uga.models import load_checkpoint, save_checkpoint
        run = run_train(tmp_path, tiny_data)
        ckpt = run / "checkpoint.bin"
        bundle = load_checkpoint(ckpt)
        bundle.params["head.W"].data[:, 0] = 1.5e308
        save_checkpoint(bundle, ckpt)
        proc = subprocess.run(
            [sys.executable, "-m", "uga.cli", "eval", "--checkpoint", str(ckpt),
             "--data", str(tiny_data / "target.csv"),
             "--out", str(tmp_path / "m.csv"), "--task", "t", "--method", "m"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "eval failed: mae, mse and r2 must be finite\n"
        assert proc.stdout == ""
        assert not (tmp_path / "m.csv").exists()


class TestGradcheck:
    def test_passing_build(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_failure_exit_code(self, monkeypatch, capsys):
        fake = [CheckResult(name="primitives", error=1.0, tol=1e-5)]
        monkeypatch.setattr(cli.gc, "run_all", lambda seed=0: fake)
        assert cli.main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @needs_fork
    def test_output_same_in_one_process(self, monkeypatch, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        forked = capsys.readouterr()
        monkeypatch.delattr(os, "fork")
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        assert capsys.readouterr() == forked

    @needs_fork
    def test_dead_probe_worker_is_one_line(self, monkeypatch, capsys):
        parent, difference = os.getpid(), cli.gc._difference

        def dies_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return difference(*args)

        monkeypatch.setattr(cli.gc, "_difference", dies_in_child)
        assert cli.main(["gradcheck", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"gradcheck failed: probe worker \d+ exited with "
                            r"status 3 without a result\n", captured.err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestReport:
    METHODS = ("source_only", "plain_mmd", "uga_feature", "uga_posterior")

    def make_metrics(self, tmp_path, tiny_data):
        run = run_train(tmp_path, tiny_data)
        paths = []
        for method in self.METHODS:
            out = tmp_path / f"m_{method}.csv"
            assert cli.main(["eval",
                             "--checkpoint", str(run / "checkpoint.bin"),
                             "--data", str(tiny_data / "target.csv"),
                             "--out", str(out), "--task", "cubic",
                             "--method", method]) == 0
            paths.append(str(out))
        return paths

    def test_four_method_columns(self, tmp_path, tiny_data, capsys):
        paths = self.make_metrics(tmp_path, tiny_data)
        out = tmp_path / "report.csv"
        assert cli.main(["report", *paths, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        # method columns keep first-appearance order across the input files
        assert lines[0] == "task,source_only,plain_mmd,uga_feature,uga_posterior"
        assert len(lines) == 2
        assert lines[1].count(",") == 4
        assert "" not in lines[1].split(",")

    def test_unknown_metric(self, tmp_path, tiny_data, capsys):
        paths = self.make_metrics(tmp_path, tiny_data)
        assert cli.main(["report", *paths, "--metric", "rmse",
                         "--out", str(tmp_path / "r.csv")]) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "ghost.csv"),
                         "--out", str(tmp_path / "r.csv")]) == 2
        capsys.readouterr()


# Inputs that used to end in a traceback, in the wrong exit code or in a bad
# output file.  Each row builds an argv from (tmp_path, cubic data dir, a
# regular file); `blocker` stands where a directory is needed.  `{tmp}` in a
# message stands for tmp_path.
def _eval_argv(tmp, data, blocker, out=None):
    run = run_train(tmp, data)
    out = blocker / "m.csv" if out is None else out
    return ["eval", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data / "target.csv"), "--out", str(out),
            "--task", "t", "--method", "m"]


def _report_into_dir(tmp, data, blocker):
    metrics = tmp / "m.csv"
    assert cli.main(_eval_argv(tmp, data, blocker, out=metrics)) == 0
    return ["report", str(metrics), "--out", str(tmp)]


def _train_over_checkpoint_dir(tmp, data, blocker):
    (tmp / "run" / "checkpoint.bin").mkdir(parents=True)
    return _train_argv(tmp, data, tmp / "run")


def _datagen_over_source_dir(tmp, data, blocker):
    (tmp / "d" / "source.csv").mkdir(parents=True)
    return _datagen_argv(tmp, "cubic", "--n", "10")


def _train_argv(tmp, data, out_dir, config=None):
    config = config or write_config(tmp / "cfg.json")
    return ["train", "--config", str(config), "--source",
            str(data / "source.csv"), "--out-dir", str(out_dir)]


def _wide_target_argv(tmp, data, blocker):
    from uga.data import write_vector_csv
    write_vector_csv(tmp / "wide.csv", np.zeros((4, 2)))
    config = write_config(tmp / "cfg.json", alignment="uga_feature")
    return _train_argv(tmp, data, tmp / "run", config) + [
        "--target", str(tmp / "wide.csv")]


def _report_on_row(row):
    """A report over one metrics file whose only data row is `row`."""
    def build(tmp, data, blocker):
        metrics = tmp / "m.csv"
        metrics.write_text(",".join(METRICS_COLUMNS) + "\n" + row + "\n",
                           errors="surrogateescape")
        return ["report", str(metrics), "--metric", "r2", "--out", str(tmp / "r.csv")]
    return build


def _train_on_source(text):
    """`uga train` with a source CSV holding `text`."""
    def build(tmp, data, blocker):
        (tmp / "bad.csv").write_text(text, errors="surrogateescape")
        return ["train", "--config", str(write_config(tmp / "cfg.json")),
                "--source", str(tmp / "bad.csv"), "--out-dir", str(tmp / "run")]
    return build


def _eval_on_data(name, text):
    """`uga eval` of a fresh checkpoint on a data CSV `name` holding `text`."""
    def build(tmp, data, blocker):
        (tmp / name).write_text(text)
        run = run_train(tmp, data)
        return ["eval", "--checkpoint", str(run / "checkpoint.bin"),
                "--data", str(tmp / name), "--out", str(tmp / "m.csv"),
                "--task", "t", "--method", "m"]
    return build


# An array nested deeper than the json parser's recursion limit.
_DEEP_JSON = "[" * 200_000


def _deep_config_argv(tmp, data, blocker):
    """`uga train` with a config that is a deeply nested array."""
    (tmp / "deep.json").write_text(_DEEP_JSON)
    return _train_argv(tmp, data, tmp / "run", tmp / "deep.json")


def _deep_checkpoint_argv(tmp, data, blocker):
    """`uga eval` of a checkpoint whose spec line is a deeply nested array."""
    argv = _eval_argv(tmp, data, blocker, out=tmp / "m.csv")
    ckpt = tmp / "run" / "checkpoint.bin"
    lines = ckpt.read_bytes().split(b"\n")
    spec = next(i for i, l in enumerate(lines) if l.startswith(b"spec "))
    lines[spec] = b"spec " + _DEEP_JSON.encode()
    ckpt.write_bytes(b"\n".join(lines))
    return argv


# One field over the csv module's size limit, 131,072 characters.
_HUGE_FIELD = "1" * 131_073


def _datagen_argv(tmp, kind, *flags):
    out = tmp / ("b.csv" if kind == "battery" else "d")
    return ["datagen", "--kind", kind, "--out", str(out), *flags]


def _latin1_config(tmp):
    path = tmp / "latin1.json"
    path.write_bytes(b'{"alignment": "none", "seed": 1}  # caf\xe9')
    return path


_EXIT_2_PROBES = [
    ("datagen_n_zero", "bad datagen flags",
     lambda tmp, data, blocker: ["datagen", "--kind", "cubic",
                                 "--out", str(tmp / "d"), "--n", "0"]),
    ("datagen_negative_noise", "bad datagen flags",
     lambda tmp, data, blocker: ["datagen", "--kind", "cubic",
                                 "--out", str(tmp / "d"), "--noise", "-1"]),
    ("datagen_battery_zero_cycles", "bad datagen flags",
     lambda tmp, data, blocker: ["datagen", "--kind", "battery",
                                 "--out", str(tmp / "b.csv"), "--cycles", "0"]),
    ("datagen_cubic_out_is_file", "cannot create directory",
     lambda tmp, data, blocker: ["datagen", "--kind", "cubic",
                                 "--out", str(blocker), "--n", "10"]),
    ("datagen_battery_out_under_file", "cannot create directory",
     lambda tmp, data, blocker: ["datagen", "--kind", "battery",
                                 "--out", str(blocker / "b.csv"),
                                 "--cycles", "1", "--capacity-ah", "0.05"]),
    ("train_out_dir_is_file", "cannot create directory",
     lambda tmp, data, blocker: _train_argv(tmp, data, blocker)),
    ("train_out_dir_under_file", "cannot create directory",
     lambda tmp, data, blocker: _train_argv(tmp, data, blocker / "run")),
    ("train_config_not_utf8", "cannot read config",
     lambda tmp, data, blocker: _train_argv(tmp, data, tmp / "run",
                                            _latin1_config(tmp))),
    ("train_config_optimizer_key", "bad config:",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "sgd.json", optimizer="sgd"))),
    ("train_config_per_group_lr", "bad config:",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run",
         write_config(tmp / "lrs.json", lr={"head": 0.01, "extractor": 0.001}))),
    ("eval_out_under_file", "cannot create directory", _eval_argv),
    ("datagen_battery_zero_hz", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--hz", "0")),
    ("datagen_battery_negative_hz", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--hz", "-10")),
    ("datagen_battery_zero_capacity", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--capacity-ah", "0")),
    ("datagen_battery_nan_temp", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--temp", "nan")),
    ("datagen_battery_huge_temp", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--temp", "1e308",
                                              "--capacity-ah", "0.01")),
    ("datagen_battery_huge_hz", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--hz", "1e12")),
    ("datagen_battery_huge_capacity", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "battery", "--capacity-ah", "1e15")),
    ("datagen_cubic_nan_scale", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "cubic", "--scale", "nan")),
    ("datagen_cubic_inf_shift", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "cubic", "--shift", "inf")),
    ("datagen_cubic_nan_noise", "bad datagen flags",
     lambda tmp, data, blocker: _datagen_argv(tmp, "cubic", "--noise", "nan")),
    ("train_config_negative_seed", "bad config:",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "seed.json", seed=-1))),
    ("train_config_plain_mmd", "bad config:",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "mmd.json", alignment="plain_mmd"))),
    ("train_config_coral", "bad config:",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "coral.json", alignment="coral"))),
    ("train_config_null_alignment", "bad config: None is not a valid AlignmentKind\n",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "null.json", alignment=None))),
    ("train_config_deep_nesting", "bad config: config JSON nests too deeply\n",
     _deep_config_argv),
    ("eval_checkpoint_deep_spec",
     "bad checkpoint: corrupt checkpoint: spec JSON nests too deeply\n",
     _deep_checkpoint_argv),
    ("train_aligned_without_target", "uga_feature alignment needs --target\n",
     lambda tmp, data, blocker: _train_argv(
         tmp, data, tmp / "run", write_config(tmp / "cfg.json", alignment="uga_feature"))),
    ("train_target_width_mismatch", "{tmp}/wide.csv: 2 input columns, the source has 1",
     _wide_target_argv),
    ("gradcheck_negative_seed", "--seed must be >= 0",
     lambda tmp, data, blocker: ["gradcheck", "--seed", "-1"]),
    ("eval_negative_seed", "--seed must be >= 0",
     lambda tmp, data, blocker: [*_eval_argv(tmp, data, blocker, out=tmp / "m.csv"),
                                 "--seed", "-1"]),
    # A directory standing where an output file goes.
    ("datagen_battery_out_is_dir", "cannot write {tmp}: ",
     lambda tmp, data, blocker: ["datagen", "--kind", "battery", "--out", str(tmp),
                                 "--cycles", "1", "--capacity-ah", "0.05"]),
    ("datagen_cubic_source_is_dir", "cannot write {tmp}/d/source.csv: ",
     _datagen_over_source_dir),
    ("eval_out_is_dir", "cannot write {tmp}: ",
     lambda tmp, data, blocker: _eval_argv(tmp, data, blocker, out=tmp)),
    ("report_out_is_dir", "cannot write {tmp}: ", _report_into_dir),
    ("train_checkpoint_is_dir", "cannot write {tmp}/run/checkpoint.bin: ",
     _train_over_checkpoint_dir),
    # Metrics rows are checked where they are read.
    ("report_short_row", "{tmp}/m.csv: bad metrics row 2: 4 fields, the header names 8",
     _report_on_row("t,m,0,1")),
    ("report_extra_field", "{tmp}/m.csv: bad metrics row 2: 9 fields",
     _report_on_row("t,m,0,0.1,,,,,x")),
    ("report_non_numeric_metric", "{tmp}/m.csv: bad metrics row 2: could not convert",
     _report_on_row("t,m,0,abc,,,,")),
    ("report_nan_mae", "{tmp}/m.csv: bad metrics row 2: non-finite metric",
     _report_on_row("t,m,0,nan,,,,")),
    # A vector CSV's errors name its path once.
    ("train_source_non_numeric", "{tmp}/bad.csv: row 3: non-numeric field\n",
     _train_on_source("x0,y\n0.0,0.5\n1.0,oops\n")),
    ("train_source_bad_header", "{tmp}/bad.csv: unexpected vector CSV header",
     _train_on_source("a,y\n0.0,0.5\n")),
    ("eval_data_empty", "{tmp}/empty.csv: vector CSV is empty\n",
     _eval_on_data("empty.csv", "")),
    # A byte that is not UTF-8 is a format error naming the file.
    ("train_source_not_utf8", "{tmp}/bad.csv: not UTF-8 text: 'utf-8' codec can't "
     "decode byte 0xff in position 13: invalid start byte\n",
     _train_on_source("x0,y\n0.0,0.5\n\udcff\n")),
    ("report_not_utf8", "{tmp}/m.csv: not UTF-8 text: ", _report_on_row("t,m,0,\udcff")),
    # A field too large for the csv module is a format error naming the row.
    ("train_source_huge_field", "{tmp}/bad.csv: row 3: field larger than field limit",
     _train_on_source(f"x0,y\n0.0,0.5\n{_HUGE_FIELD},0.5\n")),
    ("eval_data_huge_field", "{tmp}/huge.csv: row 2: field larger than field limit",
     _eval_on_data("huge.csv", f"x0,y\n{_HUGE_FIELD},0.5\n")),
    ("report_huge_field", "{tmp}/m.csv: row 2: field larger than field limit",
     _report_on_row(f"t,m,0,{_HUGE_FIELD},,,,")),
]


@pytest.mark.parametrize("build_argv,message",
                         [(build, msg) for _, msg, build in _EXIT_2_PROBES],
                         ids=[name for name, _, _ in _EXIT_2_PROBES])
def test_bad_invocation_exits_2_with_one_error_line(build_argv, message,
                                                     tmp_path, tiny_data, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    argv = build_argv(tmp_path, tiny_data, blocker)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1
    if message.startswith("bad config"):   # refused before training
        assert not (tmp_path / "run" / "checkpoint.bin").exists()


# Arbitrary bytes as a config or a source CSV, through the whole `train`
# path: every outcome is a documented exit code, and a failure says why on
# stderr without a traceback.
_FUZZ_SETTINGS = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def _train_exits_cleanly(capsys, config, source, out_dir):
    capsys.readouterr()
    code = cli.main(["train", "--config", str(config), "--source", str(source),
                     "--out-dir", str(out_dir), "--hidden", "4"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.strip()
        assert "Traceback" not in err


_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4),
    st.sampled_from(["none", "uga_feature", "uga_posterior"]))
# JSON objects over the config's keys (and one unknown key); iterations is
# always present and small, so a valid config trains in milliseconds.
_CONFIG_OBJECTS = st.fixed_dictionaries(
    {"iterations": st.one_of(st.integers(-1, 2), _CONFIG_VALUES)},
    optional={key: _CONFIG_VALUES for key in (
        "alignment", "lambda_evi", "lr", "batch_size", "seed", "aug_weight",
        "clip_norm", "warmup")},
).map(lambda d: json.dumps(d).encode())
_CSV_CELLS = st.one_of(st.sampled_from(["0", "1.5", "-2e3", "0.25"]),
                       st.sampled_from(["nan", "inf", "1e400", "", "a", " y"]))


@st.composite
def _csv_tables(draw):
    """A header of 0-3 columns, mostly ending in y, then rows that mostly
    match its width and hold numbers."""
    width = draw(st.integers(0, 3))
    header = [f"x{j}" for j in range(width - 1)] + ["y"] if width else []
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    rows = draw(st.lists(
        st.one_of(st.lists(_CSV_CELLS, min_size=width, max_size=width),
                  st.lists(_CSV_CELLS, max_size=4)), max_size=6))
    return "\n".join(",".join(row) for row in [header, *rows]).encode()


class TestFuzzTrain:
    @_FUZZ_SETTINGS
    @given(raw=st.one_of(st.binary(max_size=200), _CONFIG_OBJECTS))
    def test_config_bytes(self, raw, tmp_path, capsys):
        source = tmp_path / "source.csv"
        source.write_text("x0,y\n0.0,0.0\n1.0,1.0\n2.0,0.5\n")
        config = tmp_path / "fuzzed.json"
        config.write_bytes(raw)
        _train_exits_cleanly(capsys, config, source, tmp_path / "run")

    @_FUZZ_SETTINGS
    @given(raw=st.one_of(st.binary(max_size=200), _csv_tables()))
    def test_source_csv_bytes(self, raw, tmp_path, capsys):
        config = write_config(tmp_path / "one.json", iterations=1, batch_size=4)
        source = tmp_path / "fuzzed.csv"
        source.write_bytes(raw)
        _train_exits_cleanly(capsys, config, source, tmp_path / "run")
