import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sedmtl import cli, networks, training
from sedmtl.data import read_manifest
from sedmtl.features import compute_band_stats, read_feature_cache, write_feature_cache
from sedmtl.fixture import generate_fixture


@pytest.fixture(scope="module")
def fixture_dataset(tmp_path_factory):
    """Small fixture dataset, ingested with features extracted."""
    root = tmp_path_factory.mktemp("fixture")
    info = generate_fixture(root / "data", clip_seconds=1.0)
    out = root / "ingested"
    feats = root / "features"
    assert cli.main([
        "ingest",
        "--metadata", str(info.metadata_path),
        "--annotations", str(info.annotations_dir),
        "--out", str(out),
        "--folds", "2",
        "--seed", "0",
    ]) == 0
    assert cli.main(["features", "--manifest", str(out / "manifest.json"), "--out", str(feats)]) == 0
    return {
        "info": info,
        "manifest": out / "manifest.json",
        "vocabulary": out / "vocabulary.json",
        "features": feats,
        "root": root,
    }


def nan_features_dir(ds, dest):
    """A copy of the fixture's feature caches with one NaN in one clip."""
    shutil.copytree(ds["features"], dest)
    spec = read_feature_cache(dest / "home_0.sdfc", "home_0")
    spec.data[10, 20] = np.nan
    write_feature_cache(dest / "home_0.sdfc", spec)
    return dest


def refuse_to_load(monkeypatch, *extra):
    """Make training, example loading and any `(module, name)` in `extra`
    fail if called: a config error must stop a command before them."""

    def refuse(*args, **kwargs):
        raise AssertionError("called after an invalid config")

    targets = [(training, "train_student"), (training, "train_teacher"), (cli, "_load_examples")]
    for module, name in targets + list(extra):
        monkeypatch.setattr(module, name, refuse)


def train_config_doc(ds, out_dir, mode, **train_overrides):
    train = dict(
        mode=mode, learning_rate=1e-3, batch_size=8, max_epochs=2,
        patience=5, seed=0, fold=-1, chunk_len=50,
    )
    train.update(train_overrides)
    return {
        "train": train,
        "paths": {
            "manifest": str(ds["manifest"]),
            "vocabulary": str(ds["vocabulary"]),
            "features_dir": str(ds["features"]),
            "out_dir": str(out_dir),
        },
    }


class TestIngest:
    def test_manifest_contents(self, fixture_dataset):
        entries = read_manifest(fixture_dataset["manifest"])
        assert len(entries) == 8
        for entry in entries.values():
            assert set(entry) == {"audio_path", "annotation_path", "scene", "fold"}
            assert entry["fold"] in (0, 1)
        with open(fixture_dataset["vocabulary"], encoding="utf-8") as fh:
            vocab = json.load(fh)
        assert len(vocab["scenes"]) == 4
        assert len(vocab["events"]) == 5

    def test_missing_annotation_names_clip(self, tmp_path, capsys):
        info = generate_fixture(tmp_path / "data", clip_seconds=1.0, clips_per_scene=1)
        victim = Path(info.clips[2].annotation_path)
        victim.unlink()
        code = cli.main([
            "ingest",
            "--metadata", str(info.metadata_path),
            "--annotations", str(info.annotations_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert info.clips[2].clip_id in capsys.readouterr().err

    def test_rerun_identical_manifest(self, fixture_dataset, tmp_path):
        args = [
            "ingest",
            "--metadata", str(fixture_dataset["info"].metadata_path),
            "--annotations", str(fixture_dataset["info"].annotations_dir),
            "--folds", "2",
            "--seed", "0",
        ]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(args + ["--out", str(out)]) == 0
            outs.append((out / "manifest.json").read_bytes())
        assert outs[0] == outs[1]


class TestFeatures:
    def test_one_second_clip_has_49_frames(self, fixture_dataset):
        cache = fixture_dataset["features"] / "home_0.sdfc"
        spec = read_feature_cache(cache, "home_0")
        assert spec.data.shape == (64, 49)

    def test_rerun_skips_everything(self, fixture_dataset, capsys):
        code = cli.main([
            "features",
            "--manifest", str(fixture_dataset["manifest"]),
            "--out", str(fixture_dataset["features"]),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("skipped") == 8
        assert "extracted" not in err

    def test_corrupted_cache_reextracted(self, fixture_dataset, capsys):
        cache = fixture_dataset["features"] / "office_0.sdfc"
        good = cache.read_bytes()
        cache.write_bytes(good[: len(good) // 2])
        code = cli.main([
            "features",
            "--manifest", str(fixture_dataset["manifest"]),
            "--out", str(fixture_dataset["features"]),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "office_0: extracted" in err
        assert cache.read_bytes() == good


class TestTrain:
    def test_config_violations_listed(self, fixture_dataset, tmp_path, capsys):
        doc = train_config_doc(fixture_dataset, tmp_path, "warp", batch_size=0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "mode" in err and "batch_size" in err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert "JSON object" in err

    def test_teacher_then_student_pipeline(self, fixture_dataset, tmp_path):
        ds = fixture_dataset
        teacher_dir = tmp_path / "teacher"
        doc = train_config_doc(ds, teacher_dir, "teacher", max_epochs=3)
        cfg = tmp_path / "teacher.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        ckpt = teacher_dir / "teacher.ckpt"
        assert ckpt.is_file()
        assert (teacher_dir / "teacher_log.jsonl").is_file()
        manifest = json.loads((teacher_dir / "run_manifest.json").read_text())
        assert str(ckpt) in manifest["outputs"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        }

        soft_path = tmp_path / "soft_labels.json"
        assert cli.main([
            "distill",
            "--checkpoint", str(ckpt),
            "--manifest", str(ds["manifest"]),
            "--vocabulary", str(ds["vocabulary"]),
            "--features", str(ds["features"]),
            "--temperature", "2.0",
            "--out", str(soft_path),
        ]) == 0
        labels = json.loads(soft_path.read_text())
        assert len(labels) == 8
        for p in labels.values():
            assert abs(sum(p) - 1.0) < 1e-9

        student_dir = tmp_path / "student"
        doc = train_config_doc(ds, student_dir, "mtl_soft", beta=1.0, temperature=2.0)
        doc["paths"]["soft_labels"] = str(soft_path)
        cfg = tmp_path / "student.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (student_dir / "mtl_soft.ckpt").is_file()

    def test_mtl_soft_requires_soft_labels_path(self, fixture_dataset, tmp_path, capsys):
        doc = train_config_doc(fixture_dataset, tmp_path, "mtl_soft", beta=1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "soft_labels" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["teacher", "event_only"])
    def test_non_finite_loss_is_a_clear_error(self, fixture_dataset, tmp_path, capsys, mode):
        doc = train_config_doc(fixture_dataset, tmp_path / "out", mode)
        doc["paths"]["features_dir"] = str(nan_features_dir(fixture_dataset, tmp_path / "f"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mode} training stopped: loss is nan at epoch 1, batch ")
        assert not (tmp_path / "out" / f"{mode}.ckpt").exists()

    def test_reproducible_checkpoint_and_log(self, fixture_dataset, tmp_path):
        blobs = []
        for sub in ("r1", "r2"):
            out_dir = tmp_path / sub
            doc = train_config_doc(fixture_dataset, out_dir, "event_only", max_epochs=2)
            cfg = tmp_path / f"{sub}.json"
            cfg.write_text(json.dumps(doc))
            assert cli.main(["train", "--config", str(cfg)]) == 0
            blobs.append(
                (
                    (out_dir / "event_only.ckpt").read_bytes(),
                    (out_dir / "event_only_log.jsonl").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]


    def test_negative_seed_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        refuse_to_load(monkeypatch)
        cfg = tmp_path / "seed.json"
        doc = train_config_doc(fixture_dataset, tmp_path / "out", "teacher", seed=-1)
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert "field 'seed' must be >= 0, got -1" in err
        assert not (tmp_path / "out").exists()


class TestEval:
    def make_oracle_checkpoint(self, path, n_scenes, n_events, active_class):
        """Student stub whose event posteriors are 1 for one class, 0 for the
        rest, regardless of input."""
        params = networks.init_student_params(n_scenes, n_events, seed=0)
        params["event_hidden.weight"].values[:] = 0.0
        params["event_out.weight"].values[:] = 0.0
        bias = np.full(n_events, -20.0)
        bias[active_class] = 20.0
        params["event_out.bias"].values = bias
        meta = {
            "kind": "student",
            "n_scenes": n_scenes,
            "n_events": n_events,
            "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
        }
        networks.save_checkpoint(path, params, meta)

    def test_perfect_oracle_scores_100(self, fixture_dataset, tmp_path):
        ds = fixture_dataset
        # reference: one clip, event 'dishes' active for the whole clip
        data_dir = tmp_path / "oracle_data"
        ann_dir = data_dir / "annotations"
        ann_dir.mkdir(parents=True)
        audio_src = Path(ds["info"].clips[0].audio_path)
        audio_dir = data_dir / "audio"
        audio_dir.mkdir()
        (audio_dir / "clip.wav").write_bytes(audio_src.read_bytes())
        (ann_dir / "clip.txt").write_text("0.0\t1.0\tdishes\n")
        (data_dir / "meta.tsv").write_text("audio/clip.wav\thome\n")
        out = tmp_path / "oracle_ingest"
        assert cli.main([
            "ingest",
            "--metadata", str(data_dir / "meta.tsv"),
            "--annotations", str(ann_dir),
            "--out", str(out),
            "--vocabulary", str(ds["vocabulary"]),
            "--folds", "1",
        ]) == 0
        feats = tmp_path / "oracle_features"
        assert cli.main(["features", "--manifest", str(out / "manifest.json"), "--out", str(feats)]) == 0

        vocab = json.loads(Path(ds["vocabulary"]).read_text())
        ckpt = tmp_path / "oracle.ckpt"
        self.make_oracle_checkpoint(ckpt, 4, 5, active_class=vocab["events"].index("dishes"))
        report_dir = tmp_path / "report"
        assert cli.main([
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--vocabulary", str(ds["vocabulary"]),
            "--features", str(feats),
            "--fold", "-1",
            "--out", str(report_dir),
        ]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["overall"]["f1"] == 100.0
        assert report["overall"]["er"] == 0.0
        assert (report_dir / "report.txt").read_text().startswith("overall")

    def test_eval_reports_are_reproducible(self, fixture_dataset, tmp_path):
        ckpt = tmp_path / "stub.ckpt"
        self.make_oracle_checkpoint(ckpt, 4, 5, active_class=4)
        reports = []
        for sub in ("e1", "e2"):
            report_dir = tmp_path / sub
            assert cli.main([
                "eval",
                "--checkpoint", str(ckpt),
                "--manifest", str(fixture_dataset["manifest"]),
                "--vocabulary", str(fixture_dataset["vocabulary"]),
                "--features", str(fixture_dataset["features"]),
                "--fold", "0",
                "--policy", "calibrated",
                "--out", str(report_dir),
            ]) == 0
            reports.append((report_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_empty_manifest_is_a_clear_error(self, fixture_dataset, tmp_path, capsys):
        ckpt = tmp_path / "stub.ckpt"
        self.make_oracle_checkpoint(ckpt, 4, 5, active_class=0)
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        assert cli.main([
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(manifest),
            "--vocabulary", str(fixture_dataset["vocabulary"]),
            "--features", str(fixture_dataset["features"]),
            "--fold", "-1",
            "--out", str(tmp_path / "report"),
        ]) == 1
        assert "empty split" in capsys.readouterr().err

    # sha256 of report.json for the checkpoint below on the fixture dataset;
    # scoring from cached posteriors must not change a byte of it
    CALIBRATED_REPORT_SHA256 = "20d18ea25c42f18ed4c1f8dc5deaee286cd647bd7db087d64289503cfde8207e"

    def test_calibrated_eval_forwards_each_clip_once(
        self, fixture_dataset, tmp_path, monkeypatch
    ):
        ds = fixture_dataset
        ids = sorted(read_manifest(ds["manifest"]))
        stats = compute_band_stats(
            [read_feature_cache(ds["features"] / f"{c}.sdfc", c) for c in ids]
        )
        params = networks.init_student_params(4, 5, seed=0)
        params["event_out.weight"].values *= 10.0  # spread posteriors over the grid
        ckpt = tmp_path / "student.ckpt"
        networks.save_checkpoint(ckpt, params, {
            "kind": "student", "n_scenes": 4, "n_events": 5,
            "band_stats": {"mean": list(stats.mean), "std": list(stats.std)},
        })
        calls = []
        forward = training.student_posteriors

        def counting(params, clip):
            calls.append(clip.clip_id)
            return forward(params, clip)

        monkeypatch.setattr(training, "student_posteriors", counting)
        report_dir = tmp_path / "report"
        assert cli.main([
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(ds["manifest"]),
            "--vocabulary", str(ds["vocabulary"]),
            "--features", str(ds["features"]),
            "--fold", "-1",
            "--policy", "calibrated",
            "--out", str(report_dir),
        ]) == 0
        assert sorted(calls) == ids
        digest = hashlib.sha256((report_dir / "report.json").read_bytes()).hexdigest()
        assert digest == self.CALIBRATED_REPORT_SHA256


    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--smooth-window", "4", "field eval.smooth_window must be an odd integer >= 1"),
            ("--threshold", "1.5", "field eval.threshold must be a number in (0, 1), got 1.5"),
            ("--policy", "calibratd", "field eval.policy must be 'fixed' or 'calibrated'"),
        ],
    )
    def test_invalid_flag_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, flag, value, fragment
    ):
        refuse_to_load(monkeypatch, (networks, "load_checkpoint"))
        assert cli.main([
            "eval",
            "--checkpoint", str(tmp_path / "student.ckpt"),
            "--manifest", str(fixture_dataset["manifest"]),
            "--vocabulary", str(fixture_dataset["vocabulary"]),
            "--features", str(fixture_dataset["features"]),
            "--fold", "0",
            flag, value,
            "--out", str(tmp_path / "report"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert fragment in err
        assert not (tmp_path / "report").exists()


def cv_config_doc(ds, out_dir, **train_overrides):
    train = {
        "alpha": 0.0001, "beta": 1.0, "temperature": 1.0,
        "learning_rate": 1e-3, "batch_size": 8, "max_epochs": 1,
        "patience": 2, "chunk_len": 50,
    }
    train.update(train_overrides)
    return {
        "paths": {
            "manifest": str(ds["manifest"]),
            "vocabulary": str(ds["vocabulary"]),
            "features_dir": str(ds["features"]),
            "out_dir": str(out_dir),
        },
        "train": train,
        "cv": {"modes": ["event_only", "mtl_hard", "mtl_soft"], "seeds": [0]},
    }


class TestCrossValidation:
    @pytest.mark.parametrize(
        "override, fragment",
        [({"max_epoch": 3}, "unknown field 'max_epoch'"), ({"max_epochs": 0}, "max_epochs")],
    )
    def test_invalid_train_block_rejected(
        self, fixture_dataset, tmp_path, capsys, override, fragment
    ):
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(cv_config_doc(fixture_dataset, tmp_path / "cv", **override)))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert fragment in err
        assert not (tmp_path / "cv").exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "eval_block, fragment",
        [
            ({"policy": "calibratd"}, "cv.eval.policy"),
            ({"smooth_window": 4}, "cv.eval.smooth_window"),
            ({"smooth_window": 0}, "cv.eval.smooth_window"),
            ({"smooth_window": -3}, "cv.eval.smooth_window"),
            ({"threshold": 1.5}, "cv.eval.threshold"),
            ({"threshold": -0.1}, "cv.eval.threshold"),
            ({"policy": "calibrated", "grid": []}, "cv.eval.grid"),
            ({"policy": "calibrated", "grid": [0.5, 1.2]}, "cv.eval.grid"),
            ({"treshold": 0.4}, "unknown field cv.eval.treshold"),
            ([["policy", "fixed"]], "cv.eval must be an object"),
            ({"event_names": ["a", "b", "c", "d", "e"]}, "unknown field cv.eval.event_names"),
        ],
    )
    def test_invalid_eval_block_rejected_before_training(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, eval_block, fragment
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train_student", no_training)
        monkeypatch.setattr(training, "train_teacher", no_training)
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["cv"]["eval"] = eval_block
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert fragment in err
        assert not (tmp_path / "cv").exists()

    def test_missing_input_path_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train_student", no_training)
        monkeypatch.setattr(training, "train_teacher", no_training)
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["paths"]["manifest"] = str(tmp_path / "nowhere" / "manifest.json")
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert "paths.manifest does not exist" in err
        assert not (tmp_path / "cv").exists()

    def test_fold_gap_rejected_before_training(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train_student", no_training)
        monkeypatch.setattr(training, "train_teacher", no_training)
        entries = read_manifest(fixture_dataset["manifest"])
        for entry in entries.values():  # folds {0, 1} become {0, 2}
            entry["fold"] *= 2
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["paths"]["manifest"] = str(manifest)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: cross-validation folds must be 0..2: fold 1 has no clips\n"
        assert not (tmp_path / "cv").exists()

    def test_non_finite_loss_is_a_clear_error(self, fixture_dataset, tmp_path, capsys):
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["paths"]["features_dir"] = str(nan_features_dir(fixture_dataset, tmp_path / "f"))
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "training stopped: loss is nan at epoch 1, batch " in err
        assert not (tmp_path / "cv").exists()

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
    def test_invalid_worker_count_rejected(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("SEDMTL_WORKERS", value)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(cv_config_doc(fixture_dataset, tmp_path / "cv")))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: SEDMTL_WORKERS must be an integer >= 1")
        assert not (tmp_path / "cv").exists()

    def test_cv_emits_row_per_mode(self, fixture_dataset, tmp_path, capsys):
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 0
        table = (tmp_path / "cv" / "cv_table.txt").read_text()
        assert "CNN-BiGRU" in table
        assert "MTL (alpha=0.0001)" in table
        assert "MTL w/ soft labels" in table
        report = json.loads((tmp_path / "cv" / "cv_report.json").read_text())
        assert len(report["runs"]) == 2 * 3  # 2 folds x 1 seed x 3 modes
        for run in report["runs"]:
            assert len(run["per_event"]) == 5

    @pytest.mark.parametrize(
        "cv_block, fragment",
        [
            ({"seed": [5]}, "unknown field cv.seed"),
            ({"seeds": [0, 0]}, "field cv.seeds must be a non-empty list of distinct integers"),
            ({"modes": ["mtl_hard", "mtl_hard"]}, "field cv.modes must be a non-empty list"),
            ({"seeds": [-1]}, "field cv.seeds must be a non-empty list of distinct integers >= 0"),
            ({"modes": ["teacher"]}, "field cv.modes"),
            ({"seeds": []}, "field cv.seeds"),
            ({"modes": "event_only"}, "field cv.modes has wrong type"),
            ({"eval": {"policy": "calibrated", "grid": [0.5, True]}}, "field cv.eval.grid"),
        ],
    )
    def test_invalid_cv_block_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, cv_block, fragment
    ):
        refuse_to_load(monkeypatch)
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["cv"].update(cv_block)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert fragment in err
        assert not (tmp_path / "cv").exists()

    def test_invalid_train_block_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        refuse_to_load(monkeypatch)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(cv_config_doc(fixture_dataset, tmp_path / "cv", patience=-1)))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert "field 'patience' must be >= 0, got -1" in err
        # cv sets each run's mode, seed and fold itself
        for field, value, source in [
            ("mode", "mtl_hard", "cv.modes"),
            ("seed", 7, "cv.seeds"),
            ("fold", 1, "the manifest folds"),
        ]:
            doc = cv_config_doc(fixture_dataset, tmp_path / "cv", **{field: value})
            cfg.write_text(json.dumps(doc))
            assert cli.main(["cv", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid config")
            assert f"field '{field}' is set per run by {source}, not by the train block" in err

    def test_fixed_policy_forwards_validation_clips_once_per_epoch(
        self, fixture_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SEDMTL_WORKERS", "1")
        calls = []
        forward = training.student_posteriors

        def counting(params, clip):
            calls.append(clip.clip_id)
            return forward(params, clip)

        monkeypatch.setattr(training, "student_posteriors", counting)
        epochs = 2
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv", max_epochs=epochs, patience=epochs)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 0
        # each (fold, mode) run validates its fold's clips once per epoch and
        # scores them from the best epoch's posteriors; the folds cover every clip
        n_clips = len(read_manifest(fixture_dataset["manifest"]))
        assert len(calls) == len(doc["cv"]["modes"]) * epochs * n_clips


class TestBlasThreads:
    VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def env(self, **overrides):
        env = {k: v for k, v in os.environ.items() if k not in self.VARIABLES}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return {**env, **overrides}

    def test_unset_variables_train_the_same_bytes_as_one_thread(self, fixture_dataset, tmp_path):
        checkpoints = []
        for name, env in (("unset", self.env()), ("one", self.env(OPENBLAS_NUM_THREADS="1"))):
            doc = train_config_doc(fixture_dataset, tmp_path / name, "event_only")
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            subprocess.run(
                [sys.executable, "-m", "sedmtl.cli", "train", "--config", str(cfg)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            checkpoints.append((tmp_path / name / "event_only.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        manifest = json.loads((tmp_path / "unset" / "run_manifest.json").read_text())
        assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["environment"]["OMP_NUM_THREADS"] == "1"
        assert manifest["environment"]["MKL_NUM_THREADS"] == "1"

    def test_a_value_the_user_set_wins(self):
        code = (
            "import json, os, sedmtl; "
            f"print(json.dumps([os.environ.get(k) for k in {self.VARIABLES!r}]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=self.env(MKL_NUM_THREADS="3"),
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        assert json.loads(out) == ["1", "1", "3"]
