import collections
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sedmtl
from sedmtl import autodiff as ad
from sedmtl import cli, networks, parallel, training
from sedmtl.data import read_manifest, write_json
from sedmtl.features import (
    CACHE_MAGIC,
    CACHE_VERSION,
    compute_band_stats,
    read_feature_cache,
    write_feature_cache,
)
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


# Training settings whose first Adam step moves the parameters by ~1e300, so
# the second mini-batch's forward overflows and its loss is NaN.
OVERFLOWING_STEPS = {"learning_rate": 1e300, "batch_size": 1}


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

    def test_vocabulary_reads_only_the_clips_annotation_files(self, tmp_path, capsys):
        info = generate_fixture(tmp_path / "data", clip_seconds=1.0, clips_per_scene=1)
        (info.annotations_dir / "stray.txt").write_text("0.1\t0.5\tthunder\n")
        out = tmp_path / "out"
        code = cli.main([
            "ingest",
            "--metadata", str(info.metadata_path),
            "--annotations", str(info.annotations_dir),
            "--out", str(out),
        ])
        assert code == 0
        vocab = json.loads((out / "vocabulary.json").read_text(encoding="utf-8"))
        assert "thunder" not in vocab["events"]
        assert "thunder" not in capsys.readouterr().out

    @pytest.mark.parametrize("given_vocabulary", [False, True])
    def test_each_text_input_is_read_once(
        self, fixture_dataset, tmp_path, monkeypatch, given_vocabulary
    ):
        """The names of a derived vocabulary come from the texts that are then
        parsed: the metadata and each annotation file are read once."""
        reads = collections.Counter()
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads[str(path)] += 1
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        info = fixture_dataset["info"]
        argv = ["ingest", "--metadata", str(info.metadata_path),
                "--annotations", str(info.annotations_dir), "--out", str(tmp_path / "out")]
        if given_vocabulary:
            argv += ["--vocabulary", str(fixture_dataset["vocabulary"])]
        assert cli.main(argv) == 0
        texts = [info.metadata_path] + [info.annotations_dir / f"{c.clip_id}.txt" for c in info.clips]
        assert reads == {str(path): 1 for path in texts}

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


    def test_one_and_two_threads_write_the_same_bytes(
        self, fixture_dataset, tmp_path, monkeypatch, capsys
    ):
        """On the pool, `features` writes the serial loop's caches, index,
        stdout, stderr and exit code, with one clip whose WAV does not read;
        a rerun skips every other clip as up to date."""
        entries = read_manifest(fixture_dataset["manifest"])
        bad = sorted(entries)[3]
        entries[bad]["audio_path"] = str(tmp_path / "bad.wav")
        (tmp_path / "bad.wav").write_bytes(b"RIFF, but not a wave file")
        write_json(tmp_path / "manifest.json", entries)
        argv = ["features", "--manifest", str(tmp_path / "manifest.json"),
                "--out", str(tmp_path / "features")]
        extracting = set()
        log_mel_energy = cli.log_mel_energy

        def recording(*args, **kwargs):
            extracting.add(threading.get_ident())
            return log_mel_energy(*args, **kwargs)

        monkeypatch.setattr(cli, "log_mel_energy", recording)
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(parallel, "_threads", threads)
            shutil.rmtree(tmp_path / "features", ignore_errors=True)
            extracting.clear()
            first = (cli.main(argv), capsys.readouterr())
            assert len(extracting) == threads
            rerun = (cli.main(argv), capsys.readouterr())
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / "features").iterdir())}
            runs.append((first, rerun, files))
        assert runs[0] == runs[1]
        (code, (out, err)), (rerun_code, (_, rerun_err)), files = runs[0]
        good = [clip for clip in sorted(entries) if clip != bad]
        assert code == rerun_code == 1
        assert out == f"feature cache in {tmp_path / 'features'}: 7 ok, 1 failed\n"
        assert err.splitlines() == [
            f"error: {bad}: {tmp_path / 'bad.wav'}: not a readable RIFF/WAVE file"
            " (not a WAVE file)" if clip == bad
            else f"{clip}: extracted (49 frames)"
            for clip in sorted(entries)
        ]
        assert [line for line in rerun_err.splitlines() if "skipped" in line] == [
            f"{clip}: skipped (up to date)" for clip in good
        ]
        assert sorted(files) == sorted([f"{clip}.sdfc" for clip in good] + ["cache_index.json"])


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
        assert err == f"error: {cfg}: a config must be a JSON object, got list\n"

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
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "cpu_count": os.cpu_count(),
            "threads": len(os.sched_getaffinity(0)),
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

    def test_distill_rejects_a_teacher_of_another_vocabulary(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        ckpt = tmp_path / "three_scenes.ckpt"
        networks.save_checkpoint(ckpt, networks.init_teacher_params(3, seed=0), {
            "kind": "teacher", "n_scenes": 3, "n_events": 5,
            "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
        })
        refuse_to_load(monkeypatch)
        soft_path = tmp_path / "soft_labels.json"
        assert cli.main([
            "distill",
            "--checkpoint", str(ckpt),
            "--manifest", str(fixture_dataset["manifest"]),
            "--vocabulary", str(fixture_dataset["vocabulary"]),
            "--features", str(fixture_dataset["features"]),
            "--out", str(soft_path),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt} has n_scenes 3, but the vocabulary has 4" in err
        assert not soft_path.exists()

    def test_mtl_soft_requires_soft_labels_path(self, fixture_dataset, tmp_path, capsys):
        doc = train_config_doc(fixture_dataset, tmp_path, "mtl_soft", beta=1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "soft_labels" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["teacher", "event_only"])
    def test_non_finite_loss_is_a_clear_error(self, fixture_dataset, tmp_path, mode):
        doc = train_config_doc(fixture_dataset, tmp_path / "out", mode, **OVERFLOWING_STEPS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # in a fresh process, where numpy warnings would reach stderr
        proc = run_cli("train", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {mode} training stopped: loss is nan at epoch 1, batch 2\n"
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
        assert capsys.readouterr().err == f"error: {manifest}: a manifest holds no clips\n"

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

        def counting(params, *clips):
            calls.extend(clip.clip_id for clip in clips)
            return forward(params, *clips)

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


    def test_checkpoint_vocabulary_mismatch_rejected_before_loading(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        ckpt = tmp_path / "three_events.ckpt"
        self.make_oracle_checkpoint(ckpt, 4, 3, active_class=0)
        refuse_to_load(monkeypatch)
        assert cli.main([
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(fixture_dataset["manifest"]),
            "--vocabulary", str(fixture_dataset["vocabulary"]),
            "--features", str(fixture_dataset["features"]),
            "--fold", "-1",
            "--out", str(tmp_path / "report"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt} has n_events 3, but the vocabulary has 5" in err
        assert not (tmp_path / "report").exists()

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


def write_checkpoint(path, kind):
    """A seeded 4-scene, 5-event teacher or student checkpoint with unit
    band stats."""
    params = (
        networks.init_teacher_params(4, seed=0) if kind == "teacher"
        else networks.init_student_params(4, 5, seed=0)
    )
    networks.save_checkpoint(path, params, {
        "kind": kind, "n_scenes": 4, "n_events": 5,
        "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
    })


def edit_checkpoint_header(blob, edit):
    """Checkpoint bytes `blob` with `edit` applied to their parsed JSON header."""
    start = len(networks.CHECKPOINT_MAGIC) + 4
    (size,) = struct.unpack_from("<I", blob, start - 4)
    header = json.loads(blob[start : start + size])
    edit(header)
    text = json.dumps(header).encode()
    return blob[: start - 4] + struct.pack("<I", len(text)) + text + blob[start + size :]


def run_cli(*argv):
    """`python -m sedmtl.cli *argv` in a fresh process, output captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-m", "sedmtl.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
        [
            ({"max_epoch": 3}, "unknown field 'max_epoch'"),
            ({"max_epochs": 0}, "max_epochs"),
            # Python's json reads Infinity and NaN, which are no JSON numbers
            ({"learning_rate": float("inf")}, "field 'learning_rate' has wrong type, got inf"),
            ({"alpha": float("inf")}, "field 'alpha' has wrong type, got inf"),
            ({"temperature": float("nan")}, "field 'temperature' has wrong type, got nan"),
        ],
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
        assert err == f"error: {cfg}: a config must be a JSON object, got list\n"

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
            ({"policy": "calibrated", "grid": [0.5, float("inf")]}, "cv.eval.grid has wrong type"),
            ({"threshold": float("nan")}, "field cv.eval.threshold has wrong type, got nan"),
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
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv", **OVERFLOWING_STEPS)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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

    def test_worker_processes_capped_by_the_affinity_mask(
        self, fixture_dataset, tmp_path, monkeypatch
    ):
        # one core in this process's affinity mask: SEDMTL_WORKERS=2 must not
        # fork two processes onto it, whatever os.cpu_count() says
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was made")

        monkeypatch.setattr(parallel, "_threads", 1)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setenv("SEDMTL_WORKERS", "2")
        doc = cv_config_doc(fixture_dataset, tmp_path / "cv")
        doc["cv"]["modes"] = ["event_only"]
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 0
        assert (tmp_path / "cv" / "cv_report.json").is_file()

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

    # sha256 of (cv_report.json, cv_table.txt) for all three modes on the
    # fixture dataset, per policy. At 6 epochs and learning rate 0.01 the
    # modes stop at different best epochs with different scores, so a change
    # in training, calibration, pooled scores or per-event rows shows.
    CV_SHA256 = {
        "fixed": (
            "e88ff420ef8d61c17c9e8e82ed0ab31804a63c9a617c9f9bd5a0e900ca3e261a",
            "ce2c757ba1583d3020d06766541f326cb9a4493f29000bfb58e026dba0731bcf",
        ),
        "calibrated": (
            "c0c233deb376d2affc735578d0e9852e427caa5ffdff7e5f881242c6de2322ed",
            "54fa7c462359b91981e83e7605b748fbe4c1a7880e5f08d6226c9355d8c7ea45",
        ),
    }

    @pytest.mark.parametrize("policy", sorted(CV_SHA256))
    def test_cv_bytes_pinned(self, fixture_dataset, tmp_path, monkeypatch, policy):
        monkeypatch.setenv("SEDMTL_WORKERS", "1")
        doc = cv_config_doc(
            fixture_dataset, tmp_path / "cv",
            alpha=0.5, learning_rate=1e-2, max_epochs=6, patience=6,
        )
        doc["cv"]["eval"] = {"policy": policy}
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["cv", "--config", str(cfg)]) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / "cv" / name).read_bytes()).hexdigest()
            for name in ("cv_report.json", "cv_table.txt")
        )
        assert digests == self.CV_SHA256[policy]

    def test_fixed_policy_forwards_validation_clips_once_per_epoch(
        self, fixture_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SEDMTL_WORKERS", "1")
        calls = []
        forward = training.student_posteriors

        def counting(params, *clips):
            calls.extend(clip.clip_id for clip in clips)
            return forward(params, *clips)

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


def unused_scene_vocabulary(ds, tmp_path):
    """The fixture's vocabulary with a fifth scene that no clip is in."""
    vocab = json.loads(Path(ds["vocabulary"]).read_text())
    vocab["scenes"].append("zz_unused")
    path = tmp_path / "vocabulary.json"
    path.write_text(json.dumps(vocab))
    return path


class TestSharedScoringPath:
    """`cv` and `train` followed by `eval --fold k` split, standardize, size
    the model and score through the same functions, so each (mode, seed,
    fold) run of `cv` reports what the two commands report for it."""

    MODES = ("event_only", "mtl_hard")
    POLICIES = ("fixed", "calibrated")
    EPOCHS = 3

    @pytest.mark.parametrize("unused_scene", [False, True], ids=["vocabulary", "unused_scene"])
    def test_cv_runs_equal_train_then_eval(self, fixture_dataset, tmp_path, unused_scene):
        ds = fixture_dataset
        vocabulary = unused_scene_vocabulary(ds, tmp_path) if unused_scene else ds["vocabulary"]
        epochs = {"max_epochs": self.EPOCHS, "patience": self.EPOCHS}
        cv_runs = {}
        for policy in self.POLICIES:
            doc = cv_config_doc(ds, tmp_path / f"cv_{policy}", **epochs)
            doc["paths"]["vocabulary"] = str(vocabulary)
            doc["cv"] = {"modes": list(self.MODES), "seeds": [0], "eval": {"policy": policy}}
            cfg = tmp_path / f"cv_{policy}.json"
            cfg.write_text(json.dumps(doc))
            assert cli.main(["cv", "--config", str(cfg)]) == 0
            report = json.loads((tmp_path / f"cv_{policy}" / "cv_report.json").read_text())
            for run in report["runs"]:
                cv_runs[policy, run["mode"], run["seed"], run["fold"]] = run
        compared = 0
        for mode in self.MODES:
            for fold in (0, 1):
                out = tmp_path / f"{mode}_{fold}"
                doc = train_config_doc(ds, out, mode, alpha=0.0001, fold=fold, **epochs)
                doc["paths"]["vocabulary"] = str(vocabulary)
                cfg = tmp_path / f"{mode}_{fold}.json"
                cfg.write_text(json.dumps(doc))
                assert cli.main(["train", "--config", str(cfg)]) == 0
                for policy in self.POLICIES:
                    assert cli.main([
                        "eval", "--checkpoint", str(out / f"{mode}.ckpt"),
                        "--manifest", str(ds["manifest"]), "--vocabulary", str(vocabulary),
                        "--features", str(ds["features"]), "--fold", str(fold),
                        "--policy", policy, "--out", str(out / policy),
                    ]) == 0
                    report = json.loads((out / policy / "report.json").read_text())
                    run = cv_runs[policy, mode, 0, fold]
                    assert (run["f1"], run["er"], run["per_event"]) == (
                        report["overall"]["f1"], report["overall"]["er"], report["per_event"]
                    ), (policy, mode, fold)
                    compared += 1
        assert compared == len(cv_runs) == 8


class TestValOutputs:
    """`train` writes each validation clip's best-epoch output beside its
    checkpoint (`<mode>.val_outputs`); `eval` and `distill` reuse an entry
    only when the checkpoint, the clip's feature cache, numpy, the BLAS build
    and thread variables and the package sources are those it was made with,
    and a reused entry moves no byte of their outputs."""

    def train(self, ds, out_dir, mode, fold=-1, features=None, **overrides):
        doc = train_config_doc(ds, out_dir, mode, alpha=0.5, fold=fold, **overrides)
        if features is not None:
            doc["paths"]["features_dir"] = str(features)
        cfg = Path(out_dir).parent / f"{Path(out_dir).name}.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        return Path(out_dir) / f"{mode}.ckpt"

    def argv(self, ds, command, ckpt, out, fold=-1, policy="fixed", features=None):
        data = [
            "--checkpoint", str(ckpt), "--manifest", str(ds["manifest"]),
            "--vocabulary", str(ds["vocabulary"]), "--features", str(features or ds["features"]),
        ]
        if command == "distill":
            return ["distill", *data, "--out", str(out / "soft_labels.json")]
        return ["eval", *data, "--fold", str(fold), "--policy", policy, "--out", str(out)]

    def outputs(self, out):
        names = ("soft_labels.json",) if (out / "soft_labels.json").exists() else (
            "report.json", "report.txt"
        )
        return {name: (out / name).read_bytes() for name in names}

    def forwarded(self, monkeypatch):
        """The clips each student or teacher forward is given from now on."""
        calls = []
        posteriors, logits = training.student_posteriors, networks.teacher_logits

        def counting_posteriors(params, *clips):
            calls.extend(clip.clip_id for clip in clips)
            return posteriors(params, *clips)

        def counting_logits(params, features):
            calls.extend(["teacher clip"] * len(features))
            return logits(params, features)

        monkeypatch.setattr(training, "student_posteriors", counting_posteriors)
        monkeypatch.setattr(networks, "teacher_logits", counting_logits)
        return calls

    @pytest.mark.parametrize("fold", [-1, 0])
    @pytest.mark.parametrize("command, policy", [
        ("eval", "fixed"), ("eval", "calibrated"), ("distill", None),
    ])
    def test_reuse_never_moves_a_byte(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, command, policy, fold
    ):
        ds = fixture_dataset
        mode = "teacher" if command == "distill" else "mtl_hard"
        ckpt = self.train(ds, tmp_path / "train", mode, fold=fold)
        sidecar = tmp_path / "train" / f"{mode}.val_outputs"
        assert sidecar.is_file()
        folds = {c: e["fold"] for c, e in read_manifest(ds["manifest"]).items()}
        validated = sorted(c for c, f in folds.items() if fold in (-1, f))
        # the clips the command scores: eval's calibration clips (calibrated)
        # and fold clips, or every clip for distill
        scored = sorted(folds) if command == "distill" or policy == "calibrated" else validated
        capsys.readouterr()
        calls = self.forwarded(monkeypatch)
        assert cli.main(self.argv(ds, command, ckpt, tmp_path / "hit", fold, policy)) == 0
        err = capsys.readouterr().err
        assert f"reused {len(validated)} of {len(scored)} clips' outputs from {sidecar}\n" in err
        assert len(calls) == len(scored) - len(validated)
        assert not set(calls) & set(validated)
        sidecar.unlink()
        del calls[:]
        assert cli.main(self.argv(ds, command, ckpt, tmp_path / "miss", fold, policy)) == 0
        assert f"reused 0 of {len(scored)} clips' outputs" in capsys.readouterr().err
        assert len(calls) == len(scored)
        assert self.outputs(tmp_path / "hit") == self.outputs(tmp_path / "miss")

    @pytest.mark.parametrize("command", ["eval", "distill"])
    @pytest.mark.parametrize(
        "stale", ["cache", "seed", "blas", "build", "truncated", "garbage"]
    )
    def test_stale_entries_are_never_used(
        self, fixture_dataset, tmp_path, capsys, monkeypatch, command, stale
    ):
        ds = fixture_dataset
        mode = "teacher" if command == "distill" else "mtl_hard"
        features = shutil.copytree(ds["features"], tmp_path / "features")
        ckpt = self.train(ds, tmp_path / "train", mode, features=features)
        sidecar = ckpt.with_suffix(".val_outputs")
        n_clips = len(read_manifest(ds["manifest"]))
        expected = n_clips
        if stale == "cache":  # one clip's cache rewritten with other bytes
            spec = read_feature_cache(features / "home_0.sdfc", "home_0")
            spec.data[0, 0] += 1.0
            write_feature_cache(features / "home_0.sdfc", spec)
            expected = 1
        elif stale == "seed":  # the checkpoint retrained at another seed
            kept = sidecar.read_bytes()
            self.train(ds, tmp_path / "train", mode, features=features, seed=1)
            sidecar.write_bytes(kept)
        elif stale == "blas":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        elif stale == "build":  # the same numpy and threads, another BLAS build
            build = {"name": "otherblas", "version": "1.0", "openblas configuration": None}
            monkeypatch.setattr(
                np, "show_config", lambda mode: {"Build Dependencies": {"blas": build}}
            )
        elif stale == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:-9])
        else:
            sidecar.write_bytes(b"not a sidecar" * 40)
        calls = self.forwarded(monkeypatch)
        capsys.readouterr()
        argv = self.argv(ds, command, ckpt, tmp_path / "stale", features=features)
        assert cli.main(argv) == 0
        assert f"reused {n_clips - expected} of {n_clips} clips'" in capsys.readouterr().err
        assert len(calls) == expected
        if stale == "cache":
            assert calls == ["teacher clip" if command == "distill" else "home_0"]
        sidecar.unlink()
        assert cli.main(self.argv(ds, command, ckpt, tmp_path / "miss", features=features)) == 0
        assert self.outputs(tmp_path / "stale") == self.outputs(tmp_path / "miss")

    def test_a_separate_process_reuses(self, fixture_dataset, tmp_path):
        ds = fixture_dataset
        doc = train_config_doc(ds, tmp_path / "train", "mtl_hard", alpha=0.5)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)).returncode == 0
        ckpt = tmp_path / "train" / "mtl_hard.ckpt"
        argv = self.argv(ds, "eval", ckpt, tmp_path / "hit", policy="calibrated")
        proc = run_cli(*argv)
        assert proc.returncode == 0
        sidecar = tmp_path / "train" / "mtl_hard.val_outputs"
        assert f"reused 8 of 8 clips' outputs from {sidecar}\n" in proc.stderr
        sidecar.unlink()
        argv = self.argv(ds, "eval", ckpt, tmp_path / "miss", policy="calibrated")
        assert cli.main(argv) == 0
        assert self.outputs(tmp_path / "hit") == self.outputs(tmp_path / "miss")


class TestRunManifestInputs:
    def test_every_command_records_the_annotations_it_read(self, fixture_dataset, tmp_path):
        ds = fixture_dataset
        annotations = {
            entry["annotation_path"] for entry in read_manifest(ds["manifest"]).values()
        }
        assert len(annotations) == 8
        doc = train_config_doc(ds, tmp_path / "train", "event_only", max_epochs=1)
        (tmp_path / "train.json").write_text(json.dumps(doc))
        doc = cv_config_doc(ds, tmp_path / "cv")
        doc["cv"]["modes"] = ["event_only"]
        (tmp_path / "cv.json").write_text(json.dumps(doc))
        teacher = tmp_path / "teacher.ckpt"
        networks.save_checkpoint(teacher, networks.init_teacher_params(4, seed=0), {
            "kind": "teacher", "n_scenes": 4, "n_events": 5,
            "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
        })
        data = ["--manifest", str(ds["manifest"]), "--vocabulary", str(ds["vocabulary"]),
                "--features", str(ds["features"])]
        runs = {
            "train": ["train", "--config", str(tmp_path / "train.json")],
            "cv": ["cv", "--config", str(tmp_path / "cv.json")],
            "eval": ["eval", "--checkpoint", str(tmp_path / "train" / "event_only.ckpt"),
                     *data, "--fold", "0", "--out", str(tmp_path / "eval")],
            "distill": ["distill", "--checkpoint", str(teacher), *data,
                        "--out", str(tmp_path / "distill" / "soft_labels.json")],
        }
        for command, argv in runs.items():
            assert cli.main(argv) == 0
            manifest = json.loads((tmp_path / command / "run_manifest.json").read_text())
            for path in annotations:
                assert manifest["inputs"].get(path) == hashlib.sha256(
                    Path(path).read_bytes()
                ).hexdigest(), (command, path)
            assert str(ds["manifest"]) in manifest["inputs"]


# (bands, frames, hop) in the header of each broken feature cache
CACHE_HEADERS = {"63-bands": (63, 49, 0.02), "0-frames": (64, 0, 0.02), "hop-0.01": (64, 49, 0.01)}
# Edits of a write_checkpoint header, in place.
CHECKPOINT_HEADERS = {
    "no-band-stats": lambda h: h.pop("band_stats"),
    "3-bands": lambda h: h["band_stats"].update(mean=[0.0] * 3, std=[1.0] * 3),
    "nan-std": lambda h: h["band_stats"]["std"].__setitem__(5, float("nan")),
    "params-entry": lambda h: h["params"].__setitem__(1, 3),
    "param-name": lambda h: h["params"][0].__setitem__(0, "conv1.kernel"),
    "param-shape": lambda h: h["params"][0].__setitem__(1, [128, 1, 9, 1]),
}
# A value written into the first entry of one write_checkpoint parameter.
CHECKPOINT_VALUES = {
    "nan-bias": ("event_out.bias", float("nan")),
    "inf-kernel": ("trunk1.kernel", float("inf")),
    "inf-teacher": ("conv1.kernel", float("-inf")),
}
BAND_STATS = "{path}: checkpoint band_stats must hold 64 finite means and 64 finite stds > 0"
# Malformed inputs: (input kind, corruption, command, the error after
# "error: "). {path} is the broken file; {eof} and {ff} are the JSON and
# UTF-8 errors of the fixed "truncated" and "not-utf8" texts. The "fold flag"
# is no file: its corruption is the value `eval --fold` gets.
MALFORMED_INPUTS = [
    ("vocabulary", "truncated", "ingest", "{path}: a vocabulary is not valid JSON: {eof}"),
    ("vocabulary", "not-utf8", "train", "{path}: a vocabulary is not valid JSON: {ff}"),
    ("vocabulary", "repeated-event", "ingest", "{path}: 'events' names 'car' more than once"),
    ("config", "truncated", "train", "{path}: a config is not valid JSON: {eof}"),
    ("config", "not-utf8", "cv", "{path}: a config is not valid JSON: {ff}"),
    ("config", "list", "train", "{path}: a config must be a JSON object, got list"),
    ("config", "entry", "train",
     "invalid config {path}:\n  paths.manifest must be a string, got 3"),
    ("manifest", "truncated", "features", "{path}: a manifest is not valid JSON: {eof}"),
    ("manifest", "not-utf8", "eval", "{path}: a manifest is not valid JSON: {ff}"),
    ("manifest", "list", "distill", "{path}: a manifest must be a JSON object, got list"),
    ("manifest", "entry", "features", "{path}: clip 'a' must be an object, got 1"),
    ("manifest", "no-scene", "train",
     "{path}: clip 'home_0' needs 'scene' of type int, got None"),
    ("manifest", "scene-9", "train", "{path}: clip 'home_0' has scene 9, outside 0..3"),
    ("manifest", "fold--3", "train", "{path}: clip 'home_0' has fold -3, not >= 0"),
    ("manifest", "empty", "cv", "{path}: a manifest holds no clips"),
    ("soft labels", "truncated", "train", "{path}: soft labels is not valid JSON: {eof}"),
    ("soft labels", "not-utf8", "train", "{path}: soft labels is not valid JSON: {ff}"),
    ("soft labels", "list", "train", "{path}: soft labels must be a JSON object, got list"),
    ("soft labels", "entry", "train",
     "{path}: soft label of clip 'home_0' is not a list of finite numbers"),
    ("cache index", "truncated", "features", "{path}: a cache index is not valid JSON: {eof}"),
    ("cache index", "not-utf8", "features", "{path}: a cache index is not valid JSON: {ff}"),
    ("cache index", "list", "features",
     "{path}: a cache index must be a JSON object, got list"),
    ("cache index", "entry", "features", "{path}: clip 'home_0' has digest 3, not a string"),
    *(
        ("feature cache", corruption, "train",
         f"{{path}}: cache holds {bands} bands, {frames} frames and a {hop} s hop; "
         "expected 64 bands, at least 1 frame and a 0.02 s hop")
        for corruption, (bands, frames, hop) in CACHE_HEADERS.items()
    ),
    *(
        ("feature cache", "nan", command,
         "{path}: cache holds nan at band 10, frame 20, not a finite number")
        for command in ("train", "distill", "eval", "cv")
    ),
    ("annotation", "unknown-event", "train",
     "{path}: line 2: home_0: unknown event name 'thunder'"),
    ("annotation", "no-event", "ingest",
     "{path}: line 3: home_0: expected 'onset<TAB>offset<TAB>event', got '0.1\\t0.5'"),
    ("annotation", "not-utf8", "ingest", "{path}: {ff}"),
    ("annotation", "not-utf8", "train", "{path}: {ff}"),
    ("metadata", "no-scene", "ingest",
     "{path}: line 9: expected 'audio_path<TAB>scene', got 'audio/extra_0.wav'"),
    ("metadata", "unknown-scene", "ingest", "{path}: unknown scene names: 'beach'"),
    ("metadata", "repeated-clip", "ingest",
     "{path}: line 9: clip 'home_0' of 'audio2/home_0.wav' repeats line 1"),
    ("metadata", "not-utf8", "ingest", "{path}: {ff}"),
    ("fold flag", "-7", "eval", "fold -7 is not -1 (every clip) or a fold >= 0"),
    ("checkpoint", "no-band-stats", "eval", BAND_STATS),
    ("checkpoint", "3-bands", "distill", BAND_STATS),
    ("checkpoint", "nan-std", "eval", BAND_STATS),
    ("checkpoint", "params-entry", "eval", "{path}: checkpoint params[1] is 3, not a [name, shape] pair"),
    ("checkpoint", "param-name", "eval",
     "{path}: checkpoint params[0] is ['conv1.kernel', [128, 1, 3, 3]], "
     "but a student for this vocabulary has ['trunk1.kernel', [128, 1, 3, 3]]"),
    ("checkpoint", "param-shape", "distill",
     "{path}: checkpoint params[0] is ['conv1.kernel', [128, 1, 9, 1]], "
     "but a teacher for this vocabulary has ['conv1.kernel', [128, 1, 3, 3]]"),
    ("checkpoint", "nan-bias", "eval",
     "{path}: checkpoint parameter event_out.bias holds nan, not a finite number"),
    ("checkpoint", "inf-kernel", "eval",
     "{path}: checkpoint parameter trunk1.kernel holds inf, not a finite number"),
    ("checkpoint", "inf-teacher", "distill",
     "{path}: checkpoint parameter conv1.kernel holds -inf, not a finite number"),
]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "command, missing",
        [
            ("eval", "--checkpoint"),
            ("eval", "--vocabulary"),
            ("distill", "--manifest"),
            ("features", "--manifest"),
        ],
    )
    def test_missing_input_path_is_one_error_line(
        self, fixture_dataset, tmp_path, command, missing
    ):
        ds = fixture_dataset
        write_checkpoint(tmp_path / "model.ckpt", "teacher" if command == "distill" else "student")
        flags = {
            "--checkpoint": str(tmp_path / "model.ckpt"),
            "--manifest": str(ds["manifest"]),
            "--vocabulary": str(ds["vocabulary"]),
            "--features": str(ds["features"]),
        }
        if command == "features":
            flags = {"--manifest": flags["--manifest"]}
        if command == "eval":
            flags["--fold"] = "0"
        flags["--out"] = str(tmp_path / "out")
        flags[missing] = str(tmp_path / "missing.json")
        proc = run_cli(command, *(x for f in flags.items() for x in f))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "missing.json" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, corruption, command, message",
        [
            *(
                pytest.param("vocabulary", corrupt, command, message, id=f"{corrupt}-{command}")
                for corrupt, message in [
                    ("list", "{path}: a vocabulary must be a JSON object, got list"),
                    ("scenes-number", "{path}: 'scenes' must be a list of names, got 3"),
                    ("repeated-event", "{path}: 'events' names 'car' more than once"),
                ]
                for command in ["train", "distill", "eval", "cv"]
            ),
            *(
                pytest.param(*row, id="-".join(row[:3]).replace(" ", "-"))
                for row in MALFORMED_INPUTS
            ),
        ],
    )
    def test_malformed_vocabulary_is_one_error_line(
        self, fixture_dataset, tmp_path, capsys, kind, corruption, command, message
    ):
        """Every kind of input file, broken in each way, stops `command` with
        one `error:` line that names the file, before any output is made."""
        ds = fixture_dataset
        out = tmp_path / "out"
        files = {
            "manifest": ds["manifest"], "vocabulary": ds["vocabulary"],
            "config": tmp_path / "config.json", "soft labels": tmp_path / "soft_labels.json",
            "features": ds["features"], "metadata": ds["info"].metadata_path,
            "annotations": ds["info"].annotations_dir,
        }
        entries = read_manifest(ds["manifest"])
        if kind == "cache index":  # it lives in the output directory of `features`
            out.mkdir()
            files[kind] = out / "cache_index.json"
        elif kind == "checkpoint":  # the model `distill` or `eval` reads
            files[kind] = tmp_path / "model.ckpt"
        elif kind == "feature cache":  # home_0's cache in a copy of the caches
            files["features"] = shutil.copytree(ds["features"], tmp_path / "features")
            files[kind] = files["features"] / "home_0.sdfc"
        elif kind == "annotation" and command == "ingest":  # home_0's, in a directory copy
            files["annotations"] = shutil.copytree(files["annotations"], tmp_path / "annotations")
            files[kind] = files["annotations"] / "home_0.txt"
        elif kind == "annotation":  # home_0's annotation file, named by a manifest copy
            files[kind] = tmp_path / "home_0.txt"
            entries["home_0"]["annotation_path"] = str(files[kind])
            files["manifest"] = tmp_path / "manifest.json"
            files["manifest"].write_text(json.dumps(entries))
        elif kind == "metadata":
            files[kind] = tmp_path / "meta.tsv"
        else:
            files[kind] = tmp_path / "broken.json"
        path = files[kind]
        mode = "mtl_soft" if kind == "soft labels" else "mtl_hard"
        config = train_config_doc(ds, out, mode) if command == "train" else cv_config_doc(ds, out)
        config["paths"].update(
            manifest=str(files["manifest"]), vocabulary=str(files["vocabulary"]),
            soft_labels=str(files["soft labels"]), features_dir=str(files["features"]),
        )
        (tmp_path / "config.json").write_text(json.dumps(config))

        bad_entry = {
            "vocabulary": {"scenes": 3, "events": ["a"]},
            "config": dict(config, paths={**config["paths"], "manifest": 3}),
            "manifest": {"a": 1},
            "soft labels": {**{clip: [0.25] * 4 for clip in entries}, "home_0": "x"},
            "cache index": {"home_0": 3},
        }
        if corruption == "no-scene":
            del entries["home_0"]["scene"]
        elif corruption == "scene-9":
            entries["home_0"]["scene"] = 9
        elif corruption == "fold--3":
            entries["home_0"]["fold"] = -3
        elif corruption == "empty":
            entries.clear()
        elif corruption == "repeated-event":
            vocabulary = json.loads(ds["vocabulary"].read_text(encoding="utf-8"))
            bad_entry[kind] = dict(vocabulary, events=[*vocabulary["events"], "car"])
        if command in ("distill", "eval"):
            write_checkpoint(tmp_path / "model.ckpt", "teacher" if command == "distill" else "student")
        fixed = {"truncated": b'{"a": ', "not-utf8": b'{"a": "\xff"}', "list": b"[1, 2]"}
        if kind == "fold flag":
            text = None
        elif corruption in fixed:
            text = fixed[corruption]
        elif kind == "feature cache" and corruption == "nan":  # one NaN in a sound cache
            spec = read_feature_cache(path)
            spec.data[10, 20] = np.nan
            write_feature_cache(path, spec)
            text = path.read_bytes()
        elif kind == "feature cache":  # a whole payload behind the broken header
            bands, frames, hop = CACHE_HEADERS[corruption]
            data = read_feature_cache(path).data[:bands, :frames]
            text = CACHE_MAGIC + struct.pack("<HIId", CACHE_VERSION, bands, frames, hop)
            text += data.astype("<f8").tobytes()
        elif kind == "annotation":
            text = b"0.1\t0.4\tdishes\n" + {
                "unknown-event": b"0.5\t0.9\tthunder\n", "no-event": b"0.5\t0.9\tcar\n0.1\t0.5\n",
            }[corruption]
        elif kind == "metadata":  # one line more
            text = ds["info"].metadata_path.read_bytes() + {
                "no-scene": b"audio/extra_0.wav\n", "unknown-scene": b"audio/beach_0.wav\tbeach\n",
                "repeated-clip": b"audio2/home_0.wav\toffice\n",
            }[corruption]
        elif kind == "checkpoint" and corruption in CHECKPOINT_VALUES:
            name, value = CHECKPOINT_VALUES[corruption]
            params, meta = networks.load_checkpoint(path)
            params[name].values.flat[0] = value
            networks.save_checkpoint(path, params, meta)
            text = path.read_bytes()
        elif kind == "checkpoint":
            text = edit_checkpoint_header(path.read_bytes(), CHECKPOINT_HEADERS[corruption])
        else:
            doc = entries if kind == "manifest" and corruption != "entry" else bad_entry[kind]
            text = json.dumps(doc).encode()
        if text is not None:
            path.write_bytes(text)

        if command == "ingest":
            argv = [
                "--metadata", str(files["metadata"]),
                "--annotations", str(files["annotations"]),
                "--vocabulary", str(files["vocabulary"]), "--out", str(out),
            ]
        elif command == "features":
            argv = ["--manifest", str(files["manifest"]), "--out", str(out)]
        elif command in ("train", "cv"):
            argv = ["--config", str(files["config"])]
        else:
            argv = [
                "--checkpoint", str(tmp_path / "model.ckpt"),
                "--manifest", str(files["manifest"]), "--vocabulary", str(files["vocabulary"]),
                "--features", str(files["features"]),
                "--out", str(out / "soft_labels.json" if command == "distill" else out),
            ]
            fold = corruption if kind == "fold flag" else "0"
            argv += ["--fold", fold] if command == "eval" else []
        assert cli.main([command, *argv]) == 1
        expected = message.format(
            path=path,
            eof="Expecting value: line 1 column 7 (char 6)",
            ff="'utf-8' codec can't decode byte 0xff in position 7: invalid start byte",
        )
        assert capsys.readouterr().err == f"error: {expected}\n"
        if kind == "cache index":
            assert list(out.iterdir()) == [path] and path.read_bytes() == text
        else:
            assert not out.exists()

    @pytest.mark.parametrize("kind", ["metadata", "annotation"])
    def test_ingest_names_a_file_that_is_not_utf8_when_it_derives_the_vocabulary(
        self, fixture_dataset, tmp_path, capsys, kind
    ):
        """With no --vocabulary, `ingest` reads the metadata and annotation
        files for their names first; a byte that is not UTF-8 names its file."""
        info = fixture_dataset["info"]
        metadata = Path(shutil.copy(info.metadata_path, tmp_path / "meta.tsv"))
        annotations = shutil.copytree(info.annotations_dir, tmp_path / "annotations")
        path = metadata if kind == "metadata" else annotations / "home_0.txt"
        text = path.read_bytes()
        path.write_bytes(text + b"\xff\n")
        out = tmp_path / "out"
        argv = ["--metadata", str(metadata), "--annotations", str(annotations), "--out", str(out)]
        assert cli.main(["ingest", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position {len(text)}: "
            "invalid start byte\n"
        )
        assert not out.exists()

    def test_bad_soft_label_stops_train_before_training(
        self, fixture_dataset, tmp_path, capsys, monkeypatch
    ):
        ds = fixture_dataset

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train_student", no_training)
        labels = {clip_id: [0.25] * 4 for clip_id in read_manifest(ds["manifest"])}
        labels["home_1"] = [0.5, 0.5, float("nan"), 0.0]
        (tmp_path / "soft.json").write_text(json.dumps(labels))
        doc = train_config_doc(ds, tmp_path / "out", "mtl_soft")
        doc["paths"]["soft_labels"] = str(tmp_path / "soft.json")
        (tmp_path / "train.json").write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(tmp_path / "train.json")]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'soft.json'}: soft label of clip 'home_1' "
            "is not a list of finite numbers\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_failed_load_leaves_no_output_directory(
        self, fixture_dataset, tmp_path, capsys, command
    ):
        ds = fixture_dataset
        out = tmp_path / "out"
        if command == "ingest":
            argv = [
                "ingest",
                "--metadata", str(ds["info"].metadata_path),
                "--annotations", str(ds["info"].annotations_dir),
                "--vocabulary", str(tmp_path / "missing.json"),
                "--out", str(out),
            ]
            named = "missing.json"
        else:
            shutil.copytree(ds["features"], tmp_path / "features")
            (tmp_path / "features" / "home_0.sdfc").unlink()
            doc = train_config_doc(ds, out, "mtl_hard")
            doc["paths"]["features_dir"] = str(tmp_path / "features")
            (tmp_path / "train.json").write_text(json.dumps(doc))
            argv = ["train", "--config", str(tmp_path / "train.json")]
            named = "home_0.sdfc"
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert not out.exists()

    def test_distill_checks_the_temperature_before_loading(self, fixture_dataset, tmp_path, capsys):
        ds = fixture_dataset
        for value, shown in [("0", "0.0"), ("nan", "nan"), ("inf", "inf")]:
            code = cli.main([
                "distill",
                "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--manifest", str(ds["manifest"]),
                "--vocabulary", str(ds["vocabulary"]),
                "--features", str(ds["features"]),
                "--temperature", value,
                "--out", str(tmp_path / "out" / "soft_labels.json"),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert err == f"error: temperature must be a finite number > 0, got {shown}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("folds", ["0", "-1"])
    def test_ingest_rejects_fewer_than_one_fold(self, fixture_dataset, tmp_path, capsys, folds):
        ds = fixture_dataset
        code = cli.main([
            "ingest",
            "--metadata", str(ds["info"].metadata_path),
            "--annotations", str(ds["info"].annotations_dir),
            "--folds", folds,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: folds must be >= 1, got {folds}\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def use_fixed_soft_labels(ds, doc, path):
    """Point the `train` config `doc` at soft labels written to `path`: a
    fixed target, 0.7 on the clip's scene and 0.1 on the others, so a run
    does not depend on a teacher run. beta differs from alpha, so a run
    weighted by the wrong one shows."""
    labels = {}
    for clip_id, entry in read_manifest(ds["manifest"]).items():
        labels[clip_id] = [0.1] * 4
        labels[clip_id][entry["scene"]] = 0.7
    path.write_text(json.dumps(labels))
    doc["paths"]["soft_labels"] = str(path)
    doc["train"].update(beta=0.25, temperature=2.0)


class TestTrainingThreads:
    @pytest.mark.parametrize("batch_size", [3, 8])
    @pytest.mark.parametrize("mode", ["teacher", "event_only", "mtl_hard", "mtl_soft"])
    def test_one_and_two_threads_write_the_same_bytes(
        self, fixture_dataset, tmp_path, monkeypatch, mode, batch_size
    ):
        taped_threads = set()
        for name in ("student_trunk", "teacher_forward"):
            original = getattr(networks, name)

            def recording(*args, original=original):
                if ad._recording.tape is not None:
                    taped_threads.add(threading.get_ident())
                return original(*args)

            monkeypatch.setattr(networks, name, recording)
        written = []
        for threads in (1, 2):
            monkeypatch.setattr(parallel, "_threads", threads)
            taped_threads.clear()
            out = tmp_path / f"threads{threads}"
            doc = train_config_doc(fixture_dataset, out, mode, alpha=0.5, batch_size=batch_size)
            if mode == "mtl_soft":
                use_fixed_soft_labels(fixture_dataset, doc, tmp_path / "soft_labels.json")
            (tmp_path / "train.json").write_text(json.dumps(doc))
            assert cli.main(["train", "--config", str(tmp_path / "train.json")]) == 0
            assert len(taped_threads) == threads
            written.append([(out / f"{mode}{end}").read_bytes() for end in (".ckpt", "_log.jsonl")])
        assert written[0] == written[1]


class TestBlasThreads:
    VARIABLES = sedmtl.BLAS_VARIABLES

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

    # sha256 of (checkpoint, log) from 2 epochs on the fixture dataset's 8
    # chunks of 50 frames, keyed by (mode, batch size): one batch of 8, or
    # batches of 3, 3 and 2, so a change in how batches combine shows. Features and training run in fresh
    # processes, where the package pins one BLAS thread (pytest loads numpy
    # first, and the feature bits depend on the thread count). A change in
    # gradient summation order moves these bytes on the numpy/BLAS build
    # that the pinned report digest in TestEval assumes.
    TRAINING_SHA256 = {
        ("teacher", 8): (
            "44db368c29f3aa14c25ed6a3e39c68a9ceee2698def61f2c48ec8550cb2d06a0",
            "261473092ccce382424fb4eaae8c6fb2367fe236d37a27035754fba1c22a18fd",
        ),
        ("mtl_hard", 8): (
            "1f95fc7b29fe58993125cf0e69923c0f0d6e65477775ca522f33ed96e7e74b0b",
            "657213ed73f6656f15a5d02f985880165d9b6b6c9f88370e360c0d8c575eeaa6",
        ),
        ("event_only", 8): (
            "fbc8cf502c451b157df75e5e77ee3d97896044e93881f54d761cfcd9eff6239d",
            "30b126ef78330a92747ecad78224120dfac0bb9e3160fe2c8924b3acd1372f85",
        ),
        ("mtl_soft", 8): (
            "514614d3d05ab86777be8c9a15873198a206c916bf8cb24f13559eba43b60057",
            "10ff7913eb4c91a7bc87317f7e626c6c2baf4f48d4fab378b6227e0f36817cda",
        ),
        ("teacher", 3): (
            "462f83d018cfdef6a1af7dd5c42d6f500ab20cc9583330104c1cb9d8e82a6316",
            "1cf9ca9bec3cd3b8e1621255708c3239302899fa1b63baf07e30d841673f4a57",
        ),
        ("mtl_hard", 3): (
            "35387143f2c9b9c0f6435777cdbca0e09fd1bfe4826485d4b5d60d358cb1f58d",
            "4edd01316ab612047529c748e1df1111bf634402f5f140c1902f1e30d4dd309b",
        ),
    }

    @pytest.mark.parametrize(
        "mode, batch_size",
        sorted(TRAINING_SHA256),
        ids=[m if b == 8 else f"{m}-batch{b}" for m, b in sorted(TRAINING_SHA256)],
    )
    def test_training_bytes_pinned(self, fixture_dataset, tmp_path, mode, batch_size):
        doc = train_config_doc(fixture_dataset, tmp_path, mode, alpha=0.5, batch_size=batch_size)
        doc["paths"]["features_dir"] = str(tmp_path / "features")
        if mode == "mtl_soft":
            use_fixed_soft_labels(fixture_dataset, doc, tmp_path / "soft_labels.json")
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(doc))
        features = ["--manifest", doc["paths"]["manifest"], "--out", str(tmp_path / "features")]
        for argv in (["features", *features], ["train", "--config", str(cfg)]):
            subprocess.run(
                [sys.executable, "-m", "sedmtl.cli", *argv],
                env=self.env(), check=True, capture_output=True, timeout=120,
            )
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in (f"{mode}.ckpt", f"{mode}_log.jsonl")
        )
        assert digests == self.TRAINING_SHA256[mode, batch_size]

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
