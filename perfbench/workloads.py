"""The three benchmark workloads and the checks on their outputs.

Each workload has a set-up (inputs made from the seed by
`sedmtl.fixture.generate_fixture`, then ingested and, where the pipeline does
not time it, feature-extracted) and a pipeline of `sedmtl` CLI calls that one
measured iteration runs. Every training config sets `patience >= max_epochs`,
so the number of epochs cannot depend on the code under test.

  paper-train    16 clips x 10 s, 500-frame chunks, batch 16: teacher, distill,
                 mtl_soft student, fixed-threshold eval. Large activations, so
                 conv, pooling, backward and the 500-step GRU loop dominate.
  fixture-study  8 clips x 1 s, 50-frame chunks, batch 8, 2 folds: the small
                 end-to-end chain with calibrated eval, then `cv` over all
                 three modes. Small arrays: per-op Python and tape overhead,
                 Adam steps and per-epoch validation dominate.
  eval-many      clips x 5 s (the count is `EVAL_MANY_CLIPS`), cold feature
                 extraction then calibrated eval of a student checkpoint
                 trained during set-up. Forward-only network code plus
                 scoring and threshold calibration.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from sedmtl import evaluation, features, networks
from sedmtl.fixture import generate_fixture

EVAL_MANY_CLIPS = 32


class CheckFailed(Exception):
    """An output of the program is missing, malformed or implausible."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_dir(path) -> str:
    digest = hashlib.sha256()
    for item in sorted(Path(path).iterdir()):
        digest.update(item.name.encode() + b"\0" + item.read_bytes())
    return digest.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# output checks


def check_checkpoint(path, kind, n_scenes, n_events):
    params, meta = networks.load_checkpoint(path)
    _require(meta.get("kind") == kind, f"{path}: kind {meta.get('kind')!r}, expected {kind!r}")
    _require(meta.get("n_scenes") == n_scenes, f"{path}: wrong scene count")
    if kind == "student":
        _require(meta.get("n_events") == n_events, f"{path}: wrong event count")
    for name, tensor in params.items():
        _require(bool(np.isfinite(tensor.values).all()), f"{path}: {name} is not finite")
    return sha256_file(path)


def check_log(path, epochs):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    _require(len(records) == epochs, f"{path}: {len(records)} epochs, expected {epochs}")
    for rec in records:
        for key, value in rec["train_losses"].items():
            _require(math.isfinite(value), f"{path}: epoch {rec['epoch']} {key}={value}")
    return sha256_file(path)


def check_soft_labels(path, n_clips, n_scenes):
    doc = json.loads(Path(path).read_text())
    _require(len(doc) == n_clips, f"{path}: {len(doc)} clips, expected {n_clips}")
    for clip_id, probs in doc.items():
        _require(len(probs) == n_scenes, f"{path}: {clip_id} has {len(probs)} scenes")
        _require(abs(sum(probs) - 1.0) < 1e-9 and min(probs) >= 0.0,
                 f"{path}: {clip_id} is not a probability vector")
    return sha256_file(path)


def check_report(report_dir, n_events):
    report = json.loads((Path(report_dir) / "report.json").read_text())
    overall = report["overall"]
    _require(0.0 <= overall["f1"] <= 100.0, f"{report_dir}: F1 {overall['f1']} out of range")
    _require(math.isfinite(overall["er"]) and overall["er"] >= 0.0,
             f"{report_dir}: ER {overall['er']} out of range")
    _require(len(report["per_event"]) == n_events, f"{report_dir}: wrong per-event rows")
    table = (Path(report_dir) / "report.txt").read_text()
    _require(table == evaluation.format_report_table(report),
             f"{report_dir}: report.txt does not match report.json")
    return report, {
        "report.json": sha256_file(Path(report_dir) / "report.json"),
        "report.txt": sha256_file(Path(report_dir) / "report.txt"),
    }


def check_cv(out_dir, n_runs, modes):
    doc = json.loads((Path(out_dir) / "cv_report.json").read_text())
    _require(len(doc["runs"]) == n_runs, f"{out_dir}: {len(doc['runs'])} runs, expected {n_runs}")
    _require(sorted(doc["aggregate"]) == sorted(modes), f"{out_dir}: wrong aggregate modes")
    for run in doc["runs"]:
        _require(0.0 <= run["f1"] <= 100.0 and run["er"] >= 0.0, f"{out_dir}: bad run scores")
    return {
        "cv_report.json": sha256_file(Path(out_dir) / "cv_report.json"),
        "cv_table.txt": sha256_file(Path(out_dir) / "cv_table.txt"),
    }


def check_feature_cache(cache_dir, clip_ids, n_frames):
    for clip_id in clip_ids:
        spec = features.read_feature_cache(Path(cache_dir) / f"{clip_id}.sdfc", clip_id)
        _require(spec.data.shape == (networks.N_BANDS, n_frames),
                 f"{cache_dir}: {clip_id} has shape {spec.data.shape}")
        _require(bool(np.isfinite(spec.data).all()), f"{cache_dir}: {clip_id} is not finite")
    index = json.loads((Path(cache_dir) / "cache_index.json").read_text())
    _require(sorted(index) == sorted(clip_ids), f"{cache_dir}: cache index is incomplete")
    return sha256_dir(cache_dir)


# ---------------------------------------------------------------------------
# shared pieces


def _ingest_and_extract(run, data_dir, out_dir, seed, folds, *, extract=True):
    """Ingest a fixture dataset and, optionally, extract its features."""
    run.cli("setup", [
        "ingest", "--metadata", str(Path(data_dir) / "meta.tsv"),
        "--annotations", str(Path(data_dir) / "annotations"),
        "--out", str(Path(out_dir) / "ingested"),
        "--folds", str(folds), "--seed", str(seed),
    ])
    if extract:
        run.cli("setup", [
            "features", "--manifest", str(Path(out_dir) / "ingested" / "manifest.json"),
            "--out", str(Path(out_dir) / "features"),
        ])


def _paths(ctx, out_dir, **extra):
    return {
        "manifest": str(ctx["root"] / "ingested" / "manifest.json"),
        "vocabulary": str(ctx["root"] / "ingested" / "vocabulary.json"),
        "features_dir": str(ctx["root"] / "features"),
        "out_dir": str(out_dir),
        **extra,
    }


def _write_config(path, doc):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def _train(run, stage, ctx, out_dir, train, **extra_paths):
    cfg = _write_config(
        Path(out_dir).parent / f"{Path(out_dir).name}.json",
        {"train": train, "paths": _paths(ctx, out_dir, **extra_paths)},
    )
    run.cli(stage, ["train", "--config", cfg])


def _distill(run, ctx, teacher_ckpt, out_path):
    run.cli("distill", [
        "distill", "--checkpoint", str(teacher_ckpt),
        "--manifest", str(ctx["root"] / "ingested" / "manifest.json"),
        "--vocabulary", str(ctx["root"] / "ingested" / "vocabulary.json"),
        "--features", str(ctx["root"] / "features"),
        "--temperature", "1.0", "--out", str(out_path),
    ])


def _eval(run, ctx, ckpt, out_dir, policy, features_dir=None):
    run.cli("eval", [
        "eval", "--checkpoint", str(ckpt),
        "--manifest", str(ctx["root"] / "ingested" / "manifest.json"),
        "--vocabulary", str(ctx["root"] / "ingested" / "vocabulary.json"),
        "--features", str(features_dir or ctx["root"] / "features"),
        "--fold", "-1", "--policy", policy, "--out", str(out_dir),
    ])


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    setup_repeats = 3
    # Spans that a traced iteration of this workload must record at least once.
    expected_spans = ()

    def setup(self, run, root, seed):
        raise NotImplementedError

    def iterate(self, run, ctx, out):
        raise NotImplementedError

    def check(self, ctx, out):
        """Validate one iteration's outputs; returns (artifact digests, quality)."""
        raise NotImplementedError

    def stage_rates(self, ctx, stages):
        """Stage throughput figures from one iteration's stage timings."""
        return {}


_TRAINING_SPANS = (
    "autodiff.conv2d", "autodiff.maxpool2d", "autodiff.bigru_forward",
    "autodiff.Tape.backward", "networks.student_forward.train",
    "networks.student_forward.infer", "networks.teacher_forward.train",
    "networks.teacher_forward.infer", "losses.event_loss", "losses.scene_hard_loss",
    "losses.soft_scene_loss", "training.adam_step", "training.train_teacher",
    "training.train_student", "training.compute_soft_labels",
    "training.student_posteriors", "training.evaluate_student",
    "training.pooled_per_event", "evaluation.segment_counts",
    "evaluation.median_smooth", "evaluation.SegmentCounts.merge",
    "data.chunk_clips", "features.read_feature_cache", "features.standardize",
    "features.compute_band_stats", "networks.save_checkpoint",
    "networks.load_checkpoint", "cli.main", "cli.cmd_train", "cli.cmd_distill",
    "cli.cmd_eval",
)


class PaperTrain(Workload):
    name = "paper-train"
    clips_per_scene = 4
    clip_seconds = 10.0
    n_frames = 499
    teacher_epochs = 1
    student_epochs = 1
    chunk_len = 500
    batch_size = 16
    eval_policy = "fixed"
    eval_repeats = 1
    expected_spans = _TRAINING_SPANS

    def setup(self, run, root, seed):
        info = generate_fixture(root / "data", clip_seconds=self.clip_seconds,
                                clips_per_scene=self.clips_per_scene, seed=seed)
        _ingest_and_extract(run, root / "data", root, seed, folds=2)
        ctx = {"root": root, "n_clips": len(info.clips),
               "n_scenes": info.vocabulary.n_scenes, "n_events": info.vocabulary.n_events}
        ids = [c.clip_id for c in info.clips]
        digests = {"features": check_feature_cache(root / "features", ids, self.n_frames)}
        return ctx, digests

    def _common(self, epochs):
        return {"max_epochs": epochs, "patience": epochs, "seed": 0, "fold": -1,
                "batch_size": self.batch_size, "learning_rate": 1e-3}

    def iterate(self, run, ctx, out):
        _train(run, "teacher", ctx, out / "teacher",
               {"mode": "teacher", **self._common(self.teacher_epochs)})
        _distill(run, ctx, out / "teacher" / "teacher.ckpt", out / "soft_labels.json")
        _train(run, "student", ctx, out / "student",
               {"mode": "mtl_soft", "beta": 1.0, "temperature": 1.0,
                "chunk_len": self.chunk_len, **self._common(self.student_epochs)},
               soft_labels=str(out / "soft_labels.json"))
        for k in range(self.eval_repeats):
            _eval(run, ctx, out / "student" / "mtl_soft.ckpt", out / f"report{k or ''}",
                  self.eval_policy)

    def stage_rates(self, ctx, stages):
        chunks = ctx["n_clips"] * -(-self.n_frames // self.chunk_len)
        frames = chunks * self.chunk_len * self.student_epochs
        return {
            "teacher_epoch_s": stages["teacher"] / self.teacher_epochs,
            "student_frames_per_s": frames / stages["student"],
        }

    def check(self, ctx, out):
        n_s, n_e = ctx["n_scenes"], ctx["n_events"]
        digests = {
            "teacher.ckpt": check_checkpoint(out / "teacher" / "teacher.ckpt", "teacher", n_s, n_e),
            "teacher_log.jsonl": check_log(out / "teacher" / "teacher_log.jsonl",
                                           self.teacher_epochs),
            "soft_labels.json": check_soft_labels(out / "soft_labels.json", ctx["n_clips"], n_s),
            "mtl_soft.ckpt": check_checkpoint(out / "student" / "mtl_soft.ckpt", "student",
                                              n_s, n_e),
            "mtl_soft_log.jsonl": check_log(out / "student" / "mtl_soft_log.jsonl",
                                            self.student_epochs),
        }
        report, report_digests = check_report(out / "report", n_e)
        for k in range(1, self.eval_repeats):
            _, repeat = check_report(out / f"report{k}", n_e)
            _require(repeat == report_digests, f"{out}: eval repeat {k} differs from the first")
        digests.update(report_digests)
        return digests, report["overall"]


class FixtureStudy(PaperTrain):
    name = "fixture-study"
    clips_per_scene = 2
    clip_seconds = 1.0
    n_frames = 49
    teacher_epochs = 8
    student_epochs = 8
    cv_epochs = 2
    chunk_len = 50
    batch_size = 8
    setup_repeats = 9
    eval_policy = "calibrated"
    eval_repeats = 3  # a sub-second stage: repeated so that its median holds steady
    modes = ("event_only", "mtl_hard", "mtl_soft")
    expected_spans = _TRAINING_SPANS + (
        "training.run_cross_validation", "training.standardize_split",
        "evaluation.calibrate_thresholds", "cli.cmd_cv",
    )

    def iterate(self, run, ctx, out):
        super().iterate(run, ctx, out)
        cfg = _write_config(out / "cv.json", {
            "paths": _paths(ctx, out / "cv"),
            "train": {"alpha": 0.0001, "beta": 1.0, "temperature": 1.0,
                      "max_epochs": self.cv_epochs, "patience": self.cv_epochs,
                      "chunk_len": self.chunk_len, "batch_size": self.batch_size},
            "cv": {"modes": list(self.modes), "seeds": [0]},
        })
        run.cli("cv", ["cv", "--config", cfg])

    def check(self, ctx, out):
        digests, overall = super().check(ctx, out)
        digests.update(check_cv(out / "cv", 2 * len(self.modes), self.modes))
        return digests, overall


class EvalMany(Workload):
    name = "eval-many"
    clip_seconds = 5.0
    n_frames = 249
    # The checkpoint is trained on a separate 8-clip set of the same generator
    # (its own noise seed), 4 epochs on 1 s clips: cheap enough to set up 3 times.
    train_clip_seconds = 1.0
    train_epochs = 4
    expected_spans = (
        "features.read_wav", "features.log_mel_energy", "features.write_feature_cache",
        "features.read_feature_cache", "features.standardize", "autodiff.conv2d",
        "autodiff.maxpool2d", "autodiff.bigru_forward", "networks.student_forward.infer",
        "networks.load_checkpoint", "training.student_posteriors",
        "training.evaluate_student", "training.pooled_per_event",
        "evaluation.calibrate_thresholds", "evaluation.segment_counts",
        "evaluation.median_smooth", "evaluation.SegmentCounts.merge",
        "evaluation.binarize", "cli.cmd_features", "cli.cmd_eval",
    )

    def setup(self, run, root, seed):
        per_scene = EVAL_MANY_CLIPS // 4
        info = generate_fixture(root / "data", clip_seconds=self.clip_seconds,
                                clips_per_scene=per_scene, seed=seed)
        _ingest_and_extract(run, root / "data", root, seed, folds=2, extract=False)
        train_root = root / "train"
        generate_fixture(train_root / "data", clip_seconds=self.train_clip_seconds,
                         clips_per_scene=2, seed=seed + 1)
        _ingest_and_extract(run, train_root / "data", train_root, seed, folds=2)
        _train(run, "setup", {"root": train_root}, train_root / "student", {
            "mode": "mtl_hard", "alpha": 0.0001, "max_epochs": self.train_epochs,
            "patience": self.train_epochs, "seed": 0, "fold": -1, "chunk_len": 50,
            "batch_size": 8,
        })
        ckpt = train_root / "student" / "mtl_hard.ckpt"
        ctx = {"root": root, "ckpt": ckpt, "n_clips": len(info.clips),
               "clip_ids": [c.clip_id for c in info.clips],
               "n_scenes": info.vocabulary.n_scenes, "n_events": info.vocabulary.n_events}
        digests = {"checkpoint": check_checkpoint(ckpt, "student", ctx["n_scenes"],
                                                  ctx["n_events"])}
        return ctx, digests

    def iterate(self, run, ctx, out):
        run.cli("features", [
            "features", "--manifest", str(ctx["root"] / "ingested" / "manifest.json"),
            "--out", str(out / "features"),
        ])
        _eval(run, ctx, ctx["ckpt"], out / "report", "calibrated",
              features_dir=out / "features")

    def check(self, ctx, out):
        digests = {"features": check_feature_cache(out / "features", ctx["clip_ids"],
                                                   self.n_frames)}
        report, report_digests = check_report(out / "report", ctx["n_events"])
        digests.update(report_digests)
        return digests, report["overall"]


WORKLOADS = {w.name: w for w in (PaperTrain(), FixtureStudy(), EvalMany())}
