"""Command line front end.

Subcommands: ingest, features, train, distill, eval, cv. Every run writes a
run manifest recording the config snapshot, sha256 digests of its inputs and
outputs, the package version, and wall-clock metadata. Wall-clock data lives
only in the run manifest, so logs, checkpoints and reports are bit-identical
across reruns with the same config and seed.

Human-readable summaries go to stdout, diagnostics to stderr; machine
readable results live in files. Exit code 0 means no errors.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, evaluation as ev, networks, training
from .data import (
    FoldSplit,
    Vocabulary,
    count_clipped_events,
    events_to_roll,
    make_folds,
    parse_event_annotations,
    parse_metadata,
    read_manifest,
    write_manifest,
)
from .errors import ConfigError, DataError
from .features import (
    BandStats,
    compute_band_stats,
    log_mel_energy,
    read_feature_cache,
    read_wav,
    write_feature_cache,
)
from .training import ClipExample


def _err(message: str):
    print(f"error: {message}", file=sys.stderr)


def _note(message: str):
    print(message, file=sys.stderr)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _clock():
    """A run's start: UTC wall-clock time for the record, monotonic for timing."""
    return datetime.now(timezone.utc).isoformat(), time.monotonic()


def _write_run_manifest(out_dir, command, config_doc, inputs, outputs, clock):
    elapsed = time.monotonic() - clock[1]
    manifest = {
        "command": command,
        "config": config_doc,
        "version": __version__,
        "inputs": {str(p): _sha256_file(p) for p in sorted(str(x) for x in inputs)},
        "outputs": {str(p): _sha256_file(p) for p in sorted(str(x) for x in outputs)},
        "wall_clock": {"started_utc": clock[0], "elapsed_s": elapsed},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        },
    }
    _write_json(Path(out_dir) / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    metadata_path = Path(args.metadata)
    ann_dir = Path(args.annotations)
    out_dir = Path(args.out)
    if not metadata_path.is_file():
        _err(f"metadata file not found: {metadata_path}")
        return 1
    if not ann_dir.is_dir():
        _err(f"annotations directory not found: {ann_dir}")
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata_text = metadata_path.read_text(encoding="utf-8")

    try:
        if args.vocabulary:
            vocabulary = Vocabulary.load(args.vocabulary)
        else:
            vocabulary = _derive_vocabulary(metadata_text, ann_dir)
        records = parse_metadata(metadata_text, vocabulary)
        for record in records:
            ann_path = ann_dir / f"{record.clip_id}.txt"
            if not ann_path.is_file():
                raise DataError(
                    f"annotation file missing for clip {record.clip_id!r}: {ann_path}"
                )
            record.annotation_path = str(ann_path)
            record.events = parse_event_annotations(
                ann_path.read_text(encoding="utf-8"), record.clip_id, vocabulary
            )
        folds = make_folds(records, n_folds=args.folds, seed=args.seed)
    except (ValueError, DataError) as exc:
        _err(str(exc))
        return 1

    audio_root = metadata_path.parent
    entries = {}
    for record in records:
        entries[record.clip_id] = {
            "audio_path": str((audio_root / record.audio_path).resolve()),
            "annotation_path": str(Path(record.annotation_path).resolve()),
            "scene": record.scene,
            "fold": folds.fold_of(record.clip_id),
        }
    write_manifest(out_dir / "manifest.json", entries)
    vocabulary.save(out_dir / "vocabulary.json")

    scene_counts = {name: 0 for name in vocabulary.scenes}
    event_counts = {name: 0 for name in vocabulary.events}
    for record in records:
        scene_counts[vocabulary.scenes[record.scene]] += 1
        for _, _, cls in record.events:
            event_counts[vocabulary.events[cls]] += 1
    print(f"ingested {len(records)} clips into {out_dir}")
    print("clips per scene:")
    for name, count in scene_counts.items():
        print(f"  {name:<20} {count}")
    print("event annotations per class:")
    for name, count in event_counts.items():
        print(f"  {name:<20} {count}")
    return 0


def _derive_vocabulary(metadata_text: str, ann_dir: Path) -> Vocabulary:
    scenes = set()
    for line in metadata_text.splitlines():
        if line.strip():
            parts = line.split("\t")
            if len(parts) == 2:
                scenes.add(parts[1])
    events = set()
    for ann_path in sorted(ann_dir.glob("*.txt")):
        for line in ann_path.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if len(parts) == 3:
                events.add(parts[2])
    return Vocabulary(scenes=sorted(scenes), events=sorted(events))


# ---------------------------------------------------------------------------
# features


def cmd_features(args) -> int:
    manifest_path = Path(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = read_manifest(manifest_path)
    index_path = out_dir / "cache_index.json"
    index = {}
    if index_path.is_file():
        with open(index_path, encoding="utf-8") as fh:
            index = json.load(fh)

    failures = 0
    for clip_id in sorted(entries):
        audio_path = entries[clip_id]["audio_path"]
        cache_path = out_dir / f"{clip_id}.sdfc"
        try:
            digest = _sha256_file(audio_path)
        except OSError as exc:
            _err(f"{clip_id}: cannot read audio: {exc}")
            failures += 1
            continue
        if index.get(clip_id) == digest and cache_path.is_file():
            try:
                read_feature_cache(cache_path, clip_id)
                _note(f"{clip_id}: skipped (up to date)")
                continue
            except DataError:
                pass  # corrupted cache: fall through and re-extract
        try:
            waveform = read_wav(audio_path)
            features = log_mel_energy(waveform, clip_id=clip_id)
            write_feature_cache(cache_path, features)
            index[clip_id] = digest
            _note(f"{clip_id}: extracted ({features.data.shape[1]} frames)")
        except (ValueError, DataError) as exc:
            _err(f"{clip_id}: {exc}")
            failures += 1
    _write_json(index_path, index)
    print(f"feature cache in {out_dir}: {len(entries) - failures} ok, {failures} failed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# shared assembly


def _load_examples(manifest_path, vocabulary, features_dir):
    entries = read_manifest(manifest_path)
    examples = {}
    clipped_total = 0
    for clip_id in sorted(entries):
        entry = entries[clip_id]
        cache_path = Path(features_dir) / f"{clip_id}.sdfc"
        if not cache_path.is_file():
            raise DataError(f"feature cache missing for clip {clip_id!r}: {cache_path}")
        features = read_feature_cache(cache_path, clip_id)
        events = parse_event_annotations(
            Path(entry["annotation_path"]).read_text(encoding="utf-8"),
            clip_id,
            vocabulary,
        )
        roll = events_to_roll(
            events, features.n_frames, features.hop_seconds, vocabulary.n_events
        )
        clipped_total += count_clipped_events(events, features.n_frames, features.hop_seconds)
        examples[clip_id] = ClipExample(
            clip_id=clip_id, features=features, scene=entry["scene"], roll=roll
        )
    if clipped_total:
        _note(f"note: {clipped_total} annotations extend past their clip end")
    return entries, examples


def _fold_assignment(entries) -> dict:
    return {c: e["fold"] for c, e in entries.items()}


def _stats_to_meta(stats: BandStats) -> dict:
    return {"mean": list(stats.mean), "std": list(stats.std)}


def _stats_from_meta(doc: dict) -> BandStats:
    return BandStats(mean=np.asarray(doc["mean"]), std=np.asarray(doc["std"]))


def _read_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("invalid config:\n  the top level must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# train


def _config_paths(doc, problems) -> dict:
    """The config's `paths` object; what is missing or absent goes to problems."""
    paths = doc.get("paths")
    if not isinstance(paths, dict):
        problems.append("missing 'paths' object")
        paths = {}
    for key in ("manifest", "vocabulary", "features_dir", "out_dir"):
        if key not in paths:
            problems.append(f"paths.{key} is required")
        elif key != "out_dir" and not Path(paths[key]).exists():
            problems.append(f"paths.{key} does not exist: {paths[key]}")
    return paths


def _load_train_config(path):
    doc = _read_config(path)
    problems = []
    paths = _config_paths(doc, problems)
    config = training.check_settings(training.TrainConfig, doc.get("train"), "train", problems)
    if config is not None and config.mode == "mtl_soft":
        if "soft_labels" not in paths:
            problems.append("paths.soft_labels is required for mode mtl_soft")
        elif not Path(paths["soft_labels"]).exists():
            problems.append(f"paths.soft_labels does not exist: {paths['soft_labels']}")
    training.fail_on(problems)
    return doc, config, paths


def cmd_train(args) -> int:
    clock = _clock()
    try:
        doc, config, paths = _load_train_config(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        _err(str(exc))
        return 1
    out_dir = Path(paths["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        vocabulary = Vocabulary.load(paths["vocabulary"])
        entries, examples = _load_examples(paths["manifest"], vocabulary, paths["features_dir"])
        train_ids, val_ids = training.split_ids(_fold_assignment(entries), config.fold)
        stats = compute_band_stats([examples[c].features for c in train_ids])
        split = training.standardize_split(examples, stats)
        train_clips = [split[c] for c in train_ids]
        val_clips = [split[c] for c in val_ids]

        inputs = [args.config, paths["manifest"], paths["vocabulary"]]
        inputs += [Path(paths["features_dir"]) / f"{c}.sdfc" for c in sorted(entries)]
        inputs += [entries[c]["annotation_path"] for c in sorted(entries)]

        if config.mode == "teacher":
            result = training.train_teacher(
                train_clips, val_clips, config, n_scenes=vocabulary.n_scenes
            )
            kind = "teacher"
        else:
            soft_labels = None
            if config.mode == "mtl_soft":
                soft_labels = training.load_soft_labels(paths["soft_labels"])
                inputs.append(paths["soft_labels"])
            result = training.train_student(
                train_clips, val_clips, config,
                soft_labels=soft_labels, n_scenes=vocabulary.n_scenes,
            )
            kind = "student"
    except (ValueError, DataError) as exc:
        _err(str(exc))
        return 1

    ckpt_path = out_dir / f"{config.mode}.ckpt"
    meta = {
        "kind": kind,
        "mode": config.mode,
        "n_scenes": vocabulary.n_scenes,
        "n_events": vocabulary.n_events,
        "n_bands": networks.N_BANDS,
        "seed": config.seed,
        "band_stats": _stats_to_meta(stats),
        "config": asdict(config),
    }
    networks.save_checkpoint(ckpt_path, result.params, meta)
    log_path = out_dir / f"{config.mode}_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_run_manifest(out_dir, "train", doc, inputs, [ckpt_path, log_path], clock)
    best = result.log[result.best_epoch - 1]["val_metrics"] if result.log else {}
    print(
        f"trained {config.mode} for {len(result.log)} epochs; "
        f"best epoch {result.best_epoch} {best}; checkpoint {ckpt_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# distill


def cmd_distill(args) -> int:
    clock = _clock()
    try:
        params, meta = networks.load_checkpoint(args.checkpoint)
        if meta.get("kind") != "teacher":
            raise DataError(f"{args.checkpoint} is not a teacher checkpoint")
        if args.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {args.temperature}")
        vocabulary = Vocabulary.load(args.vocabulary)
        entries, examples = _load_examples(args.manifest, vocabulary, args.features)
        split = training.standardize_split(examples, _stats_from_meta(meta["band_stats"]))
        clips = [split[c] for c in sorted(split)]
        labels = training.compute_soft_labels(params, clips, args.temperature)
    except (ValueError, DataError) as exc:
        _err(str(exc))
        return 1
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    training.save_soft_labels(out_path, labels)
    inputs = [args.checkpoint, args.manifest, args.vocabulary]
    inputs += [Path(args.features) / f"{c}.sdfc" for c in sorted(entries)]
    _write_run_manifest(
        out_path.parent, "distill",
        {"temperature": args.temperature, "checkpoint": str(args.checkpoint)},
        inputs, [out_path], clock,
    )
    print(f"wrote soft labels for {len(labels)} clips to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    clock = _clock()
    try:
        flags = {k: getattr(args, k) for k in ("policy", "threshold", "smooth_window")}
        settings = training.parse_settings(training.EvalConfig, flags, "eval")
        params, meta = networks.load_checkpoint(args.checkpoint)
        if meta.get("kind") != "student":
            raise DataError(f"{args.checkpoint} is not a student checkpoint")
        vocabulary = Vocabulary.load(args.vocabulary)
        entries, examples = _load_examples(args.manifest, vocabulary, args.features)
        split = training.standardize_split(examples, _stats_from_meta(meta["band_stats"]))
        train_ids, val_ids = training.split_ids(_fold_assignment(entries), args.fold)
        # One student forward per distinct clip, run when first read; at
        # --fold -1 the calibration and evaluation clips are the same set.
        posteriors = functools.cache(lambda c: training.student_posteriors(params, split[c]))

        def pairs(clip_ids):
            return ((posteriors(c), split[c].roll) for c in clip_ids)

        policy = training.eval_policy(settings, pairs(train_ids))
        scores = training.evaluate_student(
            pairs(val_ids), policy, smooth_window=settings.smooth_window
        )
        per_event = training.pooled_per_event(scores["counts"], vocabulary.events)
    except (ValueError, DataError) as exc:
        _err(str(exc))
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ev.report_dict(scores["counts"], per_event)
    report["policy"] = {
        "kind": policy.kind,
        "threshold": settings.threshold if policy.kind == "fixed" else None,
        "per_class": list(policy.per_class) if policy.per_class is not None else None,
        "smooth_window": settings.smooth_window,
        "note": "per-event ER is class-restricted (no cross-class substitutions)",
    }
    report_path = out_dir / "report.json"
    _write_json(report_path, report)
    table_path = out_dir / "report.txt"
    table_path.write_text(ev.format_report_table(report), encoding="utf-8")
    inputs = [args.checkpoint, args.manifest, args.vocabulary]
    inputs += [Path(args.features) / f"{c}.sdfc" for c in sorted(entries)]
    _write_run_manifest(
        out_dir, "eval", {"fold": args.fold, "policy": settings.policy},
        inputs, [report_path, table_path], clock,
    )
    print(
        f"fold {args.fold}: F-score {report['overall']['f1']:.2f}% "
        f"ER {report['overall']['er']:.3f} ({report_path})"
    )
    return 0


# ---------------------------------------------------------------------------
# cross-validation


def _workers_from_env() -> int:
    raw = os.environ.get("SEDMTL_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"SEDMTL_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def cmd_cv(args) -> int:
    clock = _clock()
    try:
        workers = _workers_from_env()
        doc = _read_config(args.config)
        problems = []
        paths = _config_paths(doc, problems)
        cv = training.check_settings(training.CvConfig, doc.get("cv", {}), "cv", problems)
        base = doc.get("train", {})
        train = training.check_settings(
            training.TrainConfig, base, "train", problems, fixed=training.CV_RUN_FIELDS
        )
        training.fail_on(problems)
        vocabulary = Vocabulary.load(paths["vocabulary"])
        entries, examples = _load_examples(paths["manifest"], vocabulary, paths["features_dir"])
        fold_split = FoldSplit(
            assignment=_fold_assignment(entries),
            n_folds=max(e["fold"] for e in entries.values()) + 1,
        )
        out = training.run_cross_validation(
            examples, fold_split, base, cv.modes, cv.seeds,
            eval_cfg=asdict(cv.eval), workers=workers, event_names=vocabulary.events,
        )
    except (ValueError, DataError, OSError, json.JSONDecodeError) as exc:
        _err(str(exc))
        return 1

    out_dir = Path(paths["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "cv_report.json"
    _write_json(report_path, out)
    lines = [f"{'Method':<28} {'F-score':>8} {'ER':>7}  (runs)"]
    label = {
        "event_only": "CNN-BiGRU (event only)",
        "mtl_hard": f"MTL (alpha={train.alpha})",
        "mtl_soft": f"MTL w/ soft labels (beta={train.beta}, T={train.temperature})",
    }
    for mode in cv.modes:
        agg = out["aggregate"][mode]
        lines.append(
            f"{label[mode]:<28} {agg['f1']:7.2f}% {agg['er']:7.3f}  ({agg['n_runs']})"
        )
    table = "\n".join(lines) + "\n"
    (out_dir / "cv_table.txt").write_text(table, encoding="utf-8")
    inputs = [args.config, paths["manifest"], paths["vocabulary"]]
    inputs += [Path(paths["features_dir"]) / f"{c}.sdfc" for c in sorted(entries)]
    _write_run_manifest(out_dir, "cv", doc, inputs, [report_path, out_dir / "cv_table.txt"], clock)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedmtl",
        description="Sound event detection trained jointly with scene classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse metadata/annotations, build folds")
    p.add_argument("--metadata", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocabulary", default=None)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="extract log mel features to a cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a teacher or student model")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distill", help="emit soft scene labels from a teacher")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocabulary", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="evaluate a student checkpoint on a fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocabulary", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--fold", type=int, required=True)
    # defaults and rules are EvalConfig's, checked like a cv.eval block
    p.add_argument("--policy", default=training.EvalConfig.policy, help="fixed or calibrated")
    p.add_argument("--threshold", type=float, default=training.EvalConfig.threshold)
    p.add_argument("--smooth-window", type=int, default=training.EvalConfig.smooth_window)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="cross-validate modes over folds and seeds")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_cv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
