"""Command line front end.

Subcommands: ingest, features, train, distill, eval, cv. Every run writes a
run manifest recording the config snapshot, sha256 digests of its inputs and
outputs, the package version, and wall-clock metadata. Wall-clock data lives
only in the run manifest, so logs, checkpoints and reports are bit-identical
across reruns with the same config and seed.

`train` also writes `<mode>.val_outputs` beside its checkpoint: the best
epoch's output for each validation clip. `eval` and `distill` take a clip's
output from there instead of forwarding it again when the entry was made
from the same checkpoint bytes, feature cache bytes, numpy version, BLAS
build and thread variables and package sources; anything else is forwarded.

Human-readable summaries go to stdout, diagnostics to stderr; machine
readable results live in files. Exit code 0 means no errors.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import BLAS_VARIABLES, __version__, evaluation as ev, networks, parallel, training
from .data import (
    Vocabulary,
    count_clipped_events,
    events_to_roll,
    make_folds,
    parse_event_annotations,
    parse_metadata,
    read_json,
    read_manifest,
    write_json,
)
from .errors import ConfigError, DataError, ParseError
from .features import (
    BandStats,
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


def _clock():
    """A run's start: UTC wall-clock time for the record, monotonic for timing."""
    return datetime.now(timezone.utc).isoformat(), time.monotonic()


def _digests(paths) -> dict:
    """{path: sha256} of each file."""
    return {str(p): _sha256_file(p) for p in paths}


def _environment() -> dict:
    """What sets the rounding of every product (see the package docstring):
    the numpy version, the BLAS build it links and the BLAS thread variables."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        **{var: os.environ.get(var) for var in BLAS_VARIABLES},
    }


_RUN_MANIFEST = "run_manifest.json"


def _write_run_manifest(out_dir, command, config_doc, inputs: dict, outputs: dict, clock):
    """`run_manifest.json` in `out_dir`; `inputs` and `outputs` map each
    file read or written to its sha256, each computed once by the command."""
    elapsed = time.monotonic() - clock[1]
    manifest = {
        "command": command,
        "config": config_doc,
        "version": __version__,
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
        "wall_clock": {"started_utc": clock[0], "elapsed_s": elapsed},
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "threads": parallel.threads(),
            **_environment(),
        },
    }
    write_json(Path(out_dir) / _RUN_MANIFEST, manifest)


# ---------------------------------------------------------------------------
# validation outputs beside a checkpoint


def _outputs_key(ckpt_digest: str) -> dict:
    """What a checkpoint's outputs depend on besides each clip's features:
    the checkpoint bytes, the `_environment()` and this package's sources."""
    sources = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"checkpoint": ckpt_digest, **_environment(), "sources": sources.hexdigest()}


def _outputs_path(ckpt_path) -> Path:
    return Path(ckpt_path).with_suffix(".val_outputs")


def _write_outputs(ckpt_path, ckpt_digest, outputs: dict, caches) -> Path:
    """`<checkpoint>.val_outputs`: the {clip id: array} `outputs` in the
    checkpoint format, its header holding the key and each clip's feature
    cache sha256 (from `caches`)."""
    entries = networks.ModelParams()
    for clip_id, output in outputs.items():
        entries.add(clip_id, output)
    path = _outputs_path(ckpt_path)
    networks.save_checkpoint(path, entries, {
        "kind": "val_outputs",
        "key": _outputs_key(ckpt_digest),
        "clips": {clip_id: caches[clip_id] for clip_id in outputs},
    })
    return path


def _known_outputs(ckpt_path, ckpt_digest, kind, vocabulary, clips, caches) -> dict:
    """{clip id: output} of each of `clips` whose entry beside the `kind`
    checkpoint has the key of `ckpt_digest`, the clip's cache sha256 and the
    shape of the clip's output; a file that is absent or does not load gives
    none. Notes on stderr how many clips it covers."""
    path = _outputs_path(ckpt_path)
    try:
        entries, meta = networks.load_checkpoint(path)
    except (OSError, DataError):
        entries, meta = networks.ModelParams(), {}
    stored = meta.get("clips")
    usable = (
        meta.get("kind") == "val_outputs" and isinstance(stored, dict)
        and meta.get("key") == _outputs_key(ckpt_digest)
    )
    found = dict(entries.items()) if usable else {}
    shape = _NETWORKS[kind][2]
    known = {
        c.clip_id: found[c.clip_id].values
        for c in clips
        if c.clip_id in found and stored.get(c.clip_id) == caches[c.clip_id]
        and found[c.clip_id].shape == shape(vocabulary, c)
    }
    _note(f"reused {len(known)} of {len(clips)} clips' outputs from {path}")
    return known


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    metadata_path = Path(args.metadata)
    ann_dir = Path(args.annotations)
    out_dir = Path(args.out)
    if not metadata_path.is_file():
        raise DataError(f"metadata file not found: {metadata_path}")
    if not ann_dir.is_dir():
        raise DataError(f"annotations directory not found: {ann_dir}")

    vocabulary = Vocabulary.load(args.vocabulary) if args.vocabulary else None
    records = _parse_file(metadata_path, parse_metadata, vocabulary)
    if len(records) < args.folds:
        raise DataError(
            f"{metadata_path}: need at least {args.folds} clips for {args.folds} folds, "
            f"got {len(records)}"
        )
    for record in records:
        ann_path = ann_dir / f"{record.clip_id}.txt"
        if not ann_path.is_file():
            raise DataError(f"annotation file missing for clip {record.clip_id!r}: {ann_path}")
        record.annotation_path = str(ann_path)
        record.events = _parse_file(ann_path, parse_event_annotations, record.clip_id, vocabulary)
    if vocabulary is None:  # the names the records hold, each list sorted, as indices
        vocabulary = Vocabulary(
            scenes=sorted({r.scene for r in records}),
            events=sorted({name for r in records for _, _, name in r.events}),
        )
        if not vocabulary.events:  # a vocabulary file cannot be empty: see Vocabulary.load
            raise DataError(f"{ann_dir}: the annotation files of the clips name no events")
        for r in records:
            r.scene = vocabulary.scenes.index(r.scene)
            r.events = [(on, off, vocabulary.events.index(name)) for on, off, name in r.events]
    folds = make_folds(records, n_folds=args.folds, seed=args.seed)

    audio_root = metadata_path.parent
    entries = {}
    for record in records:
        entries[record.clip_id] = {
            "audio_path": str((audio_root / record.audio_path).resolve()),
            "annotation_path": str(Path(record.annotation_path).resolve()),
            "scene": record.scene,
            "fold": folds[record.clip_id],
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", entries)
    write_json(out_dir / "vocabulary.json", asdict(vocabulary))

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


def _parse_file(path, parse, *args):
    """parse(the text of the UTF-8 file at `path`, *args); bytes that are not
    UTF-8, a line it cannot parse, or a name outside the vocabulary raise a
    DataError naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except (UnicodeDecodeError, ParseError) as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# features


def cmd_features(args) -> int:
    """Extract each manifest clip's features on the thread pool, then report
    and index the clips in sorted order: the output is the serial loop's."""
    entries = read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / "cache_index.json"
    index = read_json(index_path, "a cache index") if index_path.is_file() else {}
    for clip_id, digest in index.items():
        if not isinstance(digest, str):
            raise DataError(f"{index_path}: clip {clip_id!r} has digest {digest!r}, not a string")

    def extract(clip_id):
        audio_path, cache_path = entries[clip_id]["audio_path"], out_dir / f"{clip_id}.sdfc"
        try:
            return _extract_clip(clip_id, audio_path, cache_path, index.get(clip_id))
        except Exception as exc:  # raised below, after the lines of the clips before it
            return exc

    clip_ids = sorted(entries)
    failures = 0
    for clip_id, result in zip(clip_ids, parallel._thread_map(extract, clip_ids)):
        if isinstance(result, Exception):
            raise result
        digest, message, failed = result
        (_err if failed else _note)(message)
        failures += failed
        if digest is not None:
            index[clip_id] = digest
    write_json(index_path, index)
    print(f"feature cache in {out_dir}: {len(entries) - failures} ok, {failures} failed")
    return 1 if failures else 0


def _extract_clip(clip_id, audio_path, cache_path, indexed_digest):
    """One clip of `cmd_features`: (the audio's digest when its cache was
    written, else None; the clip's stderr line; whether it failed). A cache
    that `indexed_digest` shows up to date and that reads back is kept."""
    try:
        digest = _sha256_file(audio_path)
    except OSError as exc:
        return None, f"{clip_id}: cannot read audio: {exc}", True
    if indexed_digest == digest and cache_path.is_file():
        try:
            read_feature_cache(cache_path, clip_id)
            return None, f"{clip_id}: skipped (up to date)", False
        except DataError:
            pass  # corrupted cache: fall through and re-extract
    try:
        features = log_mel_energy(read_wav(audio_path), clip_id=clip_id)
        write_feature_cache(cache_path, features)
    except (ValueError, DataError) as exc:
        return None, f"{clip_id}: {exc}", True
    return digest, f"{clip_id}: extracted ({features.n_frames} frames)", False


# ---------------------------------------------------------------------------
# shared assembly


def _load_examples(manifest_path, vocabulary, features_dir):
    """({clip: fold}, {clip: ClipExample}, {file read: sha256}, {clip: its
    feature cache's sha256}): the files read are the manifest, and each
    clip's feature cache and annotation file."""
    entries = read_manifest(manifest_path)
    examples = {}
    inputs = _digests([manifest_path])
    caches = {}
    clipped_total = 0
    for clip_id in sorted(entries):
        entry = entries[clip_id]
        if not 0 <= entry["scene"] < vocabulary.n_scenes:
            raise DataError(
                f"{manifest_path}: clip {clip_id!r} has scene {entry['scene']}, "
                f"outside 0..{vocabulary.n_scenes - 1}"
            )
        cache_path = Path(features_dir) / f"{clip_id}.sdfc"
        if not cache_path.is_file():
            raise DataError(f"feature cache missing for clip {clip_id!r}: {cache_path}")
        features = read_feature_cache(cache_path, clip_id)
        ann_path = entry["annotation_path"]
        events = _parse_file(ann_path, parse_event_annotations, clip_id, vocabulary)
        roll = events_to_roll(events, features.n_frames, vocabulary.n_events)
        clipped_total += count_clipped_events(events, features.n_frames)
        examples[clip_id] = ClipExample(
            clip_id=clip_id, features=features, scene=entry["scene"], roll=roll
        )
        inputs.update(_digests([cache_path, ann_path]))
        caches[clip_id] = inputs[str(cache_path)]
    if clipped_total:
        _note(f"note: {clipped_total} annotations extend past their clip end")
    return {c: e["fold"] for c, e in entries.items()}, examples, inputs, caches


# Each kind of network: the class counts it is built for, its initialiser
# and the shape of its output for one clip.
_NETWORKS = {
    "teacher": (("n_scenes",), networks.init_teacher_params, lambda v, clip: (v.n_scenes,)),
    "student": (
        ("n_scenes", "n_events"), networks.init_student_params,
        lambda v, clip: (v.n_events, clip.features.n_frames),
    ),
}


def _load_model(args, kind, fold: int, calibrated: bool):
    """The set-up of `distill` and `eval`: (parameters, vocabulary, training
    clips, validation clips, {file read: sha256}, {clip id: known output}).

    `args.checkpoint` is checked before any features load: its kind, its
    class counts against `args.vocabulary`, its band stats, its parameter
    names and shapes against those of a `kind` network built for the
    vocabulary, and its parameter values, which must be finite. The clips of
    `fold` are standardized with its band stats; the known outputs are those
    of the clips the command reads: the validation clips, and the training
    clips too when they are `calibrated` on."""
    path = args.checkpoint
    params, meta = networks.load_checkpoint(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path} is not a {kind} checkpoint")
    vocabulary = Vocabulary.load(args.vocabulary)
    counts, init, _ = _NETWORKS[kind]
    for count in counts:
        if meta.get(count) != getattr(vocabulary, count):
            raise DataError(
                f"{path} has {count} {meta.get(count)}, "
                f"but the vocabulary has {getattr(vocabulary, count)}"
            )
    doc = meta.get("band_stats")
    mean, std = (doc.get(key) if isinstance(doc, dict) else None for key in ("mean", "std"))
    finite = all(
        isinstance(row, list) and len(row) == networks.N_BANDS
        and all(type(v) in (int, float) and np.isfinite(v) for v in row)
        for row in (mean, std)
    )
    if not (finite and min(std) > 0):
        raise DataError(
            f"{path}: checkpoint band_stats must hold {networks.N_BANDS} finite means "
            f"and {networks.N_BANDS} finite stds > 0"
        )
    found = [[name, list(t.shape)] for name, t in params.items()]
    built = init(*(getattr(vocabulary, count) for count in counts), seed=0)
    declared = [[name, list(t.shape)] for name, t in built.items()]
    for i, (got, want) in enumerate(zip_longest(found, declared, fillvalue="nothing")):
        if got != want:
            raise DataError(
                f"{path}: checkpoint params[{i}] is {got}, but a {kind} for this "
                f"vocabulary has {want}"
            )
    for name, t in params.items():
        bad = t.values[~np.isfinite(t.values)]
        if bad.size:
            raise DataError(f"{path}: checkpoint parameter {name} holds {bad[0]}, not a finite number")
    folds, examples, inputs, caches = _load_examples(args.manifest, vocabulary, args.features)
    inputs.update(_digests([path, args.vocabulary]))
    stats = BandStats(mean=np.asarray(mean), std=np.asarray(std))
    train_clips, val_clips, _ = training.standardize_split(examples, folds, fold, stats)
    read = {c.clip_id: c for c in [*(train_clips if calibrated else []), *val_clips]}
    known = _known_outputs(path, inputs[str(path)], kind, vocabulary, read.values(), caches)
    return params, vocabulary, train_clips, val_clips, inputs, known


# ---------------------------------------------------------------------------
# train


def _unmakeable_dir(path) -> str | None:
    """Why directory `path` can neither be found nor made, or None: the path,
    or its nearest existing ancestor, must be a directory."""
    existing = Path(path)
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    return None if existing.is_dir() else f"{existing} is not a directory"


def _refuse_directories(*files):
    """Raise a ConfigError naming the first of the files a command writes
    that is an existing directory, before the command loads anything."""
    for path in files:
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")


def _config_paths(doc, problems, *extra) -> dict:
    """The config's `paths` object. A top-level key other than paths, train
    and cv, a `paths` key other than the four below and soft_labels, a
    required key (the four below and `extra`) that is absent, a value that is
    no string, an input the command reads that does not exist and an out_dir
    that cannot be made go to problems."""
    problems += [f"unknown field {key}" for key in doc if key not in ("paths", "train", "cv")]
    paths = doc.get("paths")
    if not isinstance(paths, dict):
        problems.append("missing 'paths' object")
        paths = {}
    inputs = ("manifest", "vocabulary", "features_dir", *extra)
    known = ("manifest", "vocabulary", "features_dir", "out_dir", "soft_labels")
    problems += [f"unknown field paths.{key}" for key in paths if key not in known]
    for key in known:
        if key not in paths:
            if key in (*inputs, "out_dir"):
                problems.append(f"paths.{key} is required")
        elif not isinstance(paths[key], str):
            problems.append(f"paths.{key} must be a string, got {paths[key]!r}")
        elif key in inputs and not Path(paths[key]).exists():
            problems.append(f"paths.{key} does not exist: {paths[key]}")
        elif key == "out_dir" and (why := _unmakeable_dir(paths[key])):
            problems.append(f"paths.out_dir cannot be made: {why}")
    return paths


def cmd_train(args) -> int:
    clock = _clock()
    doc = read_json(args.config, "a config")
    problems = []
    config = training.check_settings(training.TrainConfig, doc.get("train"), "train", problems)
    extra = ("soft_labels",) if config is not None and config.mode == "mtl_soft" else ()
    paths = _config_paths(doc, problems, *extra)
    training.fail_on(problems, args.config)
    out_dir = Path(paths["out_dir"])
    ckpt_path = out_dir / f"{config.mode}.ckpt"
    log_path = out_dir / f"{config.mode}_log.jsonl"
    _refuse_directories(ckpt_path, _outputs_path(ckpt_path), log_path, out_dir / _RUN_MANIFEST)
    vocabulary = Vocabulary.load(paths["vocabulary"])
    folds, examples, inputs, caches = _load_examples(
        paths["manifest"], vocabulary, paths["features_dir"]
    )
    train_clips, val_clips, stats = training.standardize_split(examples, folds, config.fold)
    inputs.update(_digests([args.config, paths["vocabulary"]]))
    soft_labels = None
    if config.mode == "mtl_soft":
        soft_labels = training.load_soft_labels(paths["soft_labels"], vocabulary.n_scenes)
        missing = [c.clip_id for c in train_clips if c.clip_id not in soft_labels]
        if missing:
            raise DataError(
                f"{paths['soft_labels']}: {len(missing)} training clips have no soft label, "
                f"the first {missing[0]!r}"
            )
        inputs.update(_digests([paths["soft_labels"]]))
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.mode == "teacher":
        result = training.train_teacher(
            train_clips, val_clips, config, n_scenes=vocabulary.n_scenes
        )
        kind = "teacher"
    else:
        result = training.train_student(
            train_clips, val_clips, config, soft_labels=soft_labels, n_scenes=vocabulary.n_scenes
        )
        kind = "student"

    meta = {
        "kind": kind,
        "mode": config.mode,
        "n_scenes": vocabulary.n_scenes,
        "n_events": vocabulary.n_events,
        "n_bands": networks.N_BANDS,
        "seed": config.seed,
        "band_stats": {"mean": list(stats.mean), "std": list(stats.std)},
        "config": asdict(config),
    }
    networks.save_checkpoint(ckpt_path, result.params, meta)
    outputs = _digests([ckpt_path])
    outputs_path = _write_outputs(ckpt_path, outputs[str(ckpt_path)], result.val_outputs, caches)
    with open(log_path, "w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    outputs.update(_digests([outputs_path, log_path]))
    _write_run_manifest(out_dir, "train", doc, inputs, outputs, clock)
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
    if not (np.isfinite(args.temperature) and args.temperature > 0):
        raise ConfigError(f"temperature must be a finite number > 0, got {args.temperature}")
    out_path = Path(args.out)
    if why := _unmakeable_dir(out_path.parent):
        raise ConfigError(f"--out {args.out} cannot be written: {why}")
    _refuse_directories(out_path, out_path.parent / _RUN_MANIFEST)
    params, _, _, clips, inputs, known = _load_model(args, "teacher", -1, False)
    labels = training.compute_soft_labels(params, clips, args.temperature, known)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(out_path, {clip: list(label) for clip, label in labels.items()})
    _write_run_manifest(
        out_path.parent, "distill",
        {"temperature": args.temperature, "checkpoint": str(args.checkpoint)},
        inputs, _digests([out_path]), clock,
    )
    print(f"wrote soft labels for {len(labels)} clips to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    clock = _clock()
    flags = {k: getattr(args, k) for k in ("policy", "threshold", "smooth_window")}
    settings = training.parse_settings(training.EvalConfig, flags, "eval")
    out_dir = Path(args.out)
    if why := _unmakeable_dir(out_dir):
        raise ConfigError(f"--out {args.out} cannot be made: {why}")
    report_path, table_path = out_dir / "report.json", out_dir / "report.txt"
    _refuse_directories(report_path, table_path, out_dir / _RUN_MANIFEST)
    params, vocabulary, train_clips, val_clips, inputs, known = _load_model(
        args, "student", args.fold, settings.policy == "calibrated"
    )
    report = training.score_student(
        params, settings, train_clips, val_clips, vocabulary.events, known
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report_path, report)
    table_path.write_text(ev.format_report_table(report), encoding="utf-8")
    _write_run_manifest(
        out_dir, "eval", {"fold": args.fold, "policy": settings.policy},
        inputs, _digests([report_path, table_path]), clock,
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
    workers = _workers_from_env()
    doc = read_json(args.config, "a config")
    problems = []
    paths = _config_paths(doc, problems)
    cv = training.check_settings(training.CvConfig, doc.get("cv", {}), "cv", problems)
    train = training.check_settings(
        training.TrainConfig, doc.get("train", {}), "train", problems,
        fixed=training.CV_RUN_FIELDS,
    )
    training.fail_on(problems, args.config)
    out_dir = Path(paths["out_dir"])
    report_path, table_path = out_dir / "cv_report.json", out_dir / "cv_table.txt"
    _refuse_directories(report_path, table_path, out_dir / _RUN_MANIFEST)
    vocabulary = Vocabulary.load(paths["vocabulary"])
    folds, examples, inputs, _ = _load_examples(
        paths["manifest"], vocabulary, paths["features_dir"]
    )
    out = training.run_cross_validation(examples, folds, train, cv, vocabulary, workers=workers)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report_path, out)
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
    table_path.write_text(table, encoding="utf-8")
    inputs.update(_digests([args.config, paths["vocabulary"]]))
    outputs = _digests([report_path, table_path])
    _write_run_manifest(out_dir, "cv", doc, inputs, outputs, clock)
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
    """Run one subcommand. Every error it raises on bad input or data ends
    here as one `error:` line on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DataError, OSError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
