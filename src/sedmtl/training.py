"""Two-stage training: teacher on hard scene labels, then the multitask
student under the event loss plus a weighted scene term.

Modes:
  teacher     scene classifier minimizing the hard softmax cross-entropy
  event_only  student trained on the event loss alone (the CRNN baseline)
  mtl_hard    event loss + alpha * hard scene loss
  mtl_soft    event loss + beta * soft scene loss against frozen teacher
              outputs softened at temperature T

Every run is deterministic given (config, seed, data) and the BLAS thread
count: parameter init, batch order and the optimizer all draw from seeded
generators, but a multi-threaded BLAS may split matrix products differently
for another thread count. The package pins one thread unless the caller set
another (see `sedmtl/__init__.py`), so checkpoints are bit-identical on any
machine with the same numpy/BLAS build. Cross-validation fans runs out per
(fold, seed), one process each.

The student records one autodiff tape per mini-batch: its chunks share one
length, so a single forward and backward covers the batch, with the scene
losses still taken per chunk. The teacher records one tape per clip, because
its clips may differ in length. A loss or gradient that is not finite stops
training before the optimizer step, naming the epoch, batch and parameter.
"""

import functools
import json
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import losses, networks
from .data import EventRoll, chunk_clips
from .errors import ConfigError, DataError, DimensionError
from .features import BandStats, LogMelSpectrogram, compute_band_stats, standardize
from .losses import SceneTarget

MODES = ("teacher", "mtl_hard", "mtl_soft", "event_only")
STUDENT_MODES = ("event_only", "mtl_hard", "mtl_soft")
# cv sets these per run from the named source, so its `train` block must not;
# the values stand in for them when that block is checked
CV_RUN_FIELDS = {
    "mode": ("event_only", "cv.modes"),
    "seed": (0, "cv.seeds"),
    "fold": (0, "the manifest folds"),
}

# ---------------------------------------------------------------------------
# settings: each section is a dataclass whose fields declare the JSON type
# (the annotation), the default and the value rule; `check_settings` reads
# them for `train`, `cv`, `cv.eval` and the `eval` flags alike.


def _rule(ok, text, default=MISSING):
    """A settings field whose value must pass `ok`; `text` words the rule in
    error messages and in the README's config reference."""
    return field(default=default, metadata={"ok": ok, "rule": text})


@dataclass
class TrainConfig:
    mode: str = _rule(lambda v: v in MODES, f"must be one of {MODES}")
    alpha: float = _rule(lambda v: v >= 0, "must be >= 0", 0.0)
    beta: float = _rule(lambda v: v >= 0, "must be >= 0", 0.0)
    temperature: float = _rule(lambda v: v > 0, "must be > 0", 1.0)
    learning_rate: float = _rule(lambda v: v > 0, "must be > 0", 1e-3)
    batch_size: int = _rule(lambda v: v >= 1, "must be >= 1", 16)
    max_epochs: int = _rule(lambda v: v >= 1, "must be >= 1", 200)
    patience: int = _rule(lambda v: v >= 0, "must be >= 0", 20)
    seed: int = _rule(lambda v: v >= 0, "must be >= 0", 0)
    fold: int = _rule(
        lambda v: v >= -1, "must be >= -1 (-1 trains and validates on all clips)", 0
    )
    chunk_len: int = _rule(lambda v: v >= 1, "must be >= 1", 500)


@dataclass(frozen=True)
class EvalConfig:
    """How `eval` and `cv` turn posteriors into decisions."""

    policy: str = _rule(
        lambda v: v in ("fixed", "calibrated"), "must be 'fixed' or 'calibrated'", "fixed"
    )
    threshold: float = _rule(lambda v: 0 < v < 1, "must be a number in (0, 1)", 0.5)
    smooth_window: int = _rule(
        lambda v: v >= 1 and v % 2 == 1, "must be an odd integer >= 1",
        ev.DEFAULT_SMOOTH_WINDOW,
    )
    grid: tuple[float, ...] = _rule(
        lambda v: len(v) > 0 and all(0 < g < 1 for g in v),
        "must be a non-empty list of numbers in (0, 1)", ev.CALIBRATION_GRID,
    )


@dataclass(frozen=True)
class CvConfig:
    """Which student modes and seeds `cv` runs, and how it scores them."""

    modes: tuple[str, ...] = _rule(
        lambda v: len(v) > 0 and set(v) <= set(STUDENT_MODES) and len(set(v)) == len(v),
        f"must be a non-empty list of distinct modes from {STUDENT_MODES}", STUDENT_MODES,
    )
    seeds: tuple[int, ...] = _rule(
        lambda v: len(v) > 0 and min(v) >= 0 and len(set(v)) == len(v),
        "must be a non-empty list of distinct integers >= 0", (0, 1, 2),
    )
    eval: EvalConfig = EvalConfig()


def _has_type(value, kind) -> bool:
    """Whether a JSON value has a field's annotated type: a float field takes
    any number, a tuple field a list; a bool is never a number."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    scalar = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, scalar)


def check_settings(cls, doc, section: str, problems: list, fixed: dict | None = None):
    """The settings dataclass `cls` built from the plain dict `doc`, or None,
    appending every violation to `problems`. Absent fields take their
    defaults and lists become tuples. `fixed` maps each field that another
    source sets to (stand-in value, source): `doc` must not set it.

    A field prints as `section.name`, except in the `train` section, whose
    fields print as 'name'.
    """
    if not isinstance(doc, dict):
        problems.append(f"{section} must be an object")
        return None
    found = len(problems)
    known = {f.name: f for f in fields(cls)}

    def label(name):
        return repr(name) if section == "train" else f"{section}.{name}"

    fixed = fixed or {}
    problems += [
        f"field {label(key)} is set per run by {source}, not by the {section} block"
        for key, (_, source) in fixed.items()
        if key in doc
    ]
    doc = {**doc, **{key: value for key, (value, _) in fixed.items()}}
    problems += [f"unknown field {label(key)}" for key in doc if key not in known]
    values = {}
    for name, spec in known.items():
        if name not in doc:
            if spec.default is MISSING:
                problems.append(f"field {label(name)} is required")
            continue
        value = doc[name]
        if is_dataclass(spec.type):
            values[name] = check_settings(spec.type, value, label(name), problems)
        elif not _has_type(value, spec.type):
            problems.append(f"field {label(name)} has wrong type, got {value!r}")
        elif not spec.metadata["ok"](value):
            problems.append(f"field {label(name)} {spec.metadata['rule']}, got {value!r}")
        else:
            values[name] = tuple(value) if isinstance(value, list) else value
    return None if len(problems) > found else cls(**values)


def fail_on(problems: list):
    """Raise one ConfigError that lists every problem, if there are any."""
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))


def parse_settings(cls, doc, section: str, fixed: dict | None = None):
    """`check_settings`, raising one ConfigError for all its violations."""
    problems = []
    settings = check_settings(cls, doc, section, problems, fixed)
    fail_on(problems)
    return settings


def validate_config(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a plain dict, reporting every violation."""
    return parse_settings(TrainConfig, doc, "train")


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.moments: dict[str, tuple] = {}


def adam_step(
    params: networks.ModelParams,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Bias-corrected adaptive-moment update, in place."""
    state.step += 1
    t = state.step
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != tensor.values.shape:
            raise DimensionError(
                f"gradient for {name!r} has shape {g.shape}, expected {tensor.values.shape}"
            )
        m, v = state.moments.get(
            name, (np.zeros_like(tensor.values), np.zeros_like(tensor.values))
        )
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        tensor.values = tensor.values - lr * m_hat / (np.sqrt(v_hat) + eps)
        state.moments[name] = (m, v)


# ---------------------------------------------------------------------------
# data plumbing


@dataclass
class ClipExample:
    """One clip's features, scene index, and frame-level event targets."""

    clip_id: str
    features: LogMelSpectrogram
    scene: int
    roll: EventRoll


def split_ids(assignment: dict, fold: int):
    """Sorted (train, validation) clip ids of a {clip: fold} assignment.

    Fold -1 puts every clip on both sides.
    """
    if fold < 0:
        train = val = sorted(assignment)
    else:
        train = sorted(c for c, f in assignment.items() if f != fold)
        val = sorted(c for c, f in assignment.items() if f == fold)
    if not train or not val:
        raise DataError(f"fold {fold} leaves an empty split")
    return train, val


def standardize_split(examples: dict, stats: BandStats) -> dict:
    """Every clip standardized with the given per-band stats, which callers
    take from the training clips only (or from a checkpoint)."""
    return {
        clip_id: replace(ex, features=standardize(ex.features, stats))
        for clip_id, ex in examples.items()
    }


@dataclass
class TrainResult:
    params: networks.ModelParams
    log: list
    best_epoch: int
    val_posteriors: list | None = None  # students: the best epoch's, per val clip


def _mean_grads(
    params: networks.ModelParams, batch_len: int, mode: str, epoch: int, batch: int
) -> dict:
    """Batch-mean gradients; a non-finite one stops training and names its
    parameter, before the optimizer can spread it into every weight."""
    grads = {}
    for name, t in params.items():
        if t.grad is None:
            continue
        if not np.isfinite(t.grad).all():
            raise DataError(
                f"{mode} training stopped: gradient of {name} is not finite "
                f"at epoch {epoch}, batch {batch}"
            )
        grads[name] = t.grad / batch_len
    return grads


def _early_stop_loop(config, run_epoch, eval_metric, params):
    """Shared epoch loop: train, evaluate, snapshot the best, stop on patience.

    `eval_metric` returns (name, value, extra metrics, validation posteriors);
    the best epoch's posteriors are those of the restored parameters.
    """
    log = []
    best_metric = -np.inf
    best_epoch = -1
    best_snapshot = params.copy_values()
    best_posteriors = None
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        train_losses = run_epoch(epoch)
        metric_name, metric, extra, posteriors = eval_metric()
        record = {
            "epoch": epoch,
            "train_losses": train_losses,
            "val_metrics": {metric_name: metric, **extra},
        }
        log.append(record)
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snapshot = params.copy_values()
            best_posteriors = posteriors
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    params.set_values(best_snapshot)
    return TrainResult(params, log, best_epoch, best_posteriors)


def _check_finite(loss: float, mode: str, epoch: int, batch: int):
    if not np.isfinite(loss):
        raise DataError(f"{mode} training stopped: loss is {loss} at epoch {epoch}, batch {batch}")


# ---------------------------------------------------------------------------
# teacher


def teacher_accuracy(params: networks.ModelParams, clips) -> float:
    correct = 0
    for clip in clips:
        logits = networks.teacher_forward(params, clip.features).values
        correct += int(np.argmax(logits)) == clip.scene
    return correct / len(clips)


def train_teacher(
    train_clips, val_clips, config: TrainConfig, n_scenes: int | None = None
) -> TrainResult:
    """Minimize the hard scene loss; early stop on validation scene accuracy."""
    if config.mode != "teacher":
        raise ConfigError(f"train_teacher needs mode 'teacher', got {config.mode!r}")
    if not train_clips:
        raise DataError("teacher training fold is empty")
    if not val_clips:
        raise DataError("teacher validation fold is empty")
    if n_scenes is None:
        n_scenes = max(c.scene for c in list(train_clips) + list(val_clips)) + 1
    params = networks.init_teacher_params(n_scenes, config.seed)
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    order_pool = list(train_clips)

    def run_epoch(epoch):
        order = rng.permutation(len(order_pool))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [order_pool[i] for i in order[start : start + config.batch_size]]
            number = start // config.batch_size + 1
            ad.zero_grads(params.tensors())
            for clip in batch:  # clips differ in length: one tape each
                with ad.Tape() as tape:
                    logits = networks.teacher_forward(params, clip.features)
                    loss = losses.scene_hard_loss(
                        logits, SceneTarget.one_hot(clip.scene, n_scenes)
                    )
                _check_finite(loss.item(), config.mode, epoch, number)
                tape.backward(loss)
                total += loss.item()
            grads = _mean_grads(params, len(batch), config.mode, epoch, number)
            adam_step(params, grads, state, config.learning_rate)
        ad.zero_grads(params.tensors())
        return {"scene_hard": total / len(order_pool)}

    def eval_metric():
        return "scene_accuracy", teacher_accuracy(params, val_clips), {}, None

    return _early_stop_loop(config, run_epoch, eval_metric, params)


def compute_soft_labels(params: networks.ModelParams, clips, temperature: float) -> dict:
    """Frozen-teacher soft label per clip: temperature softmax of its logits."""
    out = {}
    for clip in clips:
        logits = networks.teacher_forward(params, clip.features).values
        out[clip.clip_id] = losses.distill_targets(logits, temperature)
    return out


def save_soft_labels(path, labels: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: list(v) for k, v in sorted(labels.items())}, fh, indent=2)
        fh.write("\n")


def load_soft_labels(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: np.asarray(v, dtype=np.float64) for k, v in doc.items()}


# ---------------------------------------------------------------------------
# student


def student_posteriors(params: networks.ModelParams, clip) -> np.ndarray:
    event_logits, _ = networks.student_forward(params, clip.features)
    return ad.sigmoid(event_logits).values


def posterior_pairs(params: networks.ModelParams, clips):
    """(event posteriors, event roll) per clip, lazily: one student forward
    each, run only when the pair is read."""
    return ((student_posteriors(params, clip), clip.roll) for clip in clips)


def evaluate_student(
    pairs,
    policy: ev.ThresholdPolicy,
    smooth_window: int = ev.DEFAULT_SMOOTH_WINDOW,
) -> dict:
    """Pool segment counts over (posteriors, roll) pairs, one per clip;
    returns f1/er plus the raw counts, whose per-class totals feed
    `pooled_per_event`."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("no clips to score: the validation fold is empty")
    counts = ev.SegmentCounts()
    for posteriors, roll in pairs:
        pred = ev.binarize(posteriors, policy, smooth_window)
        counts = counts.merge(ev.segment_counts(roll.data, pred, roll.hop_seconds))
    return {
        "f1": ev.f1_score(counts),
        "er": ev.error_rate(counts),
        "counts": counts,
    }


def train_student(
    train_clips,
    val_clips,
    config: TrainConfig,
    soft_labels: dict | None = None,
    n_scenes: int | None = None,
) -> TrainResult:
    """Minimize the mode's objective over fixed-length chunks; early stop on
    validation segment F1 at a fixed 0.5 threshold.
    """
    if config.mode not in STUDENT_MODES:
        raise ConfigError(f"train_student cannot run mode {config.mode!r}")
    if config.mode == "mtl_soft":
        if soft_labels is None:
            raise ConfigError("mode mtl_soft needs soft labels")
        missing = [c.clip_id for c in train_clips if c.clip_id not in soft_labels]
        if missing:
            raise ConfigError(f"soft labels missing for clips: {missing}")
    if not train_clips:
        raise DataError("student training fold is empty")
    if not val_clips:
        raise DataError("student validation fold is empty")

    if n_scenes is None:
        n_scenes = max(c.scene for c in list(train_clips) + list(val_clips)) + 1
    n_events = train_clips[0].roll.data.shape[0]
    params = networks.init_student_params(n_scenes, n_events, config.seed)
    state = AdamState()
    rng = np.random.default_rng(config.seed)

    items = []  # (chunk, clip) pairs; the chunk inherits its clip's scene target
    for clip in train_clips:
        for chunk in chunk_clips(clip.features, clip.roll, config.chunk_len, clip.clip_id):
            items.append((chunk, clip))
    val_policy = ev.ThresholdPolicy("fixed", 0.5)

    def run_epoch(epoch):
        order = rng.permutation(len(items))
        event_total = 0.0
        scene_total = 0.0
        unit_total = 0
        for start in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            chunks = [chunk for chunk, _ in batch]
            number = start // config.batch_size + 1
            ad.zero_grads(params.tensors())
            with ad.Tape() as tape:  # one tape for the whole mini-batch
                event_logits, scene_logits = networks.student_forward(
                    params, [chunk.features for chunk in chunks]
                )
                event = losses.event_loss(
                    event_logits,
                    np.stack([chunk.roll for chunk in chunks]),
                    np.stack([chunk.mask for chunk in chunks]),
                )
                if config.mode == "event_only":
                    loss = event
                elif config.mode == "mtl_hard":
                    terms = [
                        losses.scene_hard_loss(s, SceneTarget.one_hot(clip.scene, n_scenes))
                        for s, (_, clip) in zip(scene_logits, batch)
                    ]
                    scene = functools.reduce(ad.add, terms)
                    loss = losses.mtl_objective(event, scene, config.alpha)
                else:
                    terms = [
                        losses.soft_scene_loss(s, soft_labels[clip.clip_id], config.temperature)
                        for s, (_, clip) in zip(scene_logits, batch)
                    ]
                    scene = functools.reduce(ad.add, terms)
                    loss = losses.proposed_objective(event, scene, config.beta)
            _check_finite(loss.item(), config.mode, epoch, number)
            tape.backward(loss)
            event_total += event.item()
            scene_total += loss.item() - event.item()
            unit_total += sum(n_events * int(chunk.mask.sum()) for chunk in chunks)
            grads = _mean_grads(params, len(batch), config.mode, epoch, number)
            adam_step(params, grads, state, config.learning_rate)
        ad.zero_grads(params.tensors())
        return {
            "event": event_total / len(items),
            "scene_term": scene_total / len(items),
            "total": (event_total + scene_total) / len(items),
            "event_per_unit": event_total / unit_total,
        }

    def eval_metric():
        posteriors = [student_posteriors(params, clip) for clip in val_clips]
        scores = evaluate_student(zip(posteriors, (c.roll for c in val_clips)), val_policy)
        return "f1", scores["f1"], {"er": scores["er"]}, posteriors

    return _early_stop_loop(config, run_epoch, eval_metric, params)


# ---------------------------------------------------------------------------
# cross-validation driver


def _cv_single(payload):
    """Train and evaluate everything for one (fold, seed); a worker job."""
    examples, assignment, configs, fold, eval_cfg, event_names, n_scenes = payload
    train_ids, val_ids = split_ids(assignment, fold)
    stats = compute_band_stats([examples[c].features for c in train_ids])
    split = standardize_split(examples, stats)
    train_clips = [split[c] for c in train_ids]
    val_clips = [split[c] for c in val_ids]

    soft_labels = None
    results = []
    for cfg in configs:  # the teacher, when there is one, comes first
        if cfg.mode == "teacher":
            teacher = train_teacher(train_clips, val_clips, cfg, n_scenes=n_scenes)
            soft_labels = compute_soft_labels(teacher.params, train_clips, cfg.temperature)
            continue
        result = train_student(
            train_clips, val_clips, cfg,
            soft_labels=soft_labels if cfg.mode == "mtl_soft" else None,
            n_scenes=n_scenes,
        )
        policy = eval_policy(eval_cfg, posterior_pairs(result.params, train_clips))
        # train_student scored the validation clips with the restored parameters
        val_pairs = zip(result.val_posteriors, (c.roll for c in val_clips))
        scores = evaluate_student(val_pairs, policy, eval_cfg.smooth_window)
        results.append(
            {
                "fold": fold,
                "seed": cfg.seed,
                "mode": cfg.mode,
                "f1": scores["f1"],
                "er": scores["er"],
                "best_epoch": result.best_epoch,
                "per_event": pooled_per_event(scores["counts"], event_names),
            }
        )
    return results


def eval_policy(cfg: EvalConfig, calibration_pairs) -> ev.ThresholdPolicy:
    """The threshold policy of an EvalConfig, shared by `eval` and `cv`.

    A calibrated policy searches `cfg.grid` on the (posteriors, roll) pairs;
    a fixed one never reads them, so lazy pairs cost no student forward.
    """
    if cfg.policy != "calibrated":
        return ev.ThresholdPolicy("fixed", cfg.threshold)
    pairs = list(calibration_pairs)
    thresholds = ev.calibrate_thresholds(
        pairs, cfg.grid, smooth_window=cfg.smooth_window, hop_s=pairs[0][1].hop_seconds
    )
    return ev.ThresholdPolicy("calibrated", per_class=thresholds)


def pooled_per_event(counts: ev.SegmentCounts, event_names=None) -> list:
    """Per-class F1/ER rows from the pooled per-class totals of `counts`.

    Within one class a segment has no substitutions, so the class's
    deletions are its FN, insertions its FP and Nref its TP + FN.
    """
    class_tp, class_fp, class_fn = (
        counts.class_tp.tolist(), counts.class_fp.tolist(), counts.class_fn.tolist()
    )
    if event_names is None:
        event_names = [str(i) for i in range(len(class_tp))]
    rows = []
    for name, tp, fp, fn in zip(event_names, class_tp, class_fp, class_fn, strict=True):
        one = ev.SegmentCounts(tp=tp, fp=fp, fn=fn, deletions=fn, insertions=fp, n_ref=tp + fn)
        rows.append(
            {
                "event": name,
                "f1": ev.f1_score(one),
                "f1_defined": ev.f1_defined(one),
                "er": ev.error_rate(one),
                "er_defined": ev.er_defined(one),
            }
        )
    return rows


def run_cross_validation(
    examples: dict,
    fold_split,
    base_config: dict,
    modes,
    seeds,
    eval_cfg: dict | None = None,
    workers: int = 1,
    event_names=None,
) -> dict:
    """Train per (fold, seed) and aggregate mean F1/ER per mode across runs.

    `modes`, `seeds` and `eval_cfg` are checked as the fields of a `cv`
    section and `base_config` as cv's `train` block, before any training.
    `event_names` label the per-event rows of each run (default "0", "1", ...).

    At most min(workers, runs, CPU count) worker processes run at once.
    """
    eval_cfg = {} if eval_cfg is None else eval_cfg
    cv = parse_settings(CvConfig, {"modes": modes, "seeds": seeds, "eval": eval_cfg}, "cv")
    base = parse_settings(TrainConfig, base_config, "train", fixed=CV_RUN_FIELDS)
    folds = set(fold_split.assignment.values())
    expected = set(range(fold_split.n_folds))
    if folds != expected:
        last = fold_split.n_folds - 1
        problems = [f"fold {f} has no clips" for f in sorted(expected - folds)]
        problems += [f"fold {f} is outside 0..{last}" for f in sorted(folds - expected)]
        raise DataError(f"cross-validation folds must be 0..{last}: " + ", ".join(problems))
    n_scenes = max(ex.scene for ex in examples.values()) + 1
    # mtl_soft students learn from the soft labels of a teacher trained first
    run_modes = (["teacher"] if "mtl_soft" in cv.modes else []) + list(cv.modes)
    jobs = []
    for fold in range(fold_split.n_folds):
        for seed in cv.seeds:
            configs = [replace(base, mode=mode, seed=seed, fold=fold) for mode in run_modes]
            jobs.append(
                (examples, fold_split.assignment, configs, fold, cv.eval, event_names, n_scenes)
            )
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            nested = pool.map(_cv_single, jobs)
    else:
        nested = [_cv_single(job) for job in jobs]
    runs = [r for batch in nested for r in batch]
    runs.sort(key=lambda r: (r["fold"], r["seed"], r["mode"]))

    aggregate = {}
    for mode in cv.modes:
        mode_runs = [r for r in runs if r["mode"] == mode]
        aggregate[mode] = {
            "f1": float(np.mean([r["f1"] for r in mode_runs])),
            "er": float(np.mean([r["er"] for r in mode_runs])),
            "n_runs": len(mode_runs),
        }
    return {"runs": runs, "aggregate": aggregate}
