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
for another thread count, so checkpoints are bit-identical only across runs
with the same count (e.g. OPENBLAS_NUM_THREADS=1). Cross-validation fans runs
out per (fold, seed).

The student records one autodiff tape per mini-batch: its chunks share one
length, so a single forward and backward covers the batch, with the scene
losses still taken per chunk. The teacher records one tape per clip, because
its clips may differ in length. A loss or gradient that is not finite stops
training before the optimizer step, naming the epoch, batch and parameter.
"""

import functools
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import losses, networks
from .data import EventRoll, chunk_clips
from .errors import ConfigError, DataError, DimensionError
from .features import BandStats, LogMelSpectrogram, compute_band_stats, standardize
from .losses import SceneTarget

MODES = ("teacher", "mtl_hard", "mtl_soft", "event_only")


@dataclass
class TrainConfig:
    mode: str
    alpha: float = 0.0
    beta: float = 0.0
    temperature: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    fold: int = 0
    chunk_len: int = 500

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_FIELDS = {
    "mode": str,
    "alpha": (int, float),
    "beta": (int, float),
    "temperature": (int, float),
    "learning_rate": (int, float),
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "fold": int,
    "chunk_len": int,
}


def validate_config(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a plain dict, reporting every violation."""
    problems = []
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _CONFIG_FIELDS:
            problems.append(f"unknown field {key!r}")
    for key, types in _CONFIG_FIELDS.items():
        if key not in doc:
            continue
        if isinstance(doc[key], bool) or not isinstance(doc[key], types):
            problems.append(f"field {key!r} has wrong type")
    mode = doc.get("mode")
    if mode is None:
        problems.append("field 'mode' is required")
    elif mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {mode!r}")
    checks = [
        ("alpha", lambda v: v >= 0, "must be >= 0"),
        ("beta", lambda v: v >= 0, "must be >= 0"),
        ("temperature", lambda v: v > 0, "must be > 0"),
        ("learning_rate", lambda v: v > 0, "must be > 0"),
        ("batch_size", lambda v: v >= 1, "must be >= 1"),
        ("max_epochs", lambda v: v >= 1, "must be >= 1"),
        ("patience", lambda v: v >= 0, "must be >= 0"),
        ("fold", lambda v: v >= -1, "must be >= -1 (-1 trains and validates on all clips)"),
        ("chunk_len", lambda v: v >= 1, "must be >= 1"),
    ]
    for key, ok, why in checks:
        value = doc.get(key)
        if value is not None and isinstance(value, (int, float)) and not ok(value):
            problems.append(f"field {key!r} {why}, got {value}")
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    return TrainConfig(**doc)


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
    best_metric: float


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
    """Shared epoch loop: train, evaluate, snapshot the best, stop on patience."""
    log = []
    best_metric = -np.inf
    best_epoch = -1
    best_snapshot = params.copy_values()
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        train_losses = run_epoch(epoch)
        metric_name, metric, extra = eval_metric()
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
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    params.set_values(best_snapshot)
    return TrainResult(params=params, log=log, best_epoch=best_epoch, best_metric=best_metric)


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
        return "scene_accuracy", teacher_accuracy(params, val_clips), {}

    return _early_stop_loop(config, run_epoch, eval_metric, params)


def compute_soft_labels(params: networks.ModelParams, clips, temperature: float) -> dict:
    """Frozen-teacher soft label per clip: temperature softmax of its logits."""
    out = {}
    for clip in clips:
        if clip.features is None:
            raise DataError(f"clip {clip.clip_id!r} has no features")
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
    segment_s: float = ev.DEFAULT_SEGMENT_S,
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
        counts = counts.merge(
            ev.segment_counts(roll.data, pred, roll.hop_seconds, segment_s)
        )
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
    if config.mode not in ("event_only", "mtl_hard", "mtl_soft"):
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
        scores = evaluate_student(posterior_pairs(params, val_clips), val_policy)
        return "f1", scores["f1"], {"er": scores["er"]}

    return _early_stop_loop(config, run_epoch, eval_metric, params)


# ---------------------------------------------------------------------------
# cross-validation driver


def _cv_single(payload):
    """Train and evaluate everything for one (fold, seed); a worker job."""
    examples, assignment, configs, fold, eval_cfg, event_names, n_scenes = payload
    train_ids, val_ids = split_ids(assignment, fold)
    split = standardize_split(
        examples, compute_band_stats([examples[c].features for c in train_ids])
    )
    train_clips = [split[c] for c in train_ids]
    val_clips = [split[c] for c in val_ids]
    smooth = eval_cfg.get("smooth_window", ev.DEFAULT_SMOOTH_WINDOW)

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
        scores = evaluate_student(posterior_pairs(result.params, val_clips), policy, smooth)
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


_EVAL_FIELDS = ("policy", "threshold", "smooth_window", "grid")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_eval_config(doc: dict):
    """Check a cross-validation `eval` block, reporting every violation.

    Thresholds and grid points must lie strictly inside (0, 1), the range
    `ThresholdPolicy` accepts, so that no run fails at scoring time.
    """
    problems = [f"unknown field cv.eval.{key}" for key in doc if key not in _EVAL_FIELDS]
    policy = doc.get("policy", "fixed")
    if policy not in ("fixed", "calibrated"):
        problems.append(f"cv.eval.policy must be 'fixed' or 'calibrated', got {policy!r}")
    window = doc.get("smooth_window", ev.DEFAULT_SMOOTH_WINDOW)
    if isinstance(window, bool) or not isinstance(window, int) or window < 1 or window % 2 == 0:
        problems.append(f"cv.eval.smooth_window must be an odd integer >= 1, got {window!r}")
    threshold = doc.get("threshold", 0.5)
    if not _is_number(threshold) or not 0.0 < threshold < 1.0:
        problems.append(f"cv.eval.threshold must be a number in (0, 1), got {threshold!r}")
    grid = doc.get("grid", list(ev.CALIBRATION_GRID))
    if (
        not isinstance(grid, list)
        or not grid
        or not all(_is_number(g) and 0.0 < g < 1.0 for g in grid)
    ):
        problems.append(
            f"cv.eval.grid must be a non-empty list of numbers in (0, 1), got {grid!r}"
        )
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))


def eval_policy(eval_cfg: dict, calibration_pairs) -> ev.ThresholdPolicy:
    """The threshold policy of an eval block (`policy`, `threshold`, `grid`,
    `smooth_window`), shared by `eval` and `cv`.

    A calibrated policy searches `grid` (default `ev.CALIBRATION_GRID`) on
    the (posteriors, roll) pairs; a fixed one never reads them, so lazy pairs
    cost no student forward.
    """
    if eval_cfg.get("policy", "fixed") != "calibrated":
        return ev.ThresholdPolicy("fixed", eval_cfg.get("threshold", 0.5))
    pairs = list(calibration_pairs)
    thresholds = ev.calibrate_thresholds(
        pairs, eval_cfg.get("grid", ev.CALIBRATION_GRID),
        smooth_window=eval_cfg.get("smooth_window", ev.DEFAULT_SMOOTH_WINDOW),
        hop_s=pairs[0][1].hop_seconds,
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

    `event_names` label the per-event rows of each run (default "0", "1", ...).

    At most min(workers, runs, CPU count) worker processes run at once.
    """
    eval_cfg = eval_cfg or {}
    validate_eval_config(eval_cfg)
    folds = set(fold_split.assignment.values())
    expected = set(range(fold_split.n_folds))
    if folds != expected:
        last = fold_split.n_folds - 1
        problems = [f"fold {f} has no clips" for f in sorted(expected - folds)]
        problems += [f"fold {f} is outside 0..{last}" for f in sorted(folds - expected)]
        raise DataError(f"cross-validation folds must be 0..{last}: " + ", ".join(problems))
    for mode in modes:
        if mode not in ("event_only", "mtl_hard", "mtl_soft"):
            raise ConfigError(f"cross-validation cannot run mode {mode!r}")
    n_scenes = max(ex.scene for ex in examples.values()) + 1
    # mtl_soft students learn from the soft labels of a teacher trained first
    run_modes = (["teacher"] if "mtl_soft" in modes else []) + list(modes)
    jobs = []  # every run's config is validated before any training starts
    for fold in range(fold_split.n_folds):
        for seed in seeds:
            configs = [
                validate_config({**base_config, "mode": mode, "seed": seed, "fold": fold})
                for mode in run_modes
            ]
            jobs.append(
                (examples, fold_split.assignment, configs, fold, eval_cfg, event_names, n_scenes)
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
    for mode in modes:
        mode_runs = [r for r in runs if r["mode"] == mode]
        aggregate[mode] = {
            "f1": float(np.mean([r["f1"] for r in mode_runs])),
            "er": float(np.mean([r["er"] for r in mode_runs])),
            "n_runs": len(mode_runs),
        }
    return {"runs": runs, "aggregate": aggregate}
