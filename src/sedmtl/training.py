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
machine with the same numpy/BLAS build, whatever its core count.
Cross-validation fans runs out per (fold, seed), one process each. Within a
process, training steps and inference (validation, soft labels, scoring)
spread their per-chunk and per-clip work over threads (see `networks`), each
with the same one-thread BLAS calls, and training adds the per-item
gradients in the serial order, so threading leaves the bits unchanged.

Every mode runs one epoch loop, `_fit`: seeded mini-batches, each one step
on one tape, batch-mean gradients, Adam, per-epoch validation, and early
stopping that restores the best epoch. Each trainer supplies only its batch
loss; `_fit` records it, and a loss or gradient that is not finite stops
training before the optimizer step, naming the epoch, batch and parameter.
The teacher's batch loss sums one hard scene loss per clip over
`networks.teacher_logits`, as its clips may differ in length; the student's
covers its mini-batch of equal-length chunks at once, taking the scene
losses per chunk. A student's mode picks its scene term once; event_only,
which has none, skips the scene head.
"""

import collections
import functools
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import losses, networks, parallel
from .data import chunk_clips, read_json
from .errors import ConfigError, DataError, DimensionError
from .features import BandStats, LogMelSpectrogram, compute_band_stats, standardize

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
    any finite number, a tuple field a list; a bool is never a number."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    scalar = (int, float) if kind is float else kind
    typed = not isinstance(value, bool) and isinstance(value, scalar)
    return typed and (kind is not float or bool(np.isfinite(value)))


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


def fail_on(problems: list, path=None):
    """Raise one ConfigError that lists every problem, if there are any, and
    names the config file `path` when they come from one."""
    if problems:
        where = f" {path}" if path else ""
        raise ConfigError(f"invalid config{where}:\n  " + "\n  ".join(problems))


def parse_settings(cls, doc, section: str, fixed: dict | None = None):
    """`check_settings`, raising one ConfigError for all its violations."""
    problems = []
    settings = check_settings(cls, doc, section, problems, fixed)
    fail_on(problems)
    return settings


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and the floor under its denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.moments: dict[str, tuple] = {}


def adam_step(params: networks.ModelParams, grads: dict, state: AdamState, lr: float):
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
        if name in state.moments:
            m, v = state.moments[name]
        else:
            m, v = np.zeros_like(tensor.values), np.zeros_like(tensor.values)
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        tensor.values = tensor.values - lr * m_hat / (np.sqrt(v_hat) + _EPS)
        state.moments[name] = (m, v)


# ---------------------------------------------------------------------------
# data plumbing


@dataclass
class ClipExample:
    """One clip's features, scene index, and frame-level event targets."""

    clip_id: str
    features: LogMelSpectrogram
    scene: int
    roll: np.ndarray  # (n_events, n_frames), see data.events_to_roll


def split_ids(assignment: dict, fold: int):
    """Sorted (train, validation) clip ids of a {clip: fold} assignment.

    Fold -1 puts every clip on both sides; a fold below -1 is an error.
    """
    if fold < -1:
        raise DataError(f"fold {fold} is not -1 (every clip) or a fold >= 0")
    if fold == -1:
        train = val = sorted(assignment)
    else:
        train = sorted(c for c, f in assignment.items() if f != fold)
        val = sorted(c for c, f in assignment.items() if f == fold)
    if not train or not val:
        raise DataError(f"fold {fold} leaves an empty split")
    return train, val


def standardize_split(examples: dict, assignment: dict, fold: int, stats: BandStats | None = None):
    """(train clips, validation clips, stats) of one fold of `assignment`.

    Every clip is standardized once with `stats`, which default to the
    per-band stats of the training clips; at fold -1 both lists hold the same
    clip objects.
    """
    train_ids, val_ids = split_ids(assignment, fold)
    if stats is None:
        stats = compute_band_stats([examples[c].features for c in train_ids])
    split = {
        c: replace(examples[c], features=standardize(examples[c].features, stats))
        for c in {*train_ids, *val_ids}
    }
    return [split[c] for c in train_ids], [split[c] for c in val_ids], stats


@dataclass
class TrainResult:
    params: networks.ModelParams
    log: list
    best_epoch: int
    # {validation clip id: its output at the best epoch}: a student's (M, N)
    # posteriors, the teacher's (C,) logits
    val_outputs: dict | None = None


# A diverging step's overflow is reported once, by the loss and gradient
# checks below, not first as numpy warnings from deep in its forward.
@np.errstate(over="ignore", invalid="ignore")
def _fit(config, init, items, val_clips, batch_loss, epoch_losses, validate) -> TrainResult:
    """The epoch loop of every mode, early-stopping on `validate(params)`,
    which returns (metric name, value, extra metrics, one output per
    validation clip).

    `init()` builds the parameters once both folds are known to be non-empty.
    Each mini-batch is one step on one tape: `batch_loss(params, batch,
    totals)` records the batch's forward, adds its loss terms into the
    epoch's `totals` and returns the batch's summed loss; `epoch_losses(totals)`
    turns the totals into the log record.
    """
    kind = "teacher" if config.mode == "teacher" else "student"
    if not items:
        raise DataError(f"{kind} training fold is empty")
    if not val_clips:
        raise DataError(f"{kind} validation fold is empty")
    params = init()
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    stop = f"{config.mode} training stopped"
    log = []
    best_metric = -np.inf
    best_epoch = -1
    best_snapshot = params.copy_values()
    best_outputs = None
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(items))
        totals = collections.defaultdict(int)
        for start in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[start : start + config.batch_size]]
            number = start // config.batch_size + 1
            with ad.Tape() as tape:
                loss = batch_loss(params, batch, totals)
            if not np.isfinite(loss.item()):
                raise DataError(f"{stop}: loss is {loss.item()} at epoch {epoch}, batch {number}")
            tape.backward(loss)
            del tape  # its records hold the step's activations
            grads = {}  # batch means, each gradient cleared as it is read
            for name, t in params.items():
                g, t.grad = t.grad, None
                if g is None:
                    continue
                if not np.isfinite(g).all():
                    raise DataError(
                        f"{stop}: gradient of {name} is not finite "
                        f"at epoch {epoch}, batch {number}"
                    )
                grads[name] = g / len(batch)
            adam_step(params, grads, state, config.learning_rate)
        metric_name, metric, extra, outputs = validate(params)
        log.append(
            {
                "epoch": epoch,
                "train_losses": epoch_losses(totals),
                "val_metrics": {metric_name: metric, **extra},
            }
        )
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snapshot = params.copy_values()
            best_outputs = dict(zip([c.clip_id for c in val_clips], outputs, strict=True))
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    params.set_values(best_snapshot)
    return TrainResult(params, log, best_epoch, best_outputs)


# ---------------------------------------------------------------------------
# teacher


def _teacher_logits(params: networks.ModelParams, clips) -> list:
    """Each clip's (C,) scene logits, untaped."""
    return [x.values for x in networks.teacher_logits(params, [c.features.data for c in clips])]


def train_teacher(train_clips, val_clips, config: TrainConfig, n_scenes: int) -> TrainResult:
    """Minimize the hard scene loss; early stop on validation scene accuracy,
    keeping the best epoch's validation logits."""
    if config.mode != "teacher":
        raise ConfigError(f"train_teacher needs mode 'teacher', got {config.mode!r}")

    def batch_loss(params, batch, totals):
        logits = networks.teacher_logits(params, [clip.features.data for clip in batch])
        clip_losses = [losses.scene_hard_loss(x, clip.scene) for x, clip in zip(logits, batch)]
        for each in clip_losses:
            totals["scene_hard"] += each.item()
        return functools.reduce(ad.add, clip_losses)

    def validate(params):
        logits = _teacher_logits(params, val_clips)
        correct = sum(int(np.argmax(x)) == clip.scene for x, clip in zip(logits, val_clips))
        return "scene_accuracy", correct / len(val_clips), {}, logits

    return _fit(
        config,
        lambda: networks.init_teacher_params(n_scenes, config.seed),
        train_clips,
        val_clips,
        batch_loss,
        lambda totals: {"scene_hard": totals["scene_hard"] / len(train_clips)},
        validate,
    )


def compute_soft_labels(
    params: networks.ModelParams, clips, temperature: float, known: dict | None = None
) -> dict:
    """Frozen-teacher soft label per clip: temperature softmax of its logits.

    `known` maps clip ids to logits that `params` already gave (a teacher's
    `val_outputs`); only the other clips are forwarded. Each clip's forward
    is its own, so the labels are the same bits either way.
    """
    logits = dict(known or {})
    rest = [c for c in clips if c.clip_id not in logits]
    if rest:  # never a forward over zero clips
        logits.update(zip([c.clip_id for c in rest], _teacher_logits(params, rest)))
    return {c.clip_id: losses.distill_targets(logits[c.clip_id], temperature) for c in clips}


def load_soft_labels(path, n_scenes: int) -> dict:
    """The {clip: soft label} of a soft-label file. Each label must be a list
    of `n_scenes` finite, non-negative numbers that sums to 1 within 1e-9;
    the first one that is not names its clip in a DataError."""
    labels = {}
    for clip, entry in read_json(path, "soft labels").items():
        problem = None
        if not isinstance(entry, list) or not all(_has_type(v, float) for v in entry):
            problem = "is not a list of finite numbers"
        elif len(entry) != n_scenes:
            problem = f"has {len(entry)} entries for {n_scenes} scenes"
        elif min(entry) < 0:
            problem = "has a negative entry"
        elif abs(sum(entry) - 1.0) > 1e-9:
            problem = f"sums to {sum(entry)!r}, not 1"
        if problem:
            raise DataError(f"{path}: soft label of clip {clip!r} {problem}")
        labels[clip] = np.asarray(entry, dtype=np.float64)
    return labels


# ---------------------------------------------------------------------------
# student


def student_posteriors(params: networks.ModelParams, *clips) -> list:
    """Event posteriors, one (M, N) array per clip, in the order given; see
    `networks.event_posteriors` for how clips share batches."""
    return networks.event_posteriors(params, [clip.features.data for clip in clips])


def evaluate_student(
    pairs,
    thresholds,
    smooth_window: int = ev.DEFAULT_SMOOTH_WINDOW,
) -> dict:
    """Pool segment counts over (posteriors, roll) pairs, one per clip,
    binarized at `thresholds` (one, or one per class); returns f1/er plus
    the raw counts, whose per-class totals feed `pooled_per_event`."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("no clips to score: the validation fold is empty")
    counts = ev.SegmentCounts()
    for posteriors, roll in pairs:
        pred = ev.binarize(posteriors, thresholds, smooth_window)
        counts = counts.merge(ev.segment_counts(roll, pred))
    f1, _, er, _ = ev.overall(counts)
    return {"f1": f1, "er": er, "counts": counts}


def train_student(
    train_clips,
    val_clips,
    config: TrainConfig,
    n_scenes: int,
    soft_labels: dict | None = None,
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
    items = [  # (chunk, clip) pairs; the chunk inherits its clip's scene target
        (chunk, clip)
        for clip in train_clips
        for chunk in chunk_clips(clip.features.data, clip.roll, config.chunk_len)
    ]
    # the scene term's loss per chunk and its weight
    scene_term = {
        "event_only": None,
        "mtl_hard": (lambda s, clip: losses.scene_hard_loss(s, clip.scene), config.alpha),
        "mtl_soft": (
            lambda s, clip: losses.soft_scene_loss(
                s, soft_labels[clip.clip_id], config.temperature
            ),
            config.beta,
        ),
    }[config.mode]

    def batch_loss(params, batch, totals):
        chunks = [chunk for chunk, _ in batch]
        event_logits, scene_logits = networks.student_forward(
            params, [chunk.features for chunk in chunks], scene=scene_term is not None
        )
        event = losses.event_loss(
            event_logits,
            np.stack([chunk.roll for chunk in chunks]),
            np.stack([chunk.mask for chunk in chunks]),
        )
        loss = event
        if scene_term is not None:
            scene_loss, weight = scene_term
            terms = [scene_loss(s, clip) for s, (_, clip) in zip(scene_logits, batch)]
            loss = losses.joint_objective(event, functools.reduce(ad.add, terms), weight)
        totals["event"] += event.item()
        totals["scene"] += loss.item() - event.item()
        totals["units"] += sum(chunk.roll.shape[0] * int(chunk.mask.sum()) for chunk in chunks)
        return loss

    def epoch_losses(totals):
        return {
            "event": totals["event"] / len(items),
            "scene_term": totals["scene"] / len(items),
            "total": (totals["event"] + totals["scene"]) / len(items),
            "event_per_unit": totals["event"] / totals["units"],
        }

    def validate(params):
        posteriors = student_posteriors(params, *val_clips)
        scores = evaluate_student(zip(posteriors, (c.roll for c in val_clips)), 0.5)
        return "f1", scores["f1"], {"er": scores["er"]}, posteriors

    return _fit(
        config,
        lambda: networks.init_student_params(n_scenes, items[0][0].roll.shape[0], config.seed),
        items,
        val_clips,
        batch_loss,
        epoch_losses,
        validate,
    )


def score_student(
    params: networks.ModelParams,
    cfg: EvalConfig,
    calibration_clips,
    val_clips,
    event_names,
    known: dict | None = None,
) -> dict:
    """`evaluate_student` scores of the validation clips under `cfg`, plus
    the `thresholds` used and the `per_event` rows; shared by `eval` and `cv`.

    The fixed policy uses `cfg.threshold`; the calibrated one searches
    `cfg.grid` per class on the calibration clips. `known` maps clip ids to
    posteriors that `params` already gave (a student's `val_outputs`); every
    other clip read is forwarded once, in one batched call, whose posteriors
    do not depend on which clips share it.
    """
    calibrated = cfg.policy == "calibrated"
    posteriors = dict(known or {})
    read = {c.clip_id: c for c in [*(calibration_clips if calibrated else []), *val_clips]}
    ids = sorted(read.keys() - posteriors.keys())
    if ids:  # never a forward over zero clips
        posteriors.update(zip(ids, student_posteriors(params, *(read[c] for c in ids))))

    thresholds = cfg.threshold
    if calibrated:
        thresholds = ev.calibrate_thresholds(
            [(posteriors[c.clip_id], c.roll) for c in calibration_clips], cfg.grid,
            smooth_window=cfg.smooth_window,
        )
    scores = evaluate_student(
        [(posteriors[c.clip_id], c.roll) for c in val_clips], thresholds, cfg.smooth_window
    )
    per_event = pooled_per_event(scores["counts"], event_names)
    return {**scores, "thresholds": thresholds, "per_event": per_event}


# ---------------------------------------------------------------------------
# cross-validation driver


def _cv_single(payload):
    """Train and evaluate everything for one (fold, seed); a worker job."""
    examples, assignment, configs, fold, eval_cfg, vocabulary = payload
    train_clips, val_clips, _ = standardize_split(examples, assignment, fold)
    soft_labels = None
    results = []
    for cfg in configs:  # the teacher, when there is one, comes first
        if cfg.mode == "teacher":
            teacher = train_teacher(train_clips, val_clips, cfg, n_scenes=vocabulary.n_scenes)
            soft_labels = compute_soft_labels(teacher.params, train_clips, cfg.temperature)
            continue
        result = train_student(
            train_clips, val_clips, cfg,
            soft_labels=soft_labels if cfg.mode == "mtl_soft" else None,
            n_scenes=vocabulary.n_scenes,
        )
        # train_student scored the validation clips with the restored parameters
        scores = score_student(
            result.params, eval_cfg, train_clips, val_clips, vocabulary.events,
            known=result.val_outputs,
        )
        results.append(
            {
                "fold": fold,
                "seed": cfg.seed,
                "mode": cfg.mode,
                "f1": scores["f1"],
                "er": scores["er"],
                "best_epoch": result.best_epoch,
                "per_event": scores["per_event"],
            }
        )
    return results


def pooled_per_event(counts: ev.SegmentCounts, event_names) -> list:
    """Per-class F1/ER rows from the pooled per-class totals of `counts`.

    Within one class a segment has no substitutions, so the class's errors
    are its FN + FP, its insertions its FP and its Nref TP + FN.
    """
    tp, fp, fn = counts.class_tp, counts.class_fp, counts.class_fn
    columns = (*ev.f1_from_counts(tp, fp, fn), *ev.er_from_counts(fn + fp, tp + fn, fp))
    keys = ("event", "f1", "f1_defined", "er", "er_defined")
    return [
        dict(zip(keys, row))
        for row in zip(event_names, *(c.tolist() for c in columns), strict=True)
    ]


def run_cross_validation(
    examples: dict,
    folds: dict,
    base: TrainConfig,
    cv: CvConfig,
    vocabulary,
    workers: int = 1,
) -> dict:
    """Train per (fold, seed) and aggregate mean F1/ER per mode across runs.

    `folds` maps each clip id to its fold; the folds must be 0..max, each
    with at least one clip. `base` is cv's checked `train` block: each run
    sets its own mode, seed and fold. The `vocabulary` sizes the scene heads
    and names the per-event rows.

    At most min(workers, runs, `parallel.threads()`) worker processes run at
    once: no more than the cores this process may run on.
    """
    present = set(folds.values())
    last = max(present)
    expected = set(range(last + 1))
    if present != expected:
        problems = [f"fold {f} has no clips" for f in sorted(expected - present)]
        problems += [f"fold {f} is outside 0..{last}" for f in sorted(present - expected)]
        raise DataError(f"cross-validation folds must be 0..{last}: " + ", ".join(problems))
    # mtl_soft students learn from the soft labels of a teacher trained first
    run_modes = (["teacher"] if "mtl_soft" in cv.modes else []) + list(cv.modes)
    jobs = []
    for fold in range(last + 1):
        for seed in cv.seeds:
            configs = [replace(base, mode=mode, seed=seed, fold=fold) for mode in run_modes]
            jobs.append((examples, folds, configs, fold, cv.eval, vocabulary))
    workers = min(workers, len(jobs), parallel.threads())
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
