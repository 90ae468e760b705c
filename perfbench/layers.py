"""Per-layer metrics from traced iterations.

`snapshot` captures one traced iteration: the span summary (calls, total and
self seconds per traced function), per-module totals and the tracer's
counters. `metrics` turns the snapshots into the per-layer metrics that
BENCHMARK.json lists, reporting for times the median over traced iterations
and for counts the first traced iteration's value.

Counts marked "computed" are derived from argument shapes, not measured:
convolution FLOPs (2 * H * W * Cout * Cin * 9 per forward call), im2col bytes
(8 * H * W * Cin * 9), pooling bytes (input plus output, float64) and GRU
steps (2 * frames per call). The details file says, for each of them, in how
many traced iterations it repeated exactly.
"""

import statistics

from tracing import TRACED_MODULES, per_module, summarize

# Functions whose own work is the point: calls and self time.
SELF_TIMED = (
    "autodiff.conv2d", "autodiff.maxpool2d", "autodiff.Tape.backward",
    "autodiff.bigru_forward", "losses.event_loss", "losses.scene_hard_loss",
    "losses.soft_scene_loss", "training.adam_step", "evaluation.calibrate_thresholds",
    "evaluation.segment_counts", "evaluation.median_smooth",
    "evaluation.SegmentCounts.merge", "features.log_mel_energy",
    "features.read_feature_cache", "features.write_feature_cache", "data.chunk_clips",
    "networks.save_checkpoint",
)
# Entry points whose children do the work: calls and total (inclusive) time.
TOTAL_TIMED = (
    "networks.student_forward.train", "networks.student_forward.infer",
    "networks.teacher_forward.train", "networks.teacher_forward.infer",
    "training.student_posteriors", "training.evaluate_student",
    "training.pooled_per_event", "evaluation.calibrate_thresholds",
    "training.run_cross_validation", "training.train_teacher", "training.train_student",
)
STUDENT_CONV_LAYERS = ("trunk1", "trunk2", "trunk3", "scene1", "scene2")

# (name, unit, better) of every per-layer metric, in report order.
SPEC = []
for _fn in SELF_TIMED:
    SPEC += [(f"{_fn}.calls", "count", "lower"), (f"{_fn}.self_s", "s", "lower")]
for _fn in TOTAL_TIMED:
    if _fn not in SELF_TIMED:
        SPEC.append((f"{_fn}.calls", "count", "lower"))
    SPEC.append((f"{_fn}.total_s", "s", "lower"))
# Derived from argument shapes, not measured (gflop_per_s divides one by a
# measured time).
COMPUTED = (
    "autodiff.conv2d.gflop", "autodiff.conv2d.im2col_mb",
    "autodiff.maxpool2d.mb", "autodiff.bigru_forward.steps",
)
SPEC += [
    ("autodiff.conv2d.gflop", "GFLOP", "lower"),  # computed
    ("autodiff.conv2d.gflop_per_s", "GFLOP/s", "higher"),  # computed / measured
    ("autodiff.conv2d.im2col_mb", "MB", "lower"),  # computed
    ("autodiff.maxpool2d.mb", "MB", "lower"),  # computed
    ("autodiff.bigru_forward.steps", "count", "lower"),  # computed
    ("autodiff.tape.records_per_step", "count", "lower"),
    ("training.student_posteriors.useful_ratio", "ratio", "higher"),
    ("evaluation.SegmentCounts.merge.rows_copied", "count", "lower"),
    ("features.read_feature_cache.mb", "MB", "lower"),
    ("features.write_feature_cache.mb", "MB", "lower"),
    ("networks.save_checkpoint.bytes", "B", "lower"),
    ("training.train_teacher.epochs", "count", "lower"),
    ("training.train_student.epochs", "count", "lower"),
]
SPEC += [(f"networks.layer.{layer}.fwd_s", "s", "lower") for layer in STUDENT_CONV_LAYERS]
SPEC += [
    ("stage.teacher_epoch_s", "s", "lower"),
    ("stage.student_frames_per_s", "1/s", "higher"),
    ("stage.cv_s", "s", "lower"),
]
for _module in TRACED_MODULES:
    SPEC += [(f"module.{_module}.calls", "count", "lower"),
             (f"module.{_module}.self_s", "s", "lower")]
SPEC += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]


def snapshot(tracer, run_id):
    table = summarize(tracer.spans, run_id)
    return {
        "run": run_id,
        "calls": {name: row["calls"] for name, row in table.items()},
        "functions": table,
        "modules": per_module(table),
        "counters": dict(tracer.counters),
        "distinct_posteriors": tracer.distinct_posterior_requests(),
        "spans": sum(row["calls"] for row in table.values()),
    }


def _one(snap):
    """Every per-layer value of one traced iteration, stage metrics aside."""
    fns, counters = snap["functions"], snap["counters"]

    def row(name):
        return fns.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out = {}
    for fn in SELF_TIMED:
        out[f"{fn}.calls"] = row(fn)["calls"]
        out[f"{fn}.self_s"] = row(fn)["self_s"]
    for fn in TOTAL_TIMED:
        out[f"{fn}.calls"] = row(fn)["calls"]
        out[f"{fn}.total_s"] = row(fn)["total_s"]
    conv_s = row("autodiff.conv2d")["self_s"]
    gflop = counters.get("autodiff.conv2d.flop", 0.0) / 1e9
    backward_calls = row("autodiff.Tape.backward")["calls"]
    posterior_calls = row("training.student_posteriors")["calls"]
    out.update({
        "autodiff.conv2d.gflop": gflop,
        "autodiff.conv2d.gflop_per_s": gflop / conv_s if conv_s else 0.0,
        "autodiff.conv2d.im2col_mb": counters.get("autodiff.conv2d.im2col_bytes", 0.0) / 1e6,
        "autodiff.maxpool2d.mb": counters.get("autodiff.maxpool2d.bytes", 0.0) / 1e6,
        "autodiff.bigru_forward.steps": counters.get("autodiff.bigru_forward.steps", 0.0),
        "autodiff.tape.records_per_step": (
            counters.get("autodiff.tape.records", 0.0) / backward_calls
            if backward_calls else 0.0),
        "training.student_posteriors.useful_ratio": (
            snap["distinct_posteriors"] / posterior_calls if posterior_calls else 0.0),
        "evaluation.SegmentCounts.merge.rows_copied": counters.get(
            "evaluation.SegmentCounts.merge.rows_copied", 0.0),
        "features.read_feature_cache.mb": counters.get(
            "features.read_feature_cache.bytes", 0.0) / 1e6,
        "features.write_feature_cache.mb": counters.get(
            "features.write_feature_cache.bytes", 0.0) / 1e6,
        "networks.save_checkpoint.bytes": counters.get("networks.save_checkpoint.bytes", 0.0),
        "training.train_teacher.epochs": counters.get("training.train_teacher.epochs", 0.0),
        "training.train_student.epochs": counters.get("training.train_student.epochs", 0.0),
        "trace.spans": snap["spans"],
    })
    for layer in STUDENT_CONV_LAYERS:
        out[f"networks.layer.{layer}.fwd_s"] = counters.get(
            f"networks.layer.{layer}.fwd_s", 0.0)
    for module in TRACED_MODULES:
        mod = snap["modules"].get(module, {"calls": 0, "self_s": 0.0})
        out[f"module.{module}.calls"] = mod["calls"]
        out[f"module.{module}.self_s"] = mod["self_s"]
    return out


def _median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def metrics(snapshots, plain, traced):
    """Per-layer metrics: {name: (value, unit)} in SPEC order.

    `plain` and `traced` are the untraced and traced iteration records; the
    stage figures come from the untraced ones, the tracing overhead from both.
    """
    per_run = [_one(s) for s in snapshots]
    values = {}
    for name, unit, _ in SPEC:
        if not per_run or name.startswith(("stage.", "trace.overhead")):
            continue
        if unit == "s" or name.endswith(("_per_s", "useful_ratio")):
            values[name] = statistics.median(r[name] for r in per_run)
        else:
            values[name] = per_run[0][name]
    values["stage.teacher_epoch_s"] = _median_of(plain, "teacher_epoch_s")
    values["stage.student_frames_per_s"] = _median_of(plain, "student_frames_per_s")
    values["stage.cv_s"] = statistics.median(
        it["stages"].get("cv", 0.0) for it in plain) if plain else 0.0
    values["trace.overhead_s"] = (
        _median_of(traced, "wall_s") - _median_of(plain, "wall_s") if traced else 0.0)
    return {name: (values[name], unit) for name, unit, _ in SPEC if name in values}


def computed_repeats(snapshots):
    """For each computed count: its first value and how many traced
    iterations reproduced it exactly."""
    per_run = [_one(s) for s in snapshots]
    return {
        name: {"value": per_run[0][name], "computed": True, "of": len(per_run),
               "repeats": sum(r[name] == per_run[0][name] for r in per_run)}
        for name in COMPUTED if per_run
    }
