"""Segment-based detection metrics and posterior binarization.

Posteriors are thresholded per class (strictly greater), then cleaned with a
per-class binary median filter. Metrics follow the segment-based convention
of Mesaros, Heittola and Virtanen (Applied Sciences, 2016): a class counts
as active in a 1 s segment iff any frame inside is active; per segment,
substitutions S = min(FN, FP), deletions D = FN - S and insertions
I = FP - S; the error rate is (sum S + D + I) / (sum Nref).

`SegmentCounts` keeps each count once: per-class TP/FP/FN totals and one
(S, D, I, Nref) row per segment, from which `totals` sums the rest. Every F1
(`overall`, per class, per calibration threshold) is `f1_from_counts` and every
error rate `er_from_counts`, elementwise over count arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DimensionError
from .features import HOP_S

DEFAULT_SMOOTH_WINDOW = 27
SEGMENT_FRAMES = round(1.0 / HOP_S)  # frames per 1 s segment
# the thresholds that `eval` and `cv` search when they calibrate
CALIBRATION_GRID = tuple(g / 20 for g in range(1, 20))
F1_UNDEFINED_FLAG = "f1_undefined_no_activity"
ER_UNDEFINED_FLAG = "er_undefined_empty_reference"


def threshold_posteriors(posteriors: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per-class strict-greater thresholding of (M, N) posteriors.

    `thresholds[:, None]` is broadcast against `posteriors`, so (T, 1)
    thresholds on (1, M, N) posteriors give a (T, M, N) stack. A posterior
    outside [0, 1], NaN included, is an error.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if not np.all((posteriors >= 0.0) & (posteriors <= 1.0)):
        raise ArgumentError("posteriors must lie in [0, 1]")
    return (posteriors > np.asarray(thresholds)[:, None]).astype(np.float64)


def median_smooth(binary: np.ndarray, window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Binary median filter along the last (frame) axis: zero-padded, centered,
    odd window. Leading axes (classes, thresholds) are filtered independently.
    """
    if window < 1 or window % 2 == 0:
        raise ArgumentError(f"window must be odd and >= 1, got {window}")
    binary = np.asarray(binary, dtype=np.float64)
    pad = window // 2
    lead = [(0, 0)] * (binary.ndim - 1)
    # window sums as differences of a running sum; exact for 0/1 input
    csum = np.cumsum(np.pad(binary, lead + [(pad + 1, pad)]), axis=-1)
    return (csum[..., window:] - csum[..., :-window] > pad).astype(np.float64)


def binarize(
    posteriors: np.ndarray,
    thresholds,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
) -> np.ndarray:
    """Threshold then median-smooth; returns a binary (M, N) matrix.

    `thresholds` is one threshold for every class or one per class, each in
    (0, 1).
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    n_classes = posteriors.shape[0]
    thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    if not np.all((thresholds > 0.0) & (thresholds < 1.0)):
        raise ArgumentError(f"thresholds must be in (0,1), got {thresholds.tolist()}")
    if thresholds.size not in (1, n_classes):
        raise DimensionError(f"{thresholds.size} thresholds for {n_classes} classes")
    raw = threshold_posteriors(posteriors, np.broadcast_to(thresholds, (n_classes,)))
    return median_smooth(raw, smooth_window)


@dataclass
class SegmentCounts:
    """Per-class (M,) TP/FP/FN totals, 0 until counts with classes merge in,
    and one (S, D, I, Nref) row per segment."""

    class_tp: np.ndarray | int = 0
    class_fp: np.ndarray | int = 0
    class_fn: np.ndarray | int = 0
    per_segment: list = field(default_factory=list)

    @property
    def totals(self) -> dict:
        """tp, fp and fn summed over classes; s, d, i and n_ref over segments."""
        classes = [int(np.sum(c)) for c in (self.class_tp, self.class_fp, self.class_fn)]
        rows = np.array(self.per_segment, dtype=np.int64).reshape(-1, 4).sum(axis=0)
        return dict(zip(("tp", "fp", "fn", "s", "d", "i", "n_ref"), classes + rows.tolist()))

    def merge(self, other: "SegmentCounts") -> "SegmentCounts":
        """Add other's per-class totals and per-segment rows into this one;
        returns self.

        Accumulates in place, so pooling k clips costs O(total rows), not O(k^2).
        """
        self.per_segment.extend(other.per_segment)
        self.class_tp = self.class_tp + other.class_tp
        self.class_fp = self.class_fp + other.class_fp
        self.class_fn = self.class_fn + other.class_fn
        return self


def _segment_activity(binary: np.ndarray) -> np.ndarray:
    """(..., N) frame activity to (..., S) activity in 1 s segments; the
    trailing partial segment is included."""
    n = binary.shape[-1]
    n_segments = -(-n // SEGMENT_FRAMES)
    lead = [(0, 0)] * (binary.ndim - 1)
    padded = np.pad(binary != 0, lead + [(0, n_segments * SEGMENT_FRAMES - n)])
    return padded.reshape(binary.shape[:-1] + (n_segments, SEGMENT_FRAMES)).any(axis=-1)


def segment_counts(reference: np.ndarray, prediction: np.ndarray) -> SegmentCounts:
    """Per-class TP/FP/FN and per-segment S/D/I/Nref of (M, N) binary
    matrices."""
    reference = np.asarray(reference)
    prediction = np.asarray(prediction)
    if reference.shape != prediction.shape:
        raise DimensionError(
            f"reference {reference.shape} and prediction {prediction.shape} differ"
        )
    ref_seg = _segment_activity(reference)
    pred_seg = _segment_activity(prediction)
    hit, miss, false_alarm = ref_seg & pred_seg, ref_seg & ~pred_seg, ~ref_seg & pred_seg

    # per-segment class counts, shape (S,)
    seg_fn, seg_fp = miss.sum(axis=0), false_alarm.sum(axis=0)
    subs = np.minimum(seg_fn, seg_fp)
    dels, ins, n_ref = seg_fn - subs, seg_fp - subs, ref_seg.sum(axis=0)
    return SegmentCounts(
        class_tp=hit.sum(axis=1), class_fp=false_alarm.sum(axis=1), class_fn=miss.sum(axis=1),
        per_segment=list(zip(subs.tolist(), dels.tolist(), ins.tolist(), n_ref.tolist())),
    )


def f1_from_counts(tp, fp, fn):
    """Elementwise F1 in percent of TP/FP/FN count arrays, and where it is
    defined (any activity); 0 where it is not."""
    denom = 2 * np.asarray(tp) + fp + fn
    return np.where(denom > 0, 100.0 * 2.0 * tp / np.maximum(denom, 1), 0.0), denom > 0


def er_from_counts(errors, n_ref, insertions):
    """Elementwise error rate errors / Nref of count arrays, and where it is
    defined (a non-empty reference); the insertion count where it is not."""
    n_ref = np.asarray(n_ref)
    return np.where(n_ref > 0, errors / np.maximum(n_ref, 1), insertions), n_ref > 0


def overall(counts: SegmentCounts) -> tuple:
    """(F1 in percent, F1 defined, ER, ER defined) over every class and
    segment. F1 is 0 when there is no activity at all; with an empty
    reference the ER degenerates to the raw insertion count."""
    t = counts.totals
    f1, f1_defined = f1_from_counts(t["tp"], t["fp"], t["fn"])
    er, er_defined = er_from_counts(t["s"] + t["d"] + t["i"], t["n_ref"], t["i"])
    return float(f1), bool(f1_defined), float(er), bool(er_defined)


def calibrate_thresholds(pairs, grid, smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Per-class thresholds maximizing class F1 over (posteriors, reference)
    validation pairs of (classes, frames) arrays; ties resolve to the lower
    threshold.

    Each clip is thresholded at every grid point at once, giving a
    (thresholds, classes, frames) stack that is smoothed and reduced to
    per-(threshold, class) TP/FP/FN counts pooled over clips.
    """
    grid = np.array(sorted(float(g) for g in grid))
    if grid.size == 0:
        raise ArgumentError("threshold grid is empty")
    pairs = list(pairs)
    if not pairs:
        raise ArgumentError("no validation pairs to calibrate on")
    n_classes = pairs[0][0].shape[0]
    tp = np.zeros((grid.size, n_classes), dtype=np.int64)
    fp = np.zeros_like(tp)
    fn = np.zeros_like(tp)
    for posteriors, reference in pairs:
        ref = np.asarray(reference)
        posteriors = np.asarray(posteriors, dtype=np.float64)
        if posteriors.shape != ref.shape or posteriors.shape[0] != n_classes:
            raise DimensionError(
                f"posteriors {posteriors.shape} and reference {ref.shape} "
                f"differ or do not have {n_classes} classes"
            )
        # (thresholds, classes, frames): every grid point at once
        pred = median_smooth(threshold_posteriors(posteriors[None], grid[:, None]), smooth_window)
        pred_seg = _segment_activity(pred)  # (T, M, S)
        ref_seg = _segment_activity(ref)  # (M, S)
        tp += (pred_seg & ref_seg).sum(axis=-1)
        fp += (pred_seg & ~ref_seg).sum(axis=-1)
        fn += (~pred_seg & ref_seg).sum(axis=-1)
    # argmax takes the first maximum: the lowest threshold among ties
    return grid[np.argmax(f1_from_counts(tp, fp, fn)[0], axis=0)]


def format_report_table(report: dict) -> str:
    """`report.txt`: an aligned plain-text table of the report that
    `training.score_student` builds, as written to or read from JSON."""
    lines = [
        f"overall  F-score {report['overall']['f1']:6.2f}%   ER {report['overall']['er']:.3f}"
    ]
    if report["overall"]["flags"]:
        lines[0] += "   [" + ", ".join(report["overall"]["flags"]) + "]"
    width = max((len(r["event"]) for r in report["per_event"]), default=0)
    for row in report["per_event"]:
        f1 = f"{row['f1']:6.2f}%" if row["f1_defined"] else "   n/a "
        er = f"{row['er']:.4f}" if row["er_defined"] else "n/a"
        lines.append(f"{row['event']:<{width}}  F-score {f1}   ER {er}")
    return "\n".join(lines) + "\n"
