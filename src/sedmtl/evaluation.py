"""Segment-based detection metrics and posterior binarization.

Posteriors are thresholded per class (strictly greater), then cleaned with a
per-class binary median filter. Metrics follow the segment-based convention:
a class counts as active in a 1 s segment iff any frame inside is active;
per segment, substitutions S = min(FN, FP), deletions D = FN - S and
insertions I = FP - S; the error rate is (sum S + D + I) / (sum Nref).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DimensionError

DEFAULT_SEGMENT_S = 1.0
DEFAULT_SMOOTH_WINDOW = 27
# thresholds searched by calibration unless a caller passes its own grid
CALIBRATION_GRID = tuple(g / 20 for g in range(1, 20))
F1_UNDEFINED_FLAG = "f1_undefined_no_activity"
ER_UNDEFINED_FLAG = "er_undefined_empty_reference"


def threshold_posteriors(posteriors: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per-class strict-greater thresholding of (M, N) posteriors.

    `thresholds[:, None]` is broadcast against `posteriors`, so (T, 1)
    thresholds on (1, M, N) posteriors give a (T, M, N) stack.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if np.any(posteriors < 0.0) or np.any(posteriors > 1.0):
        raise ArgumentError("posteriors must lie in [0, 1]")
    return (posteriors > np.asarray(thresholds)[:, None]).astype(np.float64)


def median_smooth(binary: np.ndarray, window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Binary median filter along the last (frame) axis: zero-padded, centered,
    odd window. Leading axes (classes, thresholds) are filtered independently.
    """
    if window < 1 or window % 2 == 0:
        raise ArgumentError(f"window must be odd and >= 1, got {window}")
    if window == 1:
        return np.array(binary, dtype=np.float64)
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
    tp: int = 0
    fp: int = 0
    fn: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    n_ref: int = 0
    per_segment: list = field(default_factory=list)  # (S, D, I, Nref) rows
    # per-class totals, (M,) integer arrays; 0 until counts with classes merge in
    class_tp: np.ndarray | int = 0
    class_fp: np.ndarray | int = 0
    class_fn: np.ndarray | int = 0

    def merge(self, other: "SegmentCounts") -> "SegmentCounts":
        """Add other's counts, per-class totals and per-segment rows into this
        one; returns self.

        Accumulates in place, so pooling k clips costs O(total rows), not O(k^2).
        """
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.substitutions += other.substitutions
        self.deletions += other.deletions
        self.insertions += other.insertions
        self.n_ref += other.n_ref
        self.per_segment.extend(other.per_segment)
        self.class_tp = self.class_tp + other.class_tp
        self.class_fp = self.class_fp + other.class_fp
        self.class_fn = self.class_fn + other.class_fn
        return self


def _segment_activity(binary: np.ndarray, frames_per_segment: int) -> np.ndarray:
    """(..., N) frame activity to (..., S) segment activity; the trailing
    partial segment is included."""
    n = binary.shape[-1]
    n_segments = -(-n // frames_per_segment)
    lead = [(0, 0)] * (binary.ndim - 1)
    padded = np.pad(binary != 0, lead + [(0, n_segments * frames_per_segment - n)])
    return padded.reshape(binary.shape[:-1] + (n_segments, frames_per_segment)).any(axis=-1)


def segment_counts(
    reference: np.ndarray,
    prediction: np.ndarray,
    hop_s: float,
    segment_s: float = DEFAULT_SEGMENT_S,
) -> SegmentCounts:
    """Count TP/FP/FN (in total and per class) and per-segment S/D/I/Nref on
    (M, N) binary matrices.

    The trailing partial segment is included.
    """
    reference = np.asarray(reference)
    prediction = np.asarray(prediction)
    if reference.shape != prediction.shape:
        raise DimensionError(
            f"reference {reference.shape} and prediction {prediction.shape} differ"
        )
    frames_per_segment = max(1, int(round(segment_s / hop_s)))
    ref_seg = _segment_activity(reference, frames_per_segment)
    pred_seg = _segment_activity(prediction, frames_per_segment)
    hit, miss, false_alarm = ref_seg & pred_seg, ref_seg & ~pred_seg, ~ref_seg & pred_seg

    # per-segment class counts, shape (S,)
    seg_fn, seg_fp = miss.sum(axis=0), false_alarm.sum(axis=0)
    subs = np.minimum(seg_fn, seg_fp)
    dels, ins, n_ref = seg_fn - subs, seg_fp - subs, ref_seg.sum(axis=0)
    return SegmentCounts(
        tp=int(hit.sum()),
        fp=int(seg_fp.sum()),
        fn=int(seg_fn.sum()),
        substitutions=int(subs.sum()),
        deletions=int(dels.sum()),
        insertions=int(ins.sum()),
        n_ref=int(n_ref.sum()),
        per_segment=list(zip(subs.tolist(), dels.tolist(), ins.tolist(), n_ref.tolist())),
        class_tp=hit.sum(axis=1),
        class_fp=false_alarm.sum(axis=1),
        class_fn=miss.sum(axis=1),
    )


def f1_score(counts: SegmentCounts) -> float:
    """Segment-based F1 in percent; 0 when there is no activity at all."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return 100.0 * 2.0 * counts.tp / denom


def f1_defined(counts: SegmentCounts) -> bool:
    return 2 * counts.tp + counts.fp + counts.fn > 0


def error_rate(counts: SegmentCounts) -> float:
    """Segment-based error rate; with an empty reference this degenerates to
    the raw insertion count (flagged via er_defined).
    """
    errors = counts.substitutions + counts.deletions + counts.insertions
    if counts.n_ref == 0:
        return float(counts.insertions)
    return errors / counts.n_ref


def er_defined(counts: SegmentCounts) -> bool:
    return counts.n_ref > 0


def calibrate_thresholds(
    pairs,
    grid,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
    hop_s: float = 0.02,
    segment_s: float = DEFAULT_SEGMENT_S,
) -> np.ndarray:
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
    frames_per_segment = max(1, int(round(segment_s / hop_s)))
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
        pred_seg = _segment_activity(pred, frames_per_segment)  # (T, M, S)
        ref_seg = _segment_activity(ref, frames_per_segment)  # (M, S)
        tp += (pred_seg & ref_seg).sum(axis=-1)
        fp += (pred_seg & ~ref_seg).sum(axis=-1)
        fn += (~pred_seg & ref_seg).sum(axis=-1)
    # the same float expression as f1_score, on the same integer counts
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 100.0 * 2.0 * tp / np.maximum(denom, 1), 0.0)
    # argmax takes the first maximum: the lowest threshold among ties
    return grid[np.argmax(f1, axis=0)]


def report_dict(counts: SegmentCounts, per_event_rows: list) -> dict:
    flags = []
    if not f1_defined(counts):
        flags.append(F1_UNDEFINED_FLAG)
    if not er_defined(counts):
        flags.append(ER_UNDEFINED_FLAG)
    return {
        "overall": {"f1": f1_score(counts), "er": error_rate(counts), "flags": flags},
        "per_event": per_event_rows,
    }


def format_report_table(report: dict) -> str:
    """Aligned plain-text table mirroring the per-event report layout."""
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
