import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import evaluation as ev, training
from sedmtl.errors import ArgumentError, DimensionError


def report_of(posteriors, reference, event_names):
    """`training.score_student`'s report, at the default settings, of one
    clip whose posteriors are known, so no network runs."""
    clip = training.ClipExample("clip", None, 0, reference)
    return training.score_student(
        None, training.EvalConfig(), [clip], [clip], event_names, known={"clip": posteriors}
    )


def brute_force_recount(reference, prediction, frames_per_segment):
    """Naive double-loop recount of every segment-based quantity."""
    m, n = reference.shape
    n_segments = (n + frames_per_segment - 1) // frames_per_segment
    tp = fp = fn = subs = dels = ins = n_ref = 0
    for s in range(n_segments):
        lo, hi = s * frames_per_segment, min((s + 1) * frames_per_segment, n)
        seg_fn = seg_fp = 0
        for c in range(m):
            ref_active = any(reference[c, t] for t in range(lo, hi))
            pred_active = any(prediction[c, t] for t in range(lo, hi))
            if ref_active and pred_active:
                tp += 1
            elif pred_active:
                fp += 1
                seg_fp += 1
            elif ref_active:
                fn += 1
                seg_fn += 1
            if ref_active:
                n_ref += 1
        s_seg = min(seg_fn, seg_fp)
        subs += s_seg
        dels += seg_fn - s_seg
        ins += seg_fp - s_seg
    f1 = 100.0 * 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    er = (subs + dels + ins) / n_ref if n_ref else float(ins)
    return dict(tp=tp, fp=fp, fn=fn, s=subs, d=dels, i=ins, n_ref=n_ref, f1=f1, er=er)


def brute_force_calibrate(pairs, grid, window, frames_per_segment):
    """Per-(threshold, class) loop over clips: threshold, median-filter and
    recount one class at a time; strict improvement keeps the lower threshold.
    """
    n_classes = pairs[0][0].shape[0]
    pad = window // 2
    best, best_f1 = [None] * n_classes, [-1.0] * n_classes
    for threshold in sorted(grid):
        for m in range(n_classes):
            tp = fp = fn = 0
            for post, ref in pairs:
                n = post.shape[1]
                raw = [1.0 if post[m, t] > threshold else 0.0 for t in range(n)]
                smooth = np.zeros((1, n))
                for t in range(n):
                    votes = sum(raw[k] for k in range(max(0, t - pad), min(n, t + pad + 1)))
                    smooth[0, t] = 1.0 if votes > pad else 0.0
                oracle = brute_force_recount(ref[m : m + 1], smooth, frames_per_segment)
                tp, fp, fn = tp + oracle["tp"], fp + oracle["fp"], fn + oracle["fn"]
            f1 = 100.0 * 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
            if f1 > best_f1[m]:
                best_f1[m], best[m] = f1, threshold
    return np.array(best)


def brute_force_per_event(pairs, thresholds, smooth_window, event_names):
    """Per-class rows by merging single-row segment counts clip by clip, one
    class at a time (segments must not straddle clip boundaries)."""
    pooled = [ev.SegmentCounts() for _ in event_names]
    for posteriors, roll in pairs:
        pred = ev.binarize(posteriors, thresholds, smooth_window)
        for m in range(len(event_names)):
            pooled[m] = pooled[m].merge(
                ev.segment_counts(roll[m : m + 1], pred[m : m + 1])
            )
    rows = []
    for name, counts in zip(event_names, pooled):
        totals = counts.totals
        rows.append({
            "event": name,
            "f1": ev.overall(counts)[0],
            "f1_defined": totals["tp"] + totals["fp"] + totals["fn"] > 0,
            "er": ev.overall(counts)[2],
            "er_defined": totals["n_ref"] > 0,
        })
    return rows


class TestBinarize:
    def test_all_above_fixed_threshold(self):
        post = np.full((2, 60), 0.9)
        out = ev.binarize(post, 0.5)
        assert out.all()

    def test_exactly_at_threshold_is_inactive(self):
        post = np.full((1, 60), 0.5)
        out = ev.threshold_posteriors(post, np.array([0.5]))
        assert not out.any()

    def test_isolated_spike_removed_by_median(self):
        post = np.zeros((1, 60))
        post[0, 30] = 0.99
        out = ev.binarize(post, 0.5)
        assert not out.any()

    def test_long_activation_survives_median(self):
        post = np.zeros((1, 80))
        post[0, 20:60] = 0.99
        post[0, 70] = 0.99
        out = ev.binarize(post, 0.5)
        assert out[0, 25:55].all()
        # window 1 filters nothing: every thresholded frame comes back as is
        for shape in ((5, 1), (3, 7), (2, 4, 50), (1, 0)):
            binary = (np.random.default_rng(7).random(shape) < 0.5).astype(np.float64)
            assert np.array_equal(ev.median_smooth(binary, 1), binary)
        assert np.array_equal(ev.binarize(post, 0.5, 1), (post > 0.5).astype(np.float64))

    def test_out_of_range_posterior(self):
        with pytest.raises(ArgumentError):
            ev.threshold_posteriors(np.array([[1.2]]), np.array([0.5]))

    def test_nan_posterior_is_an_error(self):
        # NaN > threshold is False: unchecked, a NaN would score as no event
        with pytest.raises(ArgumentError, match=r"posteriors must lie in \[0, 1\]"):
            ev.threshold_posteriors(np.array([[0.7, np.nan]]), np.array([0.5]))

    def test_monotone_in_threshold_pre_smoothing(self):
        rng = np.random.default_rng(0)
        post = rng.random((3, 100))
        lower = ev.threshold_posteriors(post, np.array([0.3, 0.4, 0.5]))
        higher = ev.threshold_posteriors(post, np.array([0.5, 0.6, 0.7]))
        assert not (higher > lower).any()

    def test_policy_validation(self):
        post = np.full((3, 60), 0.5)
        for bad in (0.0, 1.0, [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]):
            with pytest.raises(ArgumentError, match=r"thresholds must be in \(0,1\)"):
                ev.binarize(post, bad)
        with pytest.raises(DimensionError, match="2 thresholds for 3 classes"):
            ev.binarize(post, [0.4, 0.6])

    def test_one_threshold_or_one_per_class(self):
        post = np.tile(np.array([[0.2], [0.5], [0.8]]), (1, 60))
        assert np.array_equal(ev.binarize(post, 0.4), ev.binarize(post, [0.4, 0.4, 0.4]))
        assert np.array_equal(ev.binarize(post, [0.4]), ev.binarize(post, 0.4))
        per_class = ev.binarize(post, [0.1, 0.6, 0.9])
        assert per_class[0].all() and not per_class[1].any() and not per_class[2].any()


class TestSegmentCounts:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        ref = (rng.random((4, 200)) < 0.2).astype(float)
        counts = ev.segment_counts(ref, ref)
        totals = counts.totals
        assert totals["fp"] == totals["fn"] == 0
        assert totals["s"] + totals["d"] + totals["i"] == 0
        assert ev.overall(counts) == (100.0, True, 0.0, True)

    def test_hand_counted_case(self):
        # 1 class, 3 one-second segments at 50 frames each:
        # reference active in segments {1, 2}, prediction in {2, 3} (1-based)
        ref = np.zeros((1, 150))
        pred = np.zeros((1, 150))
        ref[0, 0:100] = 1.0
        pred[0, 50:150] = 1.0
        counts = ev.segment_counts(ref, pred)
        assert counts.totals == dict(tp=1, fp=1, fn=1, s=0, d=1, i=1, n_ref=2)
        assert ev.overall(counts) == (50.0, True, 1.0, True)

    def test_empty_everything(self):
        counts = ev.segment_counts(np.zeros((2, 100)), np.zeros((2, 100)))
        assert ev.overall(counts) == (0.0, False, 0.0, False)
        flags = report_of(np.zeros((2, 100)), np.zeros((2, 100)), ["a", "b"])["overall"]["flags"]
        assert flags == [ev.F1_UNDEFINED_FLAG, ev.ER_UNDEFINED_FLAG]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ev.segment_counts(np.zeros((2, 100)), np.zeros((2, 99)))

    def test_er_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ref = (rng.random((3, 130)) < 0.25).astype(float)
            pred = (rng.random((3, 130)) < 0.25).astype(float)
            counts = ev.segment_counts(ref, pred)
            fn_total = fp_total = 0
            for s, (subs, dels, ins, _) in enumerate(counts.per_segment):
                fn_total += subs + dels
                fp_total += subs + ins
            totals = counts.totals
            assert fn_total == totals["fn"]
            assert fp_total == totals["fp"]
            assert totals["tp"] + totals["fn"] == totals["n_ref"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(5, 220))
            density = float(rng.uniform(0.05, 0.5))
            ref = (rng.random((m, n)) < density).astype(float)
            pred = (rng.random((m, n)) < density).astype(float)
            counts = ev.segment_counts(ref, pred)
            oracle = brute_force_recount(ref, pred, 50)
            totals = counts.totals
            assert (totals["tp"], totals["fp"], totals["fn"]) == (
                oracle["tp"], oracle["fp"], oracle["fn"],
            )
            assert totals["s"] == oracle["s"]
            assert totals["d"] == oracle["d"]
            assert totals["i"] == oracle["i"]
            assert totals["n_ref"] == oracle["n_ref"]
            assert ev.overall(counts)[::2] == (oracle["f1"], oracle["er"])

    def test_merge_pools_counts_and_keeps_rows_in_order(self):
        rng = np.random.default_rng(8)
        parts = []
        # 6, 1 and 11 segments of 50 frames, the last one partial in each, so
        # that segments and classes differ
        for n in (260, 49, 520):
            ref = (rng.random((3, n)) < 0.3).astype(float)
            pred = (rng.random((3, n)) < 0.3).astype(float)
            parts.append(ev.segment_counts(ref, pred))
        pooled = ev.SegmentCounts()
        for part in parts:
            pooled = pooled.merge(part)
        assert pooled.per_segment == [row for part in parts for row in part.per_segment]
        for name in ("tp", "fp", "fn", "s", "d", "i", "n_ref"):
            assert pooled.totals[name] == sum(part.totals[name] for part in parts)
        for name in ("class_tp", "class_fp", "class_fn"):
            per_class = getattr(pooled, name)
            assert per_class.shape == (3,)
            assert np.array_equal(per_class, sum(getattr(part, name) for part in parts))
        assert pooled.class_tp.sum() == pooled.totals["tp"]
        assert pooled.class_fp.sum() == pooled.totals["fp"]
        assert pooled.class_fn.sum() == pooled.totals["fn"]

    def test_invariant_to_class_permutation(self):
        rng = np.random.default_rng(4)
        ref = (rng.random((5, 200)) < 0.2).astype(float)
        pred = (rng.random((5, 200)) < 0.2).astype(float)
        base = ev.segment_counts(ref, pred)
        perm = rng.permutation(5)
        shuffled = ev.segment_counts(ref[perm], pred[perm])
        assert ev.overall(base) == ev.overall(shuffled)


class TestPerEventReport:
    def test_absent_class_flagged(self):
        ref = np.zeros((2, 100))
        pred = np.zeros((2, 100))
        ref[0, 10:60] = 1.0
        pred[0, 10:60] = 1.0
        rows = training.pooled_per_event(
            ev.segment_counts(ref, pred), ["present", "absent"]
        )
        assert rows[0]["f1"] == 100.0 and rows[0]["f1_defined"]
        assert rows[1]["f1"] == 0.0 and not rows[1]["f1_defined"]
        assert rows[1]["er"] == 0.0 and not rows[1]["er_defined"]

    def test_single_class_matches_overall(self):
        rng = np.random.default_rng(5)
        ref = (rng.random((1, 300)) < 0.3).astype(float)
        pred = (rng.random((1, 300)) < 0.3).astype(float)
        counts = ev.segment_counts(ref, pred)
        rows = training.pooled_per_event(counts, ["only"])
        assert (rows[0]["f1"], rows[0]["er"]) == ev.overall(counts)[::2]

    def test_report_formatting(self):
        report = report_of(np.zeros((1, 100)), np.zeros((1, 100)), ["quiet"])
        assert ev.F1_UNDEFINED_FLAG in report["overall"]["flags"]
        table = ev.format_report_table(report)
        assert "quiet" in table and "overall" in table
        # report.txt is reproducible from report.json as written
        assert ev.format_report_table(json.loads(json.dumps(report))) == table

    def test_pooled_rows_match_per_clip_per_class_merge(self):
        # several clips of different lengths (partial last segments), classes
        # absent from every reference or prediction, fixed and calibrated
        # policies, windows 1/3/27
        rng = np.random.default_rng(10)
        for trial in range(60):
            m = int(rng.integers(1, 5))
            names = [f"e{k}" for k in range(m)]
            pairs = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 260))
                # blocky posteriors, so that events survive the median filter
                post = np.repeat(rng.random((m, -(-n // 10))), 10, axis=1)[:, :n]
                ref = np.repeat(rng.random((m, -(-n // 10))) < 0.4, 10, axis=1)[:, :n]
                ref[rng.random(m) < 0.3] = False
                post[rng.random(m) < 0.2] = 0.0
                pairs.append((post, ref.astype(np.float64)))
            if trial % 3:
                thresholds = float(rng.choice([0.3, 0.5, 0.7]))
            else:
                thresholds = rng.uniform(0.1, 0.9, m)
            window = int(rng.choice([1, 3, 27]))
            scores = training.evaluate_student(pairs, thresholds, smooth_window=window)
            rows = training.pooled_per_event(scores["counts"], names)
            assert rows == brute_force_per_event(pairs, thresholds, window, names), trial


class TestCalibrateThresholds:
    def test_single_point_grid(self):
        rng = np.random.default_rng(6)
        post = rng.random((3, 200))
        ref = (rng.random((3, 200)) < 0.3).astype(float)
        out = ev.calibrate_thresholds([(post, ref)], [0.5])
        assert_allclose(out, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        post = rng.random((2, 300))
        ref = (rng.random((2, 300)) < 0.2).astype(float)
        grid = [0.2, 0.4, 0.6, 0.8]
        a = ev.calibrate_thresholds([(post, ref)], grid)
        b = ev.calibrate_thresholds([(post, ref)], grid)
        assert np.array_equal(a, b)

    def test_recovers_constructed_optimum(self):
        # class posteriors sit at 0.35 inside true events and 0.25 outside, so
        # any threshold in [0.25, 0.35) separates them; 0.3 is in the grid
        ref = np.zeros((1, 400))
        for start in range(0, 400, 100):
            ref[0, start : start + 50] = 1.0
        post = np.where(ref > 0, 0.35, 0.25)
        out = ev.calibrate_thresholds([(post, ref)], [0.1, 0.3, 0.5, 0.7])
        assert_allclose(out, [0.3])

    def test_ties_take_lower_threshold(self):
        # nothing active anywhere: every threshold scores the same
        post = np.zeros((1, 100))
        ref = np.zeros((1, 100))
        out = ev.calibrate_thresholds([(post, ref)], [0.6, 0.2, 0.4])
        assert_allclose(out, [0.2])

    def test_empty_grid(self):
        with pytest.raises(ArgumentError):
            ev.calibrate_thresholds([(np.zeros((1, 10)), np.zeros((1, 10)))], [])

    def test_matches_brute_force_reference(self):
        # rounded posteriors land exactly on grid points (ties); clips of up
        # to four 50-frame segments leave partial last segments; grids arrive
        # unsorted
        rng = np.random.default_rng(9)
        for trial in range(40):
            m = int(rng.integers(1, 4))
            pairs = []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 180))
                post = rng.random((m, n))
                if trial % 2:
                    post = np.round(post, 1)
                ref = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(float)
                pairs.append((post, ref))
            grid = list(rng.permutation([0.1, 0.2, 0.3, 0.5, 0.7, 0.9])[: int(rng.integers(1, 7))])
            window = int(rng.choice([1, 3, 27]))
            out = ev.calibrate_thresholds(pairs, grid, smooth_window=window)
            expected = brute_force_calibrate(pairs, grid, window, 50)
            assert np.array_equal(out, expected), (trial, out, expected)

    def test_out_of_range_posteriors_rejected(self):
        ref = np.zeros((2, 10))
        for bad in (1.5, -0.1):
            post = np.full((2, 10), 0.5)
            post[1, 3] = bad
            with pytest.raises(ArgumentError):
                ev.calibrate_thresholds([(np.full((2, 10), 0.5), ref), (post, ref)], [0.5])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ev.calibrate_thresholds([(np.zeros((2, 10)), np.zeros((2, 11)))], [0.5])
