import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import data, training
from sedmtl.data import ClipRecord, Vocabulary
from sedmtl.errors import ArgumentError, DataError, ParseError
from sedmtl.features import HOP_S

VOCAB = Vocabulary(
    scenes=["home", "office", "city_center", "residential_area"],
    events=["dishes", "keyboard_typing", "car", "bird_singing", "people_talking"],
)


def roll_to_intervals(roll: np.ndarray) -> list:
    """Maximal runs of active frames mapped back to (onset, offset, class)."""
    intervals = []
    for cls in range(roll.shape[0]):
        padded = np.concatenate([[0.0], roll[cls], [0.0]])
        starts = np.flatnonzero((padded[1:-1] == 1.0) & (padded[:-2] == 0.0))
        ends = np.flatnonzero((padded[1:-1] == 1.0) & (padded[2:] == 0.0))
        for n0, n1 in zip(starts, ends):
            intervals.append((n0 * HOP_S, (n1 + 1) * HOP_S, cls))
    intervals.sort(key=lambda e: (e[0], e[2]))
    return intervals


class TestParseMetadata:
    def test_scene_resolution(self):
        records = data.parse_metadata("audio/a.wav\thome\n", VOCAB)
        assert len(records) == 1
        assert records[0].scene == 0
        assert records[0].clip_id == "a"

    def test_empty_file(self):
        assert data.parse_metadata("", VOCAB) == []

    def test_without_a_vocabulary_the_scene_is_its_name(self):
        records = data.parse_metadata("audio/a.wav\tbeach\nb.wav\thome\n")
        assert [(r.clip_id, r.scene) for r in records] == [("a", "beach"), ("b", "home")]

    def test_unknown_scene(self):
        with pytest.raises(ParseError, match="beach"):
            data.parse_metadata("a.wav\tbeach\n", VOCAB)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            data.parse_metadata("a.wav\thome\nbroken-line\n", VOCAB)

    def test_duplicate_vocab_names_rejected(self, tmp_path):
        path = tmp_path / "vocabulary.json"
        path.write_text(json.dumps({"scenes": ["home", "home"], "events": ["car"]}))
        with pytest.raises(DataError, match=r"'scenes' names 'home' more than once$"):
            Vocabulary.load(path)


class TestParseEventAnnotations:
    def test_single_event(self):
        events = data.parse_event_annotations("0.5\t2.0\tcar\n", "c1", VOCAB)
        assert events == [(0.5, 2.0, 2)]

    def test_overlapping_events_retained(self):
        text = "0.5\t2.0\tcar\n1.0\t1.5\tdishes\n"
        events = data.parse_event_annotations(text, "c1", VOCAB)
        assert len(events) == 2
        assert events[0][2] == 2 and events[1][2] == 0

    def test_sorted_by_onset(self):
        text = "3.0\t4.0\tcar\n0.5\t1.0\tdishes\n"
        events = data.parse_event_annotations(text, "c1", VOCAB)
        assert [e[0] for e in events] == [0.5, 3.0]

    def test_without_a_vocabulary_the_event_is_its_name(self):
        events = data.parse_event_annotations("3.0\t4.0\tthunder\n0.5\t1.0\tcar\n", "c1")
        assert events == [(0.5, 1.0, "car"), (3.0, 4.0, "thunder")]

    def test_inverted_interval(self):
        with pytest.raises(ParseError, match="line 1"):
            data.parse_event_annotations("2.0\t1.0\tcar\n", "c1", VOCAB)

    def test_unknown_event(self):
        text = "0.5\t2.0\tcar\n0.0\t1.0\tthunder\n"
        with pytest.raises(ParseError, match="^line 2: c1: unknown event name 'thunder'$"):
            data.parse_event_annotations(text, "c1", VOCAB)


class TestEventsToRoll:
    def test_no_events(self):
        roll = data.events_to_roll([], 10, 5)
        assert roll.shape == (5, 10)
        assert not roll.any()

    def test_frame_center_rule(self):
        # centers at 0.01, 0.03, 0.05; offset 0.05 excludes frame 2
        roll = data.events_to_roll([(0.0, 0.05, 0)], 3, 1)
        assert_allclose(roll[0], [1.0, 1.0, 0.0])

    def test_polyphonic_overlap(self):
        roll = data.events_to_roll([(0.0, 0.1, 0), (0.04, 0.2, 1)], 10, 2)
        overlap = roll[:, 2:4]
        assert overlap.all()

    def test_entries_binary(self):
        roll = data.events_to_roll([(0.0, 0.1, 0), (0.02, 0.08, 0)], 10, 2)
        assert set(np.unique(roll)) <= {0.0, 1.0}

    def test_clipped_event_counter(self):
        events = [(0.0, 0.05, 0), (0.1, 5.0, 0)]
        assert data.count_clipped_events(events, 10) == 1

    def test_round_trip_within_one_hop(self):
        rng = np.random.default_rng(0)
        hop = HOP_S
        for _ in range(50):
            n = int(rng.integers(50, 300))
            clip_len = n * hop
            events = []
            cursor = 0.0
            cls = int(rng.integers(0, 3))
            while True:
                onset = cursor + float(rng.uniform(2 * hop, 10 * hop))
                duration = float(rng.uniform(2 * hop, 20 * hop))
                if onset + duration >= clip_len - hop:
                    break
                events.append((onset, onset + duration, cls))
                cursor = onset + duration + 2 * hop  # keep runs separated
            roll = data.events_to_roll(events, n, 3)
            recovered = roll_to_intervals(roll)
            assert len(recovered) == len(events)
            for (a0, a1, c0), (b0, b1, c1) in zip(sorted(events), recovered):
                assert c0 == c1
                assert abs(a0 - b0) <= hop
                assert abs(a1 - b1) <= hop


class TestMakeFolds:
    def make_records(self, per_scene, scenes=2):
        return [
            ClipRecord(clip_id=f"s{s}c{i}", audio_path=f"s{s}c{i}.wav", scene=s)
            for s in range(scenes)
            for i in range(per_scene)
        ]

    def test_exact_stratification(self):
        split = data.make_folds(self.make_records(4, scenes=2), n_folds=4, seed=1)
        for fold in range(4):
            clips = training.split_ids(split, fold)[1]
            assert len(clips) == 2
            scenes = {c[1] for c in clips}
            assert scenes == {"0", "1"}

    def test_deterministic(self):
        records = self.make_records(5, scenes=3)
        a = data.make_folds(records, n_folds=4, seed=7)
        b = data.make_folds(records, n_folds=4, seed=7)
        assert a == b

    def test_too_few_clips(self):
        with pytest.raises(ArgumentError):
            data.make_folds(self.make_records(1, scenes=3), n_folds=4, seed=0)

    @pytest.mark.parametrize("n_folds", [0, -1])
    def test_fewer_than_one_fold(self, n_folds):
        with pytest.raises(ArgumentError, match=f"folds must be >= 1, got {n_folds}"):
            data.make_folds(self.make_records(2, scenes=2), n_folds=n_folds, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ArgumentError, match="seed must be >= 0, got -1"):
            data.make_folds(self.make_records(2, scenes=2), n_folds=2, seed=-1)

    def test_partition_properties(self):
        records = self.make_records(7, scenes=3)
        split = data.make_folds(records, n_folds=4, seed=3)
        all_clips = [r.clip_id for r in records]
        assert sorted(split) == sorted(all_clips)
        for fold in range(4):
            assert training.split_ids(split, fold)[1]
        sizes = [len(training.split_ids(split, f)[1]) for f in range(4)]
        assert max(sizes) - min(sizes) <= 1


class TestChunkClips:
    def make_pair(self, n):
        rng = np.random.default_rng(n)
        feats = rng.normal(size=(8, n))
        roll = (rng.random((3, n)) < 0.3).astype(float)
        return feats, roll

    def test_exact_division(self):
        feats, roll = self.make_pair(1000)
        chunks = data.chunk_clips(feats, roll, 500)
        assert len(chunks) == 2
        assert all(c.mask.sum() == 500 for c in chunks)

    def test_padding_and_mask(self):
        feats, roll = self.make_pair(600)
        chunks = data.chunk_clips(feats, roll, 500)
        assert len(chunks) == 2
        assert chunks[0].mask.sum() == 500
        assert chunks[1].mask.sum() == 100
        assert not chunks[1].features[:, 100:].any()
        assert not chunks[1].roll[:, 100:].any()

    def test_single_full_chunk(self):
        feats, roll = self.make_pair(500)
        chunks = data.chunk_clips(feats, roll, 500)
        assert len(chunks) == 1
        assert chunks[0].mask.all()

    def test_mask_sum_equals_n(self):
        for n in (1, 37, 499, 500, 501, 1234):
            feats, roll = self.make_pair(n)
            chunks = data.chunk_clips(feats, roll, 500)
            assert sum(int(c.mask.sum()) for c in chunks) == n

    def test_frame_count_mismatch(self):
        feats, _ = self.make_pair(100)
        _, roll = self.make_pair(99)
        with pytest.raises(ArgumentError):
            data.chunk_clips(feats, roll, 500)


class TestPersistence:
    def test_vocabulary_round_trip(self, tmp_path):
        path = tmp_path / "vocab.json"
        data.write_json(path, {"scenes": VOCAB.scenes, "events": VOCAB.events})
        loaded = Vocabulary.load(path)
        assert loaded.scenes == VOCAB.scenes
        assert loaded.events == VOCAB.events

    def test_manifest_round_trip(self, tmp_path):
        entries = {
            "a": {"audio_path": "a.wav", "annotation_path": "a.ann", "scene": 0, "fold": 1}
        }
        path = tmp_path / "manifest.json"
        data.write_json(path, entries)
        assert data.read_manifest(path) == entries

    @pytest.mark.parametrize(
        "entry, problem",
        [
            (["a.wav"], "must be an object, got ['a.wav']"),
            ({"audio_path": "a.wav", "annotation_path": "a.ann", "fold": 1},
             "needs 'scene' of type int, got None"),
            ({"audio_path": "a.wav", "annotation_path": "a.ann", "scene": True, "fold": 1},
             "needs 'scene' of type int, got True"),
            ({"audio_path": 3, "annotation_path": "a.ann", "scene": 0, "fold": 1},
             "needs 'audio_path' of type str, got 3"),
            ({"audio_path": "a.wav", "annotation_path": "a.ann", "scene": 0, "fold": 1.0},
             "needs 'fold' of type int, got 1.0"),
        ],
        ids=["list", "no-scene", "bool-scene", "number-path", "float-fold"],
    )
    def test_manifest_entry_of_another_shape_names_its_clip(self, tmp_path, entry, problem):
        path = tmp_path / "manifest.json"
        data.write_json(path, {"a": entry})
        with pytest.raises(DataError) as info:
            data.read_manifest(path)
        assert str(info.value) == f"{path}: clip 'a' {problem}"

    def test_only_data_reads_and_writes_json_files(self):
        package = Path(data.__file__).parent
        callers = [
            p.name for p in sorted(package.glob("*.py"))
            if re.search(r"json\.(load|dump)\(", p.read_text(encoding="utf-8"))
        ]
        assert callers == ["data.py"]
