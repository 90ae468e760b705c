import collections
import copy
import dataclasses
import functools
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import losses, networks, parallel, training
from sedmtl.data import Vocabulary, write_json
from sedmtl.errors import ConfigError, DataError, DimensionError
from sedmtl.features import LogMelSpectrogram
from sedmtl.training import AdamState, ClipExample, TrainConfig, parse_settings

from gradcheck import zero_grads


def synthetic_scene_examples(n_frames=20, clips_per_scene=2, n_scenes=4, n_events=3):
    """Separable toy clips: each scene paints a distinct block of mel bands,
    each event paints a distinct block of frames in a distinct band range.
    """
    examples = {}
    for scene in range(n_scenes):
        for k in range(clips_per_scene):
            rng = np.random.default_rng(1000 * scene + k)
            data = rng.normal(scale=0.1, size=(64, n_frames))
            data[scene * 8 : scene * 8 + 8] += 3.0  # scene signature
            roll = np.zeros((n_events, n_frames))
            cls = scene % n_events
            lo = 4 * (k + 1)
            roll[cls, lo : lo + 6] = 1.0
            data[40 + 8 * cls : 48 + 8 * cls, lo : lo + 6] += 4.0  # event signature
            clip_id = f"s{scene}k{k}"
            examples[clip_id] = ClipExample(
                clip_id=clip_id,
                features=LogMelSpectrogram(data=data, clip_id=clip_id),
                scene=scene,
                roll=roll,
            )
    return examples


def quick_config(mode, **overrides):
    base = dict(
        mode=mode,
        alpha=0.0,
        beta=0.0,
        temperature=1.0,
        learning_rate=1e-3,
        batch_size=8,
        max_epochs=3,
        patience=20,
        seed=0,
        chunk_len=50,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_valid_document(self):
        doc = {"mode": "mtl_soft", "beta": 1.0, "temperature": 2.0}
        cfg = parse_settings(TrainConfig, doc, "train")
        assert cfg.mode == "mtl_soft"
        assert cfg.beta == 1.0
        assert cfg.chunk_len == 500  # default

    def test_all_violations_listed(self):
        doc = {"mode": "warp", "alpha": -1.0, "batch_size": 0, "mystery": 1}
        with pytest.raises(ConfigError) as err:
            parse_settings(TrainConfig, doc, "train")
        message = str(err.value)
        for fragment in ("warp", "alpha", "batch_size", "mystery"):
            assert fragment in message

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_settings(TrainConfig, {"mode": "teacher", "alpha": True}, "train")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="field 'seed' must be >= 0, got -1"):
            parse_settings(TrainConfig, {"mode": "teacher", "seed": -1}, "train")


class TestSettingsReference:
    """README's config reference table against the settings dataclasses."""

    def readme_rows(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Training config reference", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            match = re.fullmatch(r"\| `([\w.]+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \|", line)
            if match:
                name, _, rule, default = (g.strip() for g in match.groups())
                rows[name] = (rule, default)
        return rows

    def schema_rows(self):
        rows = {}
        sections = [("train", TrainConfig), ("cv", training.CvConfig),
                    ("cv.eval", training.EvalConfig)]
        for section, cls in sections:
            for field in dataclasses.fields(cls):
                if field.default is dataclasses.MISSING:
                    default = "required"
                elif dataclasses.is_dataclass(field.default):
                    assert field.default == type(field.default)()
                    default = "`{}`"
                else:
                    default = f"`{json.dumps(field.default)}`"
                rows[f"{section}.{field.name}"] = (field.metadata.get("rule"), default)
        return rows

    def test_names_rules_and_defaults_match(self):
        readme, schema = self.readme_rows(), self.schema_rows()
        assert list(readme) == list(schema)
        for name, (rule, default) in schema.items():
            assert readme[name][1] == default, name
            if rule is not None:  # a nested section has no rule of its own
                assert readme[name][0] == rule, name


class TestAdam:
    def params_and_state(self):
        params = networks.ModelParams()
        params.add("w", np.array([1.0, -2.0, 3.0]))
        return params, AdamState()

    def test_zero_gradients_leave_params_unchanged(self):
        params, state = self.params_and_state()
        before = params["w"].values.copy()
        training.adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
        assert np.array_equal(params["w"].values, before)

    def test_first_step_magnitude_is_lr_sign(self):
        params, state = self.params_and_state()
        g = np.array([0.3, -0.7, 0.0001])
        training.adam_step(params, {"w": g}, state, lr=1e-3)
        step = params["w"].values - np.array([1.0, -2.0, 3.0])
        assert_allclose(step, -1e-3 * np.sign(g), rtol=1e-3)

    def test_deterministic(self):
        g = np.array([0.5, 0.25, -0.125])
        outs = []
        for _ in range(2):
            params, state = self.params_and_state()
            for _ in range(5):
                training.adam_step(params, {"w": g}, state, lr=1e-2)
            outs.append(params["w"].values.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_shape_mismatch(self):
        params, state = self.params_and_state()
        with pytest.raises(DimensionError):
            training.adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)

    def test_missing_gradient_skips_param(self):
        params, state = self.params_and_state()
        before = params["w"].values.copy()
        training.adam_step(params, {}, state, lr=0.1)
        assert np.array_equal(params["w"].values, before)

    def test_zero_moments_are_made_only_at_the_first_step(self, monkeypatch):
        params, state = self.params_and_state()
        training.adam_step(params, {"w": np.ones(3)}, state, lr=0.1)
        monkeypatch.setattr(np, "zeros_like", lambda a: pytest.fail("zero moments made again"))
        training.adam_step(params, {"w": np.ones(3)}, state, lr=0.1)
        assert state.step == 2


class TestTrainTeacher:
    def test_overfits_separable_scenes(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        cfg = quick_config("teacher", max_epochs=200, patience=10, learning_rate=3e-3)
        result = training.train_teacher(clips, clips, cfg, n_scenes=4)
        assert [int(np.argmax(x)) for x in result.val_outputs.values()] == [c.scene for c in clips]
        assert result.best_epoch <= 200

    def test_val_outputs_are_the_logits_of_the_restored_parameters(self):
        clips = sorted(synthetic_scene_examples().values(), key=lambda c: c.clip_id)
        cfg = quick_config("teacher", max_epochs=6, patience=6, learning_rate=3e-2)
        result = training.train_teacher(clips[:6], clips[4:], cfg, n_scenes=4)
        assert result.best_epoch < len(result.log)  # the restored epoch is not the last
        again = networks.teacher_logits(result.params, [c.features.data for c in clips[4:]])
        assert list(result.val_outputs) == [c.clip_id for c in clips[4:]]
        for kept, fresh in zip(result.val_outputs.values(), again):
            assert kept.shape == (4,)
            assert kept.tobytes() == fresh.values.tobytes()

    def test_deterministic_loss_trace(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        cfg = quick_config("teacher", max_epochs=4)
        a = training.train_teacher(clips, clips, cfg, n_scenes=4)
        b = training.train_teacher(clips, clips, cfg, n_scenes=4)
        assert json.dumps(a.log, sort_keys=True) == json.dumps(b.log, sort_keys=True)
        assert a.params.blob() == b.params.blob()

    def test_patience_zero_stops_one_epoch_past_best(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        cfg = quick_config("teacher", max_epochs=100, patience=0, learning_rate=3e-3)
        result = training.train_teacher(clips, clips, cfg, n_scenes=4)
        assert len(result.log) == result.best_epoch + 1

    def test_wrong_mode_and_empty_fold(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        with pytest.raises(ConfigError):
            training.train_teacher(clips, clips, quick_config("mtl_hard"), n_scenes=4)
        with pytest.raises(DataError):
            training.train_teacher([], clips, quick_config("teacher"), n_scenes=4)


class TestSoftLabels:
    def test_untrained_zero_head_gives_uniform(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        params = networks.init_teacher_params(4, seed=0)
        params["out.weight"].values[:] = 0.0
        labels = training.compute_soft_labels(params, clips, temperature=1.0)
        for p in labels.values():
            assert_allclose(p, 0.25)

    def test_every_label_normalized(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        params = networks.init_teacher_params(4, seed=1)
        labels = training.compute_soft_labels(params, clips, temperature=2.0)
        for p in labels.values():
            assert abs(p.sum() - 1.0) < 1e-9

    def test_temperature_raises_mean_entropy(self):
        examples = synthetic_scene_examples()
        clips = sorted(examples.values(), key=lambda c: c.clip_id)
        cfg = quick_config("teacher", max_epochs=30, patience=5, learning_rate=3e-3)
        result = training.train_teacher(clips, clips, cfg, n_scenes=4)

        def mean_entropy(temperature):
            labels = training.compute_soft_labels(result.params, clips, temperature)
            return float(
                np.mean([-(p * np.log(p + 1e-300)).sum() for p in labels.values()])
            )

        entropies = [mean_entropy(t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = {}
        for i in range(5):
            v = rng.random(4)
            labels[f"clip{i}"] = v / v.sum()
        path = tmp_path / "soft.json"
        write_json(path, {clip: list(label) for clip, label in labels.items()})
        loaded = training.load_soft_labels(path, 4)
        assert sorted(loaded) == sorted(labels)
        for k in labels:
            assert np.array_equal(loaded[k], labels[k])

    @pytest.mark.parametrize(
        "label, problem",
        [
            ([0.5, float("nan"), 0.5, 0.0], "is not a list of finite numbers"),
            ([0.5, float("inf"), 0.5, 0.0], "is not a list of finite numbers"),
            ([0.5, True, 0.5, 0.0], "is not a list of finite numbers"),
            ({"home": 1.0}, "is not a list of finite numbers"),
            ([0.25] * 5, "has 5 entries for 4 scenes"),
            ([0.5, 0.6, -0.1, 0.0], "has a negative entry"),
            ([0.25, 0.25, 0.25, 0.25 + 2e-9], r"sums to 1\.000000002, not 1"),
        ],
        ids=["nan", "inf", "bool", "object", "length", "negative", "sum"],
    )
    def test_load_rejects_a_bad_label(self, tmp_path, label, problem):
        path = tmp_path / "soft.json"
        path.write_text(json.dumps({"a": [0.25] * 4, "b": label}))
        expected = f"^{re.escape(str(path))}: soft label of clip 'b' {problem}$"
        with pytest.raises(DataError, match=expected):
            training.load_soft_labels(path, 4)

    def test_load_accepts_a_sum_within_1e_9(self, tmp_path):
        path = tmp_path / "soft.json"
        path.write_text(json.dumps({"a": [0.1, 0.1, 0.1, 0.7 + 5e-10]}))
        assert training.load_soft_labels(path, 4)["a"][3] == 0.7 + 5e-10

    def test_load_rejects_a_file_that_is_no_object(self, tmp_path):
        path = tmp_path / "soft.json"
        path.write_text("[[0.25, 0.25, 0.25, 0.25]]")
        with pytest.raises(DataError, match="soft labels must be a JSON object"):
            training.load_soft_labels(path, 4)


class TestTrainStudent:
    def clips(self):
        examples = synthetic_scene_examples()
        return sorted(examples.values(), key=lambda c: c.clip_id)

    def test_val_posteriors_are_those_of_the_restored_parameters(self):
        clips = self.clips()
        result = training.train_student(
            clips[:5], clips[3:], quick_config("mtl_hard", alpha=0.1), n_scenes=4
        )
        assert result.best_epoch < len(result.log)  # the restored epoch is not the last
        again = [training.student_posteriors(result.params, clip)[0] for clip in clips[3:]]
        assert list(result.val_outputs) == [c.clip_id for c in clips[3:]]
        for kept, fresh in zip(result.val_outputs.values(), again):
            assert kept.tobytes() == fresh.tobytes()

    def test_event_only_equals_mtl_hard_alpha_zero(self):
        clips = self.clips()
        a = training.train_student(clips, clips, quick_config("event_only"), n_scenes=4)
        b = training.train_student(clips, clips, quick_config("mtl_hard", alpha=0.0), n_scenes=4)
        assert json.dumps(a.log, sort_keys=True) == json.dumps(b.log, sort_keys=True)

    def test_one_hot_soft_labels_reproduce_hard_trace(self):
        clips = self.clips()
        one_hot = {}
        for c in clips:
            p = np.zeros(4)
            p[c.scene] = 1.0
            one_hot[c.clip_id] = p
        weight = 0.37
        hard = training.train_student(
            clips, clips, quick_config("mtl_hard", alpha=weight), n_scenes=4
        )
        soft = training.train_student(
            clips, clips, quick_config("mtl_soft", beta=weight, temperature=1.0), n_scenes=4,
            soft_labels=one_hot,
        )
        for ra, rb in zip(hard.log, soft.log):
            for key in ("event", "scene_term", "total"):
                assert abs(ra["train_losses"][key] - rb["train_losses"][key]) < 1e-9

    def test_empty_validation_fold_rejected(self):
        clips = self.clips()
        with pytest.raises(DataError, match="validation fold is empty"):
            training.train_student(clips, [], quick_config("event_only"), n_scenes=4)
        with pytest.raises(DataError, match="validation fold is empty"):
            training.evaluate_student([], 0.5)

    @pytest.mark.parametrize("mode", ["event_only", "mtl_hard", "mtl_soft"])
    def test_training_reduces_loss(self, mode):
        clips = self.clips()[:4]
        soft = None
        if mode == "mtl_soft":
            soft = {c.clip_id: np.full(4, 0.25) for c in clips}
        cfg = quick_config(
            mode, max_epochs=20, learning_rate=3e-3, alpha=0.0001, beta=1.0
        )
        result = training.train_student(clips, clips, cfg, soft_labels=soft, n_scenes=4)
        first = result.log[0]["train_losses"]["total"]
        last = result.log[-1]["train_losses"]["total"]
        assert last < first

    def test_teacher_untouched_by_student_training(self):
        clips = self.clips()
        teacher_cfg = quick_config("teacher", max_epochs=5, patience=2)
        teacher = training.train_teacher(clips, clips, teacher_cfg, n_scenes=4)
        blob_before = teacher.params.blob()
        labels = training.compute_soft_labels(teacher.params, clips, 1.0)
        training.train_student(
            clips, clips, quick_config("mtl_soft", beta=1.0), n_scenes=4, soft_labels=labels
        )
        assert teacher.params.blob() == blob_before


class TestNonFiniteLoss:
    @pytest.mark.parametrize("mode", ["teacher", "event_only"])
    def test_nan_features_stop_training_at_their_batch(self, mode):
        clips = sorted(synthetic_scene_examples().values(), key=lambda c: c.clip_id)
        bad = copy.deepcopy(clips[5])
        bad.features.data[3, 7] = np.nan
        clips[5] = bad
        cfg = quick_config(mode, batch_size=3)
        # one clip per batch item, drawn in the order of the first permutation
        order = np.random.default_rng(cfg.seed).permutation(len(clips))
        batch = int(np.flatnonzero(order == 5)[0]) // 3 + 1
        train = training.train_teacher if mode == "teacher" else training.train_student
        with pytest.raises(
            DataError, match=rf"^{mode} training stopped: loss is nan at epoch 1, batch {batch}$"
        ):
            train(clips, clips, cfg, n_scenes=4)


class TestNonFiniteGradient:
    @pytest.mark.parametrize(
        "mode, name, poisoned_call",
        # with batches of 3, batch 2 is the 2nd backward: the teacher's clips
        # join one tape per batch as sub-tapes, the student's chunks one tape
        [("teacher", "conv2.kernel", 2), ("event_only", "gru.fwd.u_cand", 2)],
    )
    def test_poisoned_gradient_stops_before_the_update(
        self, monkeypatch, mode, name, poisoned_call
    ):
        clips = sorted(synthetic_scene_examples().values(), key=lambda c: c.clip_id)
        init_name = "init_teacher_params" if mode == "teacher" else "init_student_params"
        init = getattr(networks, init_name)
        made = []
        monkeypatch.setattr(networks, init_name, lambda *a: made.append(init(*a)) or made[-1])
        backward = ad.Tape.backward
        calls = []
        before = {}

        def poisoning(tape, loss):
            backward(tape, loss)
            calls.append(1)
            if len(calls) == poisoned_call:
                before.update(made[0].copy_values())
                param = made[0][name]
                param.grad = param.grad.copy()
                param.grad.flat[3] = np.inf

        monkeypatch.setattr(ad.Tape, "backward", poisoning)
        train = training.train_teacher if mode == "teacher" else training.train_student
        with pytest.raises(
            DataError,
            match=rf"^{mode} training stopped: gradient of {name} is not finite "
            r"at epoch 1, batch 2$",
        ):
            train(clips, clips, quick_config(mode, batch_size=3), n_scenes=4)
        after = made[0].copy_values()
        assert all(np.array_equal(after[k], before[k]) for k in before)


def clip_with_frames(clip_id, n_frames, seed, n_events=3):
    rng = np.random.default_rng(seed)
    return ClipExample(
        clip_id=clip_id,
        features=LogMelSpectrogram(data=rng.normal(size=(64, n_frames))),
        scene=0,
        roll=np.zeros((n_events, n_frames)),
    )


class TestStudentPosteriors:
    def params(self):
        return networks.init_student_params(4, 3, seed=21)

    def test_bytes_do_not_depend_on_the_company(self):
        params = self.params()
        target = clip_with_frames("target", 30, seed=0)
        (alone,) = training.student_posteriors(params, target)
        # equal-length clips that fill whole batches: the target is the lone tail
        same = [clip_with_frames(f"c{i}", 30, seed=i + 1) for i in range(2 * networks.INFER_BATCH)]
        tail = training.student_posteriors(params, *same, target)[-1]
        mixed_in = [clip_with_frames("a", 22, 40), target, clip_with_frames("b", 30, 41),
                    clip_with_frames("c", 41, 42), clip_with_frames("d", 30, 43)]
        mixed = training.student_posteriors(params, *mixed_in)[1]
        assert alone.shape == (3, 30)
        assert tail.tobytes() == alone.tobytes()
        assert mixed.tobytes() == alone.tobytes()

    def test_output_keeps_the_input_order(self):
        params = self.params()
        clips = [clip_with_frames(f"c{i}", n, seed=i) for i, n in enumerate((25, 31, 25, 18, 31))]
        together = training.student_posteriors(params, *clips)
        one_by_one = [training.student_posteriors(params, clip)[0] for clip in clips]
        assert [p.shape[1] for p in together] == [25, 31, 25, 18, 31]
        for batched, alone in zip(together, one_by_one, strict=True):
            assert batched.tobytes() == alone.tobytes()

    def test_skips_the_scene_head(self, monkeypatch):
        params = self.params()
        conv2d = ad.conv2d
        kernels = []

        def recording_conv2d(x, kernel, bias, pool):
            kernels.append(kernel)
            return conv2d(x, kernel, bias, pool)

        monkeypatch.setattr(ad, "conv2d", recording_conv2d)
        clips = [clip_with_frames(f"c{i}", 20, seed=i) for i in range(3)]
        training.student_posteriors(params, *clips)
        scene_kernels = [params["scene1.kernel"], params["scene2.kernel"]]
        assert len(kernels) == 3 * len(clips)
        assert not any(k is s for k in kernels for s in scene_kernels)


def mixed_length_clips():
    """17 clips: 9 of 30 frames (a full batch, then a lone clip), 5 of 22, 3 of 41."""
    lengths = [30] * 9 + [22] * 5 + [41] * 3
    order = np.random.default_rng(5).permutation(len(lengths))
    return [clip_with_frames(f"c{i}", lengths[i], seed=i) for i in order]


def recording_threads(monkeypatch, module, name):
    """Wrap module.name to note the thread of each call; returns the notes."""
    original = getattr(module, name)
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return threads


class TestInferenceThreads:
    """Threaded inference gives the bytes of the serial loop."""

    @pytest.fixture
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", 2)

    def test_student_posteriors(self, monkeypatch, two_threads):
        params = networks.init_student_params(4, 3, seed=21)
        clips = mixed_length_clips()
        threads = recording_threads(monkeypatch, networks, "student_trunk")
        pooled = training.student_posteriors(params, *clips)
        assert len(set(threads)) == 2
        monkeypatch.setattr(parallel, "_threads", 1)
        serial = training.student_posteriors(params, *clips)
        for a, b in zip(pooled, serial, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_soft_labels_and_known_logits(self, monkeypatch, two_threads):
        params = networks.init_teacher_params(4, seed=3)
        clips = mixed_length_clips()
        threads = recording_threads(monkeypatch, networks, "teacher_forward")
        pooled = training.compute_soft_labels(params, clips, 2.0)
        assert len(set(threads)) == 2
        monkeypatch.setattr(parallel, "_threads", 1)
        serial = training.compute_soft_labels(params, clips, 2.0)
        assert list(pooled) == list(serial) == [c.clip_id for c in clips]
        assert all(pooled[c].tobytes() == serial[c].tobytes() for c in serial)
        # logits already known for some clips: only the others are forwarded
        known = {
            c.clip_id: networks.teacher_logits(params, [c.features.data])[0].values
            for c in clips[::3]
        }
        threads.clear()
        reused = training.compute_soft_labels(params, clips, 2.0, known)
        assert len(threads) == len(clips) - len(known)
        assert list(reused) == list(serial)
        assert all(reused[c].tobytes() == serial[c].tobytes() for c in serial)


class TestBatchedStudentStep:
    def test_one_tape_matches_the_per_chunk_sum(self):
        rng = np.random.default_rng(30)
        params = networks.init_student_params(4, 3, seed=4)
        feats = [rng.normal(size=(64, 30)) for _ in range(3)]
        rolls = [(rng.random((3, 30)) < 0.3).astype(float) for _ in range(3)]
        masks = [np.ones(30), np.ones(30), np.r_[np.ones(12), np.zeros(18)]]
        scenes = [0, 3, 1]

        def grads(feature_list, roll, mask, scene_ids):
            zero_grads(t for _, t in params.items())
            with ad.Tape() as tape:
                event, scene = networks.student_forward(params, feature_list)
                terms = [
                    losses.scene_hard_loss(s, c)
                    for s, c in zip(scene, scene_ids)
                ]
                loss = losses.joint_objective(
                    losses.event_loss(event, roll, mask), functools.reduce(ad.add, terms), 0.5
                )
            tape.backward(loss)
            return {k: t.grad.copy() for k, t in params.items()}

        batched = grads(feats, np.stack(rolls), np.stack(masks), scenes)
        per_chunk = [
            grads(feats[i : i + 1], rolls[i][None], masks[i][None], scenes[i : i + 1])
            for i in range(3)
        ]
        for name, g in batched.items():
            total = per_chunk[0][name] + per_chunk[1][name] + per_chunk[2][name]
            assert np.abs(g - total).max() <= 1e-10 * np.abs(total).max(), name


def batch_loss_of(monkeypatch, train, *args, **kwargs):
    """(parameters, items, batch loss) that `train` would hand its fit loop."""
    monkeypatch.setattr(
        training, "_fit", lambda config, init, items, val, batch_loss, *rest: (init(), items, batch_loss)
    )
    return train(*args, **kwargs)


def finite_difference_errors(params, batch, batch_loss, eps=1e-6, per_param=4, seed=0):
    """{parameter: error} of one batch loss's taped gradient against central
    differences at a seeded sample of each parameter's entries. The error is
    the largest difference at the sample over the largest analytic gradient
    entry of that parameter (floored at 1e-12)."""
    with ad.Tape() as tape:
        loss = batch_loss(params, batch, collections.defaultdict(int))
    tape.backward(loss)
    rng = np.random.default_rng(seed)
    errors = {}
    for name, t in params.items():
        analytic, t.grad = (np.zeros_like(t.values) if t.grad is None else t.grad), None
        flat = t.values.reshape(-1)
        assert np.shares_memory(flat, t.values)
        worst = 0.0
        for i in rng.choice(flat.size, size=min(per_param, flat.size), replace=False):
            orig = flat[i]
            sides = []
            for value in (orig + eps, orig - eps):
                flat[i] = value
                sides.append(batch_loss(params, batch, collections.defaultdict(int)).item())
            flat[i] = orig
            numeric = (sides[0] - sides[1]) / (2 * eps)
            worst = max(worst, abs(analytic.reshape(-1)[i] - numeric))
        errors[name] = worst / max(np.abs(analytic).max(), 1e-12)
    return errors


class TestWholeStepThroughThreads:
    """One training batch loss, its items recorded on sub-tapes on two
    threads, has the gradient of central differences in every parameter."""

    @pytest.fixture
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", 2)

    @pytest.mark.parametrize("mode", training.STUDENT_MODES)
    def test_student_batch(self, monkeypatch, two_threads, mode):
        clips = [clip_with_frames(f"c{i}", 12, seed=50 + i) for i in range(3)]
        for i, clip in enumerate(clips):
            clip.scene = i
            clip.roll[i % 3, 2:9] = 1.0
        labels = {c.clip_id: np.array([0.5, 0.2, 0.2, 0.1]) for c in clips}
        config = quick_config(mode, alpha=0.7, beta=0.7, temperature=2.0, chunk_len=12)
        params, items, batch_loss = batch_loss_of(
            monkeypatch, training.train_student, clips, clips, config, 4, soft_labels=labels
        )
        assert len(items) == 3
        threads = recording_threads(monkeypatch, networks, "student_trunk")
        errors = finite_difference_errors(params, items, batch_loss)
        assert len(set(threads)) == 2
        assert {"trunk1.kernel", "trunk1.bias", "scene1.kernel"} <= errors.keys()
        assert max(errors.values()) < 1e-4, errors

    def test_teacher_batch_of_clips_of_different_lengths(self, monkeypatch, two_threads):
        clips = [clip_with_frames(f"c{i}", n, seed=60 + i) for i, n in enumerate((12, 17, 23))]
        for i, clip in enumerate(clips):
            clip.scene = i
        params, items, batch_loss = batch_loss_of(
            monkeypatch, training.train_teacher, clips, clips, quick_config("teacher"), 4
        )
        threads = recording_threads(monkeypatch, networks, "teacher_forward")
        errors = finite_difference_errors(params, items, batch_loss)
        assert len(set(threads)) == 2
        assert {"conv1.kernel", "conv1.bias", "out.weight"} <= errors.keys()
        assert max(errors.values()) < 1e-4, errors


class TestSplitIds:
    ASSIGNMENT = {"c": 1, "a": 0, "d": 0, "b": 1}

    def test_fold_minus_one_puts_every_clip_on_both_sides(self):
        everything = ["a", "b", "c", "d"]
        assert training.split_ids(self.ASSIGNMENT, -1) == (everything, everything)

    def test_held_out_fold(self):
        assert training.split_ids(self.ASSIGNMENT, 1) == (["a", "d"], ["b", "c"])

    @pytest.mark.parametrize(
        "assignment, fold", [(ASSIGNMENT, 2), ({"a": 0, "b": 0}, 0), ({}, -1)]
    )
    def test_empty_side_rejected(self, assignment, fold):
        with pytest.raises(DataError, match=f"fold {fold} leaves an empty split"):
            training.split_ids(assignment, fold)


class TestStandardizeSplit:
    def test_stats_come_from_training_ids_only(self):
        examples = synthetic_scene_examples()
        assignment = {c: int(i >= 4) for i, c in enumerate(sorted(examples))}
        train_clips, val_clips, stats = training.standardize_split(examples, assignment, 1)
        assert [c.clip_id for c in train_clips] == sorted(examples)[:4]
        stacked = np.concatenate([c.features.data for c in train_clips], axis=1)
        assert np.abs(stacked.mean(axis=1)).max() < 1e-9
        assert np.abs(stacked.std(axis=1) - 1.0).max() < 1e-9
        pooled = np.concatenate([c.features.data for c in val_clips], axis=1)
        assert np.abs(pooled.mean(axis=1)).max() > 1e-6  # val not re-centered
        again, _, _ = training.standardize_split(examples, assignment, 0, stats)
        assert np.array_equal(again[0].features.data, val_clips[0].features.data)

    def test_fold_minus_one_standardizes_each_clip_once(self):
        examples = synthetic_scene_examples()
        train_clips, val_clips, _ = training.standardize_split(
            examples, {c: 0 for c in examples}, -1
        )
        assert all(a is b for a, b in zip(train_clips, val_clips, strict=True))


VOCABULARY = Vocabulary(scenes=["s0", "s1", "s2", "s3"], events=["a", "b", "c"])


def cv_settings(modes, seeds=(0,), **train):
    """The `train` and `cv` blocks as `sedmtl cv` checks them."""
    base = parse_settings(TrainConfig, train, "train", fixed=training.CV_RUN_FIELDS)
    cv = parse_settings(training.CvConfig, {"modes": modes, "seeds": seeds}, "cv")
    return base, cv


class TestCrossValidation:
    def test_run_count_and_determinism(self):
        examples = synthetic_scene_examples(clips_per_scene=1)
        split = {c: i % 2 for i, c in enumerate(sorted(examples))}
        modes = ["event_only", "mtl_soft"]
        base, cv = cv_settings(
            modes, alpha=0.0001, beta=1.0, temperature=1.0, learning_rate=1e-3,
            batch_size=8, max_epochs=2, patience=5, chunk_len=50,
        )
        out = training.run_cross_validation(examples, split, base, cv, VOCABULARY)
        assert len(out["runs"]) == 2 * 1 * len(modes)
        for mode in modes:
            assert out["aggregate"][mode]["n_runs"] == 2
        rerun = training.run_cross_validation(examples, split, base, cv, VOCABULARY)
        assert json.dumps(out, sort_keys=True, default=str) == json.dumps(
            rerun, sort_keys=True, default=str
        )

    def test_per_event_rows_cover_all_events(self):
        examples = synthetic_scene_examples(clips_per_scene=1)
        split = {c: i % 2 for i, c in enumerate(sorted(examples))}
        base, cv = cv_settings(["event_only"], max_epochs=1, batch_size=8, chunk_len=50)
        out = training.run_cross_validation(examples, split, base, cv, VOCABULARY)
        for run in out["runs"]:
            assert [r["event"] for r in run["per_event"]] == ["a", "b", "c"]

    def test_worker_pool_matches_sequential(self):
        examples = synthetic_scene_examples(clips_per_scene=1)
        split = {c: i % 2 for i, c in enumerate(sorted(examples))}
        base, cv = cv_settings(["event_only"], max_epochs=1, batch_size=8, chunk_len=50)
        sequential = training.run_cross_validation(
            examples, split, base, cv, VOCABULARY, workers=1
        )
        parallel = training.run_cross_validation(
            examples, split, base, cv, VOCABULARY, workers=2
        )
        assert json.dumps(sequential, sort_keys=True, default=str) == json.dumps(
            parallel, sort_keys=True, default=str
        )

    def test_worker_processes_after_threaded_inference(self):
        # A forked worker inherits the parent's thread pool without its
        # threads; it must run its inference serially instead of waiting on
        # them. A fresh process keeps a hang from stalling the suite.
        tests = Path(__file__).resolve().parent
        code = f"""
import json, sys
sys.path.insert(0, {str(tests)!r})
from sedmtl import networks, parallel, training
from test_training import VOCABULARY, clip_with_frames, cv_settings, synthetic_scene_examples

parallel._threads = 2
params = networks.init_student_params(4, 3, seed=0)
training.student_posteriors(params, *[clip_with_frames(f"c{{i}}", 20, i) for i in range(4)])
examples = synthetic_scene_examples(clips_per_scene=1)
split = {{c: i % 2 for i, c in enumerate(sorted(examples))}}
base, cv = cv_settings(["event_only"], max_epochs=1, batch_size=8, chunk_len=50)
runs = [
    training.run_cross_validation(examples, split, base, cv, VOCABULARY, workers=w)
    for w in (1, 2)
]
print(json.dumps([json.dumps(r, sort_keys=True, default=str) for r in runs]))
"""
        src = str(tests.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # its own session, so a hang's forked workers are killed with it
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("cross-validation workers hung after threaded inference")
        assert proc.returncode == 0, err
        sequential, parallel = json.loads(out)
        assert parallel == sequential

    def test_worker_count_clamped_to_runs_and_cpus(self, monkeypatch):
        import multiprocessing

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(parallel, "threads", lambda: 3)  # cores this process may use
        examples = synthetic_scene_examples(clips_per_scene=1)
        split = {c: i % 2 for i, c in enumerate(sorted(examples))}
        for seeds in ([0, 1], [0]):  # 4 runs, then 2
            base, cv = cv_settings(
                ["event_only"], seeds, max_epochs=1, batch_size=8, chunk_len=50
            )
            training.run_cross_validation(examples, split, base, cv, VOCABULARY, workers=64)
        assert sizes == [3, 2]

