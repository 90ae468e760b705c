import gc
import hashlib
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import losses, networks
from sedmtl.errors import DimensionError
from sedmtl.losses import SceneTarget


def random_features(n_frames, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=(64, n_frames))


class TestInit:
    def test_same_seed_identical(self):
        a = networks.init_student_params(4, 25, seed=11)
        b = networks.init_student_params(4, 25, seed=11)
        for (na, ta), (nb, tb) in zip(a.items(), b.items()):
            assert na == nb
            assert np.array_equal(ta.values, tb.values)

    def test_different_seeds_differ(self):
        a = networks.init_teacher_params(4, seed=1)
        b = networks.init_teacher_params(4, seed=2)
        assert any(
            not np.array_equal(ta.values, tb.values)
            for ta, tb in zip(a.tensors(), b.tensors())
        )

    def test_weights_within_fan_based_limit(self):
        params = networks.init_student_params(4, 25, seed=3)
        for name, t in params.items():
            assert np.isfinite(t.values).all()
            if name.endswith(".bias") or name.startswith(("gru.fwd.b", "gru.bwd.b")):
                assert not t.values.any()
            elif t.values.ndim == 4:
                c_out, c_in = t.values.shape[:2]
                limit = np.sqrt(6.0 / (c_in * 9 + c_out * 9))
                assert np.abs(t.values).max() <= limit
            elif t.values.ndim == 2:
                n_in, n_out = t.values.shape
                limit = np.sqrt(6.0 / (n_in + n_out))
                assert np.abs(t.values).max() <= limit

    def test_parameter_count_deterministic(self):
        teacher = networks.init_teacher_params(4, seed=0)
        conv = 128 * 1 * 9 + 128 + 2 * (128 * 128 * 9 + 128)
        assert sum(t.size for t in teacher.tensors()) == conv + 128 * 4 + 4


class TestTeacherForward:
    def test_zero_output_layer_gives_uniform_softmax(self):
        params = networks.init_teacher_params(4, seed=4)
        params["out.weight"].values[:] = 0.0
        logits = networks.teacher_forward(params, random_features(32))
        assert_allclose(logits.values, 0.0)
        p = losses.distill_targets(logits.values, 1.0)
        assert_allclose(p, 0.25)

    @pytest.mark.parametrize("n_frames", [8, 49, 100])
    def test_output_length_c(self, n_frames):
        params = networks.init_teacher_params(4, seed=5)
        logits = networks.teacher_forward(params, random_features(n_frames))
        assert logits.values.shape == (4,)

    def test_deterministic(self):
        params = networks.init_teacher_params(4, seed=6)
        feats = random_features(40, seed=1)
        a = networks.teacher_forward(params, feats).values
        b = networks.teacher_forward(params, feats).values
        assert np.array_equal(a, b)

    def test_wrong_band_count(self):
        params = networks.init_teacher_params(4, seed=7)
        with pytest.raises(DimensionError):
            networks.teacher_forward(params, np.zeros((32, 10)))


class TestStudentForward:
    def test_output_shapes(self):
        params = networks.init_student_params(4, 25, seed=8)
        event_logits, scene_logits = networks.student_forward(params, random_features(57))
        assert event_logits.values.shape == (25, 57)
        assert scene_logits.values.shape == (4,)

    def test_batch_shapes_and_batch_of_one_bytes(self):
        params = networks.init_student_params(4, 5, seed=10)
        feats = [random_features(37, seed=s) for s in range(3)]
        event_logits, scene_logits = networks.student_forward(params, feats)
        assert event_logits.values.shape == (3, 5, 37)
        assert [s.values.shape for s in scene_logits] == [(4,)] * 3
        single_event, single_scene = networks.student_forward(params, feats[1])
        one_event, one_scene = networks.student_forward(params, [feats[1]])
        assert one_event.values[0].tobytes() == single_event.values.tobytes()
        assert one_scene[0].values.tobytes() == single_scene.values.tobytes()

    def test_scene_head_time_reduction(self):
        # 500 frames -> pool 10 -> 50 -> pool 5 -> 10 positions before the mean
        params = networks.init_student_params(4, 25, seed=9)
        trunk = networks.student_trunk(params, random_features(500))
        scene = trunk
        for i, pool in enumerate(networks.SCENE_POOLS):
            scene = networks._conv_block(scene, params, f"scene{i + 1}", pool)
        assert trunk.values.shape == (128, 1, 500)
        assert scene.values.shape == (16, 1, 10)

    def test_zero_input_zero_bias_gives_sigmoid_half(self):
        params = networks.init_student_params(4, 5, seed=10)
        event_logits, _ = networks.student_forward(params, np.zeros((64, 20)))
        assert_allclose(event_logits.values, 0.0, atol=1e-12)
        assert_allclose(
            ad.sigmoid(event_logits).values, 0.5, atol=1e-12
        )

    def test_outputs_finite_for_bounded_inputs(self):
        params = networks.init_student_params(4, 25, seed=11)
        teacher = networks.init_teacher_params(4, seed=11)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            feats = rng.uniform(-10, 10, size=(64, 30))
            ev, sc = networks.student_forward(params, feats)
            assert np.isfinite(ev.values).all()
            assert np.isfinite(sc.values).all()
            assert np.isfinite(networks.teacher_forward(teacher, feats).values).all()

    def test_trunk_time_equivariance(self):
        params = networks.init_student_params(4, 25, seed=12)
        feats = random_features(40, seed=2)
        shifted = np.concatenate([feats[:, :1], feats[:, :-1]], axis=1)
        out = networks.student_trunk(params, feats).values[:, 0, :]
        out_shifted = networks.student_trunk(params, shifted).values[:, 0, :]
        # interior columns, clear of the conv stack's receptive-field border
        assert out_shifted[:, 4:-4].shape == (128, 32)
        assert_allclose(out_shifted[:, 4:-4], out[:, 3:-5], atol=1e-9)

    def test_gradient_reaches_every_parameter(self):
        params = networks.init_student_params(3, 4, seed=13)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(64, 25))
        roll = (rng.random((4, 25)) < 0.5).astype(float)
        ad.zero_grads(params.tensors())
        with ad.Tape() as tape:
            event_logits, scene_logits = networks.student_forward(params, feats)
            loss = losses.mtl_objective(
                losses.event_loss(event_logits, roll),
                losses.scene_hard_loss(scene_logits, SceneTarget.one_hot(1, 3)),
                alpha=1.0,
            )
        tape.backward(loss)
        for name, t in params.items():
            assert t.grad is not None, name
            assert np.any(t.grad != 0.0), name


class TestForwardBits:
    # sha256 of the outputs of seeded networks, recorded with the earlier
    # (channels, frames, bands) conv layout: band-major activations must not
    # move a forward bit (with one BLAS thread, on the numpy/BLAS build that
    # the pinned report digest in test_cli assumes)
    DIGESTS = {
        49: (
            "d7474d622bbc473bceb088b3abc13fe973413a3143066aa9d8d8f7f0bea3f420",
            "65d128fea4e9b1fa565ab4cb605325218db6f881f17314a98d8ed7f89bc3610a",
            "6fc682939fdadc0c3a988e916940eb4f8fea1937fc3d54d0acf8a212b50760d2",
        ),
        37: (
            "7d6d4e0e9969814d43cc4b38a48c63be685caa2c2268ec6742125893350eb770",
            "245a7f347a267ce6902107735c009904cef9192884a90a087ac5aba4f2b3f213",
            "84941fa6b8ad3131ab455983418fe6ab491b4505a7f1e91d18ebf286a923d65f",
        ),
    }

    @pytest.mark.parametrize("n_frames", sorted(DIGESTS))
    def test_forward_bytes_pinned(self, n_frames):
        student = networks.init_student_params(4, 5, seed=16)
        teacher = networks.init_teacher_params(4, seed=16)
        feats = np.random.default_rng(n_frames).normal(size=(64, n_frames))
        event_logits, scene_logits = networks.student_forward(student, feats)
        outputs = (event_logits, scene_logits, networks.teacher_forward(teacher, feats))
        digests = tuple(hashlib.sha256(t.values.tobytes()).hexdigest() for t in outputs)
        assert digests == self.DIGESTS[n_frames]


class TestConvBlock:
    def test_taped_block_releases_its_conv_output(self, monkeypatch):
        params = networks.init_student_params(4, 5, seed=17)
        x = ad.tensor(np.random.default_rng(6).normal(size=(128, 1, 30)))
        kernel, bias = params["scene1.kernel"], params["scene1.bias"]
        pool = networks.SCENE_POOLS[0]
        conv2d = ad.conv2d
        conv_values = []

        def recording_conv2d(*args):
            out = conv2d(*args)
            conv_values.append(weakref.ref(out.values))
            return out

        monkeypatch.setattr(ad, "conv2d", recording_conv2d)
        with ad.Tape() as tape:
            loss = ad.sum_all(networks._conv_block(x, params, "scene1", pool))
        gc.collect()
        assert len(conv_values) == 1 and conv_values[0]() is None
        tape.backward(loss)
        released = [t.grad.tobytes() for t in (x, kernel, bias)]

        # the same block with the conv output kept alive gives the same bits
        ad.zero_grads([x, kernel, bias])
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.relu(ad.maxpool2d(conv2d(x, kernel, bias), *pool)))
        tape.backward(loss)
        assert released == [t.grad.tobytes() for t in (x, kernel, bias)]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = networks.init_student_params(4, 25, seed=14)
        meta = {"kind": "student", "n_scenes": 4, "n_events": 25, "seed": 14}
        path = tmp_path / "student.ckpt"
        networks.save_checkpoint(path, params, meta)
        loaded, loaded_meta = networks.load_checkpoint(path)
        assert loaded_meta == meta
        assert loaded.names() == params.names()
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.values, b.values)
        assert loaded.checksum() == params.checksum()

    def test_forward_identical_after_reload(self, tmp_path):
        params = networks.init_teacher_params(4, seed=15)
        path = tmp_path / "teacher.ckpt"
        networks.save_checkpoint(path, params, {"kind": "teacher"})
        loaded, _ = networks.load_checkpoint(path)
        feats = random_features(24, seed=4)
        assert np.array_equal(
            networks.teacher_forward(params, feats).values,
            networks.teacher_forward(loaded, feats).values,
        )

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            networks.load_checkpoint(path)
