import contextlib
import functools
import gc
import hashlib
import re
import struct
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import losses, networks, parallel
from sedmtl.errors import DataError, DimensionError

from gradcheck import weighted_sum, zero_grads


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
            for (_, ta), (_, tb) in zip(a.items(), b.items())
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

    # (name, shape) of each parameter in declaration order, with 4 scenes and
    # 5 events: the checkpoint's manifest and blob order, and the order in
    # which init draws from its RNG
    TEACHER_MANIFEST = [
        ("conv1.kernel", (128, 1, 3, 3)), ("conv1.bias", (128,)),
        ("conv2.kernel", (128, 128, 3, 3)), ("conv2.bias", (128,)),
        ("conv3.kernel", (128, 128, 3, 3)), ("conv3.bias", (128,)),
        ("out.weight", (128, 4)), ("out.bias", (4,)),
    ]
    STUDENT_MANIFEST = [
        ("trunk1.kernel", (128, 1, 3, 3)), ("trunk1.bias", (128,)),
        ("trunk2.kernel", (128, 128, 3, 3)), ("trunk2.bias", (128,)),
        ("trunk3.kernel", (128, 128, 3, 3)), ("trunk3.bias", (128,)),
        ("scene1.kernel", (64, 128, 3, 3)), ("scene1.bias", (64,)),
        ("scene2.kernel", (16, 64, 3, 3)), ("scene2.bias", (16,)),
        ("scene_out.weight", (16, 4)), ("scene_out.bias", (4,)),
        *(
            (f"gru.{d}.{kind}_{gate}", shape)
            for d in ("fwd", "bwd")
            for kind, shape in (("w", (128, 32)), ("u", (32, 32)), ("b", (32,)))
            for gate in ("update", "reset", "cand")
        ),
        ("event_hidden.weight", (64, 32)), ("event_hidden.bias", (32,)),
        ("event_out.weight", (32, 5)), ("event_out.bias", (5,)),
    ]

    def test_parameter_manifests_pinned(self):
        teacher = networks.init_teacher_params(4, seed=0)
        student = networks.init_student_params(4, 5, seed=0)
        assert [(n, t.shape) for n, t in teacher.items()] == self.TEACHER_MANIFEST
        assert [(n, t.shape) for n, t in student.items()] == self.STUDENT_MANIFEST

    def test_parameter_count_deterministic(self):
        teacher = networks.init_teacher_params(4, seed=0)
        conv = 128 * 1 * 9 + 128 + 2 * (128 * 128 * 9 + 128)
        assert sum(t.size for _, t in teacher.items()) == conv + 128 * 4 + 4


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
        event_logits, scene_logits = networks.student_forward(params, [random_features(57)])
        assert event_logits.values.shape == (1, 25, 57)
        assert [s.values.shape for s in scene_logits] == [(4,)]

    def test_batch_shapes_and_skipped_scene_head(self):
        params = networks.init_student_params(4, 5, seed=10)
        feats = [random_features(37, seed=s) for s in range(3)]
        event_logits, scene_logits = networks.student_forward(params, feats)
        assert event_logits.values.shape == (3, 5, 37)
        assert [s.values.shape for s in scene_logits] == [(4,)] * 3
        events_only, no_scene = networks.student_forward(params, feats, scene=False)
        assert no_scene is None
        assert events_only.values.tobytes() == event_logits.values.tobytes()

    def test_repeated_matrix_runs_the_trunk_once(self, monkeypatch):
        params = networks.init_student_params(4, 5, seed=10)
        feats = random_features(37)
        trunk = networks.student_trunk
        calls = []

        def counting(params, features):
            calls.append(features)
            return trunk(params, features)

        monkeypatch.setattr(networks, "student_trunk", counting)
        event_logits, _ = networks.student_forward(params, [feats, feats], scene=False)
        assert len(calls) == 1
        assert event_logits.values[0].tobytes() == event_logits.values[1].tobytes()

    def test_scene_head_time_reduction(self):
        # 500 frames -> pool 10 -> 50 -> pool 5 -> 10 positions before the mean
        params = networks.init_student_params(4, 25, seed=9)
        trunk = networks.student_trunk(params, random_features(500))
        scene = networks._conv_stack(trunk, params, networks.SCENE_CONVS)
        assert trunk.values.shape == (128, 1, 500)
        assert scene.values.shape == (16, 1, 10)

    def test_zero_input_zero_bias_gives_sigmoid_half(self):
        params = networks.init_student_params(4, 5, seed=10)
        event_logits, _ = networks.student_forward(params, [np.zeros((64, 20))])
        assert_allclose(event_logits.values, 0.0, atol=1e-12)
        assert_allclose(
            networks.event_posteriors(params, [np.zeros((64, 20))])[0], 0.5, atol=1e-12
        )

    def test_outputs_finite_for_bounded_inputs(self):
        params = networks.init_student_params(4, 25, seed=11)
        teacher = networks.init_teacher_params(4, seed=11)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            feats = rng.uniform(-10, 10, size=(64, 30))
            ev, sc = networks.student_forward(params, [feats])
            assert np.isfinite(ev.values).all()
            assert np.isfinite(sc[0].values).all()
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
        zero_grads(t for _, t in params.items())
        with ad.Tape() as tape:
            event_logits, scene_logits = networks.student_forward(params, [feats])
            loss = losses.joint_objective(
                losses.event_loss(event_logits, roll[None], np.ones((1, 25))),
                losses.scene_hard_loss(scene_logits[0], 1),
                1.0,
            )
        tape.backward(loss)
        for name, t in params.items():
            assert t.grad is not None, name
            assert np.any(t.grad != 0.0), name


@pytest.fixture
def three_threads(monkeypatch):
    """The caller plus two helper threads, whatever this machine's core count."""
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(parallel, "_threads", 3)
    monkeypatch.setattr(parallel, "_pool", pool)
    yield
    pool.shutdown()


class TestThreadMap:
    def test_results_keep_the_input_order(self, three_threads):
        threads = set()

        def square(x):
            threads.add(threading.get_ident())
            return x * x

        assert parallel._thread_map(square, range(7)) == [x * x for x in range(7)]
        assert len(threads) > 1

    @pytest.mark.parametrize("bad, first", [((4, 6, 8), 4), ((1, 5, 7), 1), ((8,), 8)])
    def test_first_failing_item_in_input_order_wins(self, three_threads, bad, first):
        def fail_on_bad(x):
            if x in bad:  # the shares are items 0-2 (the caller's), 3-5 and 6-8
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"^item {first}$"):
            parallel._thread_map(fail_on_bad, range(9))
        assert parallel._thread_map(fail_on_bad, [0, 2, 3]) == [0, 2, 3]

    def test_bad_clip_in_a_helper_share_raises_its_own_error(self, three_threads):
        params = networks.init_student_params(4, 5, seed=10)
        feats = [random_features(20, seed=s) for s in range(5)]
        feats[4] = feats[4][:32]  # in the last share, run by a helper
        with pytest.raises(DimensionError, match=r"got shape \(32, 20\)"):
            networks.student_forward(params, feats, scene=False)

    def test_taped_trunks_run_on_every_thread(self, three_threads, monkeypatch):
        params = networks.init_student_params(4, 5, seed=10)
        trunk = networks.student_trunk
        threads = []

        def recording(params, features):
            threads.append(threading.get_ident())
            return trunk(params, features)

        monkeypatch.setattr(networks, "student_trunk", recording)
        feats = [random_features(20, seed=s) for s in range(5)]
        for taped in (True, False):
            threads.clear()
            with ad.Tape() if taped else contextlib.nullcontext():
                networks.student_forward(params, feats)
            assert len(threads) == 5 and len(set(threads)) > 1

    def test_helper_shares_keep_the_callers_error_state(self, two_threads):
        def exp(x):  # the second item, in the helper's share, overflows
            return np.exp(np.float64(x))

        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            parallel._thread_map(exp, [0.0, 1000.0])
        with np.errstate(over="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parallel._thread_map(exp, [0.0, 1000.0]) == [1.0, np.inf]
        assert caught == []

    def test_serial_with_one_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", 1)
        threads = parallel._thread_map(lambda _: threading.get_ident(), range(4))
        assert threads == [threading.get_ident()] * 4


@pytest.fixture
def two_threads(monkeypatch):
    """The caller plus one helper thread, whatever this machine's core
    count; yields the helper's pool."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(parallel, "_threads", 2)
    monkeypatch.setattr(parallel, "_pool", pool)
    yield pool
    pool.shutdown()


TRUNK_PARAMS = [f"trunk{k}.{kind}" for k in (1, 2, 3) for kind in ("kernel", "bias")]


class TestTapedMap:
    """Per-item sub-tapes on threads give the gradient bits of the serial tapes."""

    @staticmethod
    def grads(params):
        return {name: t.grad.tobytes() for name, t in params.items() if t.grad is not None}

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 16])
    def test_trunk_gradients_equal_one_serial_tape(self, two_threads, n_chunks):
        params = networks.init_student_params(4, 3, seed=8)
        rng = np.random.default_rng(n_chunks)
        feats = [rng.normal(size=(64, 12)) for _ in range(n_chunks)]
        weights = rng.uniform(0.5, 1.5, size=(n_chunks, 128, 1, 12))
        found = []
        for trunks in (
            lambda: [networks.student_trunk(params, f) for f in feats],
            lambda: networks._taped_map(networks.student_trunk, feats, params),
        ):
            zero_grads(t for _, t in params.items())
            with ad.Tape() as tape:
                loss = weighted_sum(ad.stack(trunks(), axis=0), weights)
            tape.backward(loss)
            found.append(self.grads(params))
        assert sorted(found[1]) == sorted(TRUNK_PARAMS)
        assert found[1] == found[0]

    def test_first_item_first_equals_one_tape_per_item(self, two_threads):
        params = networks.init_teacher_params(4, seed=3)
        rng = np.random.default_rng(4)
        feats = [rng.normal(size=(64, n)) for n in (30, 22, 41, 30, 17)]

        def loss_of(p, f):
            return weighted_sum(networks.teacher_forward(p, f))

        zero_grads(t for _, t in params.items())
        for f in feats:
            with ad.Tape() as tape:
                loss = loss_of(params, f)
            tape.backward(loss)
        serial = self.grads(params)
        zero_grads(t for _, t in params.items())
        with ad.Tape() as tape:
            losses = networks._taped_map(loss_of, feats, params, last_first=False)
            loss = functools.reduce(ad.add, losses)
        tape.backward(loss)
        assert len(serial) == len(params.items())
        assert self.grads(params) == serial

    @pytest.mark.parametrize("bad, first", [((1, 3), 1), ((3,), 3)])
    def test_failing_item_raises_its_error_and_leaves_no_tape(self, two_threads, bad, first):
        params = networks.init_student_params(4, 3, seed=8)

        def trunk(p, i):
            if i in bad:  # items 0-1 run on the caller's thread, 2-3 on the helper
                raise ValueError(f"item {i}")
            return networks.student_trunk(p, np.ones((64, 8)))

        with pytest.raises(ValueError, match=f"^item {first}$"):
            with ad.Tape():
                networks._taped_map(trunk, range(4), params)
        assert ad._ACTIVE_TAPE is None

        def record_one():
            with ad.Tape() as tape:
                ad.relu(ad.Tensor([1.0]))
            return len(tape)

        assert record_one() == 1  # the caller's thread
        assert two_threads.submit(record_one).result() == 1  # the helper's
        assert ad._ACTIVE_TAPE is None


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
        event_logits, scene_logits = networks.student_forward(student, [feats])
        outputs = (event_logits, scene_logits[0], networks.teacher_forward(teacher, feats))
        digests = tuple(hashlib.sha256(t.values.tobytes()).hexdigest() for t in outputs)
        assert digests == self.DIGESTS[n_frames]


class TestConvBlock:
    def test_taped_block_releases_its_conv_output(self, monkeypatch):
        params = networks.init_student_params(4, 5, seed=17)
        x = ad.Tensor(np.random.default_rng(6).normal(size=(128, 1, 30)))
        block = networks.SCENE_CONVS[:1]
        kernel, bias = params["scene1.kernel"], params["scene1.bias"]
        pool = block[0][3]
        maxpool2d = ad.maxpool2d
        conv_values = []

        def recording_maxpool2d(conv, *pool):
            conv_values.append(weakref.ref(conv.values))
            return maxpool2d(conv, *pool)

        monkeypatch.setattr(ad, "maxpool2d", recording_maxpool2d)
        with ad.Tape() as tape:
            loss = weighted_sum(networks._conv_stack(x, params, block))
        gc.collect()
        assert len(conv_values) == 1 and conv_values[0]() is None
        tape.backward(loss)
        released = [t.grad.tobytes() for t in (x, kernel, bias)]

        # the same block with the conv output kept alive gives the same bits
        zero_grads([x, kernel, bias])
        with ad.Tape() as tape:
            loss = weighted_sum(ad.relu(maxpool2d(ad.conv2d(x, kernel, bias), *pool)))
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
        assert [n for n, _ in loaded.items()] == [n for n, _ in params.items()]
        for (_, a), (_, b) in zip(params.items(), loaded.items()):
            assert np.array_equal(a.values, b.values)
        digest = hashlib.sha256(params.blob()).hexdigest()
        assert hashlib.sha256(loaded.blob()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda good: good[:7], "checkpoint ends before its header length"),
            (lambda good: good[:200], r"checkpoint header of \d+ bytes runs past the end"),
            (lambda good: good[:9] + b"\xff" + good[10:], "checkpoint header is not valid JSON: 'utf"),
            (lambda good: good[:9] + b"]" + good[10:], "checkpoint header is not valid JSON: Exp"),
            (lambda good: header(b'{"kind": "teacher"}'), "checkpoint header has no 'params' list"),
            (lambda good: header(b'{"params": 3}'), "checkpoint header has no 'params' list"),
            (lambda good: header(b"[1, 2]"), "checkpoint header has no 'params' list"),
            (lambda good: header(b'{"params": [["a", [1]], 1]}'),
             r"checkpoint params\[1\] is 1, not a \[name, shape\] pair"),
            (lambda good: header(b'{"params": [["a", [-1]]]}'),
             r"checkpoint params\[0\] is \['a', \[-1\]\], not a \[name, shape\] pair"),
            (lambda good: header(b'{"params": [["a", []], ["a", [2]]]}'),
             "checkpoint names a parameter more than once"),
            (lambda good: good[:-8],
             "checkpoint parameters hold 296964 values, but 2375704 bytes follow the header"),
            (lambda good: good + bytes(8),
             "checkpoint parameters hold 296964 values, but 2375720 bytes follow the header"),
        ],
        ids=["short", "cut-in-header", "not-utf8", "not-json", "no-params", "params-number", "list",
             "params-entry", "negative-size", "duplicate-name", "cut-in-blob", "trailing-bytes"],
    )
    def test_damaged_header_names_the_file(self, tmp_path, damage, problem):
        path = tmp_path / "teacher.ckpt"
        params = networks.init_teacher_params(4, seed=15)
        networks.save_checkpoint(path, params, {"kind": "teacher"})
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {problem}"):
            networks.load_checkpoint(path)


def header(text: bytes) -> bytes:
    """A checkpoint that is only the magic and the header `text`."""
    return networks.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text
