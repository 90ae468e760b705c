import ast
import dataclasses
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import features as feat
from sedmtl import training
from sedmtl.errors import ArgumentError, DataError

from gradcheck import recording_ops

PACKAGE = Path(feat.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def make_waveform(seconds, sample_rate=44100, value=0.0):
    n = int(round(seconds * sample_rate))
    return feat.Waveform(samples=np.full(n, value), sample_rate=sample_rate)


class TestFrameSignal:
    def test_one_second_at_44100(self):
        frames = feat.frame_signal(make_waveform(1.0))
        assert frames.shape[0] == 49

    def test_exactly_one_frame(self):
        frames = feat.frame_signal(make_waveform(0.040))
        assert frames.shape == (1, 1764)

    def test_below_minimum_errors(self):
        with pytest.raises(ArgumentError, match="1764"):
            feat.frame_signal(make_waveform(0.039))

    def test_frame_count_formula_random_lengths(self):
        rng = np.random.default_rng(0)
        sr = 16000
        frame_len = int(round(0.040 * sr))
        hop = int(round(0.020 * sr))
        for _ in range(1000):
            n = int(rng.integers(frame_len, 8 * sr))
            w = feat.Waveform(samples=np.zeros(n), sample_rate=sr)
            frames = feat.frame_signal(w)
            assert frames.shape[0] == 1 + (n - frame_len) // hop

    def test_hamming_window_applied(self):
        w = feat.Waveform(samples=np.ones(1764), sample_rate=44100)
        frames = feat.frame_signal(w)
        assert_allclose(frames[0], np.hamming(1764))

    @pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000])
    def test_strided_frames_equal_an_index_gather(self, sample_rate):
        """The window view multiplies the very samples the index gather of
        every frame's sample offsets picks, so the frames are equal bit for bit."""
        rng = np.random.default_rng(sample_rate)
        frame_len = int(round(feat.FRAME_LEN_S * sample_rate))
        hop = int(round(feat.HOP_S * sample_rate))
        for n in (frame_len, frame_len + hop - 1, frame_len + hop, 3 * sample_rate + 7):
            w = feat.Waveform(samples=rng.uniform(-1, 1, n), sample_rate=sample_rate)
            n_frames = 1 + (n - frame_len) // hop
            idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
            assert np.array_equal(feat.frame_signal(w), w.samples[idx] * np.hamming(frame_len))


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert_allclose(feat.power_spectrum(np.zeros(640), 1024), 0.0)

    def test_sinusoid_energy_concentration(self):
        # Windowed sinusoid at an FFT bin center: the Hamming main lobe keeps
        # essentially all energy within one bin of the target.
        sr, n = 16000, 1024
        k = 200
        t = np.arange(n) / sr
        frame = np.sin(2 * np.pi * (k * sr / n) * t) * np.hamming(n)
        spec = feat.power_spectrum(frame, n)
        neighborhood = spec[k - 1 : k + 2].sum()
        assert int(np.argmax(spec)) == k
        assert neighborhood >= 0.9 * spec.sum()

    def test_parseval(self):
        rng = np.random.default_rng(1)
        n = 1024
        frame = rng.normal(size=n)
        spec = feat.power_spectrum(frame, n)
        # positive-half spectrum: double interior bins, keep DC and Nyquist once
        total = spec[0] + spec[-1] + 2.0 * spec[1:-1].sum()
        assert_allclose(total / n, (frame**2).sum(), rtol=1e-6)


def band_edges_hz(sample_rate):
    """The N_MEL_BANDS + 2 filter edges, equally spaced in mel from 0 Hz to
    Nyquist."""
    top = feat.hz_to_mel(sample_rate / 2.0)
    return feat.mel_to_hz(np.linspace(0.0, top, feat.N_MEL_BANDS + 2))


class TestMelFilterbank:
    def test_centers_equally_spaced_on_mel_scale(self):
        # each band peaks at the FFT bin next to its center edge
        weights = feat.build_mel_filterbank(44100, 2048)
        assert weights.shape == (feat.N_MEL_BANDS, 1025)
        bin_hz = np.arange(1025) * 44100 / 2048
        centers = band_edges_hz(44100)[1:-1]
        peaks = bin_hz[np.argmax(weights, axis=1)]
        assert np.abs(peaks - centers).max() < 44100 / 2048

    def test_full_coverage_between_first_and_last_center(self):
        weights = feat.build_mel_filterbank(44100, 2048)
        bin_hz = np.arange(weights.shape[1]) * 44100 / 2048
        edges = band_edges_hz(44100)
        covered = weights.sum(axis=0) > 0
        inside = (bin_hz >= edges[1]) & (bin_hz <= edges[-2])
        assert covered[inside].all()
        # nothing outside the outer edges
        assert not covered[(bin_hz <= edges[0]) | (bin_hz >= edges[-1])].any()

    def test_rows_nonnegative_peak_exactly_one_unimodal(self):
        for sr, bins in ((16000, 1024), (44100, 2048)):
            weights = feat.build_mel_filterbank(sr, bins)
            assert (weights >= 0).all()
            for row in weights:
                assert row.max() == 1.0
                peak = int(np.argmax(row))
                assert (np.diff(row[: peak + 1]) >= 0).all()
                assert (np.diff(row[peak:]) <= 0).all()

    def test_too_low_a_sample_rate_is_rejected(self):
        # at 1 kHz the lowest bands are narrower than one 15.6 Hz FFT bin
        with pytest.raises(ArgumentError, match="mel band 0 spans no FFT bin at 1000 Hz"):
            feat.log_mel_energy(make_waveform(0.5, sample_rate=1000))

    def test_built_once_per_rate_and_size_and_read_only(self):
        weights = feat.build_mel_filterbank(16000, 1024)
        assert feat.build_mel_filterbank(16000, 1024) is weights
        assert feat.build_mel_filterbank(16000, 2048) is not weights
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 2.0
        for _ in range(2):  # a rejected rate is not cached: it fails every time
            with pytest.raises(ArgumentError, match="mel band 0 spans no FFT bin at 1000 Hz"):
                feat.build_mel_filterbank(1000, 64)


class TestLogMelEnergy:
    def test_silence(self):
        out = feat.log_mel_energy(make_waveform(0.5, sample_rate=16000))
        assert_allclose(out.data, np.log(1e-10))

    def test_output_shape_one_second_44100(self):
        rng = np.random.default_rng(2)
        w = feat.Waveform(samples=rng.uniform(-0.5, 0.5, 44100), sample_rate=44100)
        out = feat.log_mel_energy(w)
        assert out.data.shape == (64, 49)

    def test_doubling_amplitude_adds_ln4(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.4, 0.4, 16000)
        w1 = feat.Waveform(samples=samples, sample_rate=16000)
        w2 = feat.Waveform(samples=2.0 * samples, sample_rate=16000)
        d1, d2 = feat.log_mel_energy(w1).data, feat.log_mel_energy(w2).data
        strong = d1 > np.log(1e-6)  # energy well above the floor
        assert_allclose(d2[strong] - d1[strong], np.log(4.0), atol=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-0.5, 0.5, 16000)
        w = feat.Waveform(samples=samples, sample_rate=16000)
        a = feat.log_mel_energy(w).data
        b = feat.log_mel_energy(w).data
        assert np.array_equal(a, b)

    def test_hop_shift_moves_columns(self):
        rng = np.random.default_rng(5)
        sr = 16000
        samples = rng.uniform(-0.5, 0.5, 2 * sr)
        hop = int(round(0.020 * sr))
        full = feat.log_mel_energy(feat.Waveform(samples=samples, sample_rate=sr))
        shifted = feat.log_mel_energy(
            feat.Waveform(samples=samples[hop:], sample_rate=sr)
        )
        n = shifted.data.shape[1]
        assert np.array_equal(full.data[:, 1 : n + 1], shifted.data)


class TestStandardize:
    def test_identity_stats(self):
        rng = np.random.default_rng(6)
        spec = feat.LogMelSpectrogram(data=rng.normal(size=(4, 10)))
        stats = feat.BandStats(mean=np.zeros(4), std=np.ones(4))
        out = feat.standardize(spec, stats)
        assert np.array_equal(out.data, spec.data)

    def test_self_standardization(self):
        rng = np.random.default_rng(7)
        spec = feat.LogMelSpectrogram(data=rng.normal(loc=3.0, scale=2.5, size=(8, 200)))
        stats = feat.compute_band_stats([spec])
        out = feat.standardize(spec, stats)
        assert np.abs(out.data.mean(axis=1)).max() < 1e-9
        assert np.abs(out.data.std(axis=1) - 1.0).max() < 1e-9

    def test_constant_band_rejected(self):
        spec = feat.LogMelSpectrogram(data=np.ones((2, 10)))
        stats = feat.compute_band_stats([spec])
        with pytest.raises(ArgumentError):
            feat.standardize(spec, stats)


class TestCacheAndWav:
    def test_cache_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = feat.LogMelSpectrogram(data=rng.normal(size=(64, 49)), clip_id="clip1")
        path = tmp_path / "clip1.sdfc"
        feat.write_feature_cache(path, spec)
        loaded = feat.read_feature_cache(path, clip_id="clip1")
        assert np.array_equal(loaded.data, spec.data)
        # the header records the hop, after the magic, version and shape
        assert struct.unpack_from("<d", path.read_bytes(), 14) == (feat.HOP_S,)

    def test_cache_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.sdfc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            feat.read_feature_cache(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_cache_rejects_a_non_finite_value(self, tmp_path, value):
        data = np.zeros((64, 4))
        data[3, 2] = value
        path = tmp_path / "clip.sdfc"
        feat.write_feature_cache(path, feat.LogMelSpectrogram(data=data))
        with pytest.raises(DataError) as info:
            feat.read_feature_cache(path)
        assert str(info.value) == (
            f"{path}: cache holds {value} at band 3, frame 2, not a finite number"
        )

    def test_cache_rejects_truncation(self, tmp_path):
        spec = feat.LogMelSpectrogram(data=np.zeros((64, 4)))
        path = tmp_path / "trunc.sdfc"
        feat.write_feature_cache(path, spec)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError):
            feat.read_feature_cache(path)

    def test_wav_round_trip_and_channel_check(self, tmp_path):
        import wave as wave_mod

        rng = np.random.default_rng(9)
        samples = (rng.uniform(-0.5, 0.5, 1600) * 32767).astype("<i2")
        mono = tmp_path / "mono.wav"
        with wave_mod.open(str(mono), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(samples.tobytes())
        w = feat.read_wav(mono)
        assert w.sample_rate == 16000
        assert w.samples.size == 1600
        assert np.abs(w.samples).max() <= 1.0

        stereo = tmp_path / "stereo.wav"
        with wave_mod.open(str(stereo), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.repeat(samples, 2).tobytes())
        with pytest.raises(DataError, match="mono"):
            feat.read_wav(stereo)


class TestFrameGrid:
    def test_declared_once_in_features(self):
        """No function of the package takes a hop* parameter, and only
        features.py assigns the frame grid and the band count (networks
        imports N_BANDS from there)."""
        constants = {"HOP_S", "FRAME_LEN_S", "N_MEL_BANDS", "N_BANDS"}
        hop_params, assigners = [], set()
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                    hop_params += [
                        f"{path.name}:{node.lineno} {p.arg}"
                        for p in params
                        if p is not None and p.arg.startswith("hop")
                    ]
                elif isinstance(getattr(node, "ctx", None), ast.Store):
                    if getattr(node, "id", getattr(node, "attr", None)) in constants:
                        assigners.add(path.name)
        assert hop_params == []
        assert assigners == {"features.py"}


class TestPublicNames:
    def test_every_public_name_is_used_outside_the_tests(self):
        """Every public top-level function and class of the package is used
        by the package or by perfbench, not only by tests. A use is a name
        resolved through the imports of its file, read anywhere but in the
        body of the definition it names, or a "module.name" span string of
        perfbench."""
        modules = {p.stem for p in PACKAGE.glob("*.py")}
        public, used = set(), set()
        for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
            here = path.stem if path.parent == PACKAGE else None
            tree = ast.parse(path.read_text(encoding="utf-8"))
            top = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            if here:
                public |= {f"{here}.{name}" for name in top if not name.startswith("_")}
            names = {name: f"{here}.{name}" for name in top} if here else {}
            for node in ast.walk(tree):  # local name -> "module" or "module.name"
                if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sedmtl"
                                                         or node.module.startswith("sedmtl.")):
                    source = (node.module or "").removeprefix("sedmtl").lstrip(".")
                    for a in node.names:
                        names[a.asname or a.name] = f"{source}.{a.name}" if source else a.name
            for owner in tree.body:
                skip = names.get(getattr(owner, "name", None)) if here else None
                for node in ast.walk(owner):
                    if isinstance(node, ast.Name):
                        found = names.get(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                        module = names.get(node.value.id)
                        found = f"{module}.{node.attr}" if module in modules else None
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        found = ".".join(node.value.split(".")[:2]) if not here else None
                    else:
                        continue
                    if found != skip:
                        used.add(found)
        assert sorted(public - used) == []

    def test_tapes_open_only_in_the_fit_loop_and_taped_map(self):
        """Training records each mini-batch on one tape, opened by
        `training._fit`; the only other tapes are `networks._taped_map`'s
        per-item sub-tapes. Lists each `Tape(` call by its top-level owner."""
        owners = []
        for path in sorted(PACKAGE.glob("*.py")):
            for owner in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(owner):
                    if isinstance(node, ast.Call) and "Tape" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        owners.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
        assert owners == ["networks._taped_map", "training._fit"]

    def test_one_module_builds_the_pool_and_networks_alone_names_sub_tapes(self):
        """One thread pool, one owner: only `parallel` builds a
        `ThreadPoolExecutor` or registers a fork hook, each once, and only
        `networks` names `_taped_map`, the per-item sub-tapes run on it."""
        calls, named = [], set()
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if func in ("ThreadPoolExecutor", "register_at_fork"):
                        calls.append(f"{path.stem}.{func}")
                if "_taped_map" in (getattr(node, field, None) for field in ("id", "attr", "name")):
                    named.add(path.stem)
        assert sorted(calls) == ["parallel.ThreadPoolExecutor", "parallel.register_at_fork"]
        assert named == {"networks"}

    def test_every_recording_op_is_recorded_by_training(self, monkeypatch):
        """autodiff keeps only the ops a training step records: one epoch of
        `train_teacher` and of an `mtl_soft` `train_student` on tiny clips
        records each public autodiff function that calls `_record` onto a
        tape at least once."""
        recording = recording_ops()
        recorded = set()
        record = ad._record

        def noting_the_op(out, backward_fn):
            if ad._recording.tape is not None:
                recorded.add(sys._getframe(1).f_code.co_name)
            return record(out, backward_fn)

        monkeypatch.setattr(ad, "_record", noting_the_op)
        rng = np.random.default_rng(0)
        clips = [
            training.ClipExample(
                clip_id=f"c{k}",
                features=feat.LogMelSpectrogram(data=rng.normal(size=(64, 12)), clip_id=f"c{k}"),
                scene=k % 2,
                roll=(rng.random((2, 12)) < 0.5).astype(float),
            )
            for k in range(4)
        ]
        config = training.TrainConfig(mode="teacher", max_epochs=1, batch_size=2, chunk_len=8)
        teacher = training.train_teacher(clips, clips, config, n_scenes=2)
        labels = training.compute_soft_labels(teacher.params, clips, temperature=2.0)
        student = dataclasses.replace(config, mode="mtl_soft", beta=0.5)
        training.train_student(clips, clips, student, n_scenes=2, soft_labels=labels)
        assert "conv2d" in recording
        assert sorted(recording - recorded) == []

    def test_imports_are_the_package_numpy_or_the_standard_library(self):
        """numpy is the one runtime dependency (pyproject's only one): every
        import of the package is relative, numpy or a standard library module."""
        foreign = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.name}:{node.lineno} {m}" for m in modules
                    if m.split(".")[0] not in {"numpy", *sys.stdlib_module_names}
                ]
        assert foreign == []
