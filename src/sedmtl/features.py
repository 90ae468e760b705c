"""Log mel-band energy extraction from mono waveforms.

The chain is: 40 ms Hamming-windowed frames every 20 ms, power spectrum on
the next power-of-two FFT grid, a 64-band triangular mel filterbank from 0 Hz
to Nyquist (peak-normalized rows), then natural log with a 1e-10 floor. All
arithmetic is float64 and deterministic, so cached features are reproducible
byte-for-byte.

The frame grid (`FRAME_LEN_S`, `HOP_S`) and the band count (`N_MEL_BANDS`)
are declared here once; every other module reads them from here.
"""

import functools
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError

N_MEL_BANDS = 64
FRAME_LEN_S = 0.040
HOP_S = 0.020
LOG_FLOOR = 1e-10

CACHE_MAGIC = b"SDFC"
CACHE_VERSION = 1


@dataclass
class Waveform:
    samples: np.ndarray  # mono, in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ArgumentError(f"sample rate must be positive, got {self.sample_rate}")


@dataclass
class LogMelSpectrogram:
    data: np.ndarray  # (N_MEL_BANDS, n_frames), frames HOP_S apart
    clip_id: str = ""

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE PCM 16-bit mono file."""
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            if channels != 1:
                raise DataError(
                    f"{path}: expected mono audio, got {channels} channels"
                )
            if wf.getsampwidth() != 2:
                raise DataError(
                    f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit"
                )
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise DataError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def frame_signal(waveform: Waveform) -> np.ndarray:
    """Split into Hamming-windowed frames of FRAME_LEN_S every HOP_S seconds.

    Trailing samples that do not fill a frame are dropped. Returns an
    (n_frames, frame_samples) array.
    """
    frame_len = int(round(FRAME_LEN_S * waveform.sample_rate))
    hop = int(round(HOP_S * waveform.sample_rate))
    n_samples = waveform.samples.size
    if n_samples < frame_len:
        raise ArgumentError(
            f"input of {n_samples} samples is shorter than one frame "
            f"({frame_len} samples at {waveform.sample_rate} Hz)"
        )
    # one row per hop: 1 + (n_samples - frame_len) // hop frames
    windows = np.lib.stride_tricks.sliding_window_view(waveform.samples, frame_len)[::hop]
    return windows * np.hamming(frame_len)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def power_spectrum(frame: np.ndarray, fft_bins: int) -> np.ndarray:
    """Squared magnitude of the positive-frequency DFT half of the frame (or
    each row of a frame matrix), zero-padded to fft_bins."""
    frame = np.asarray(frame, dtype=np.float64)
    spectrum = np.fft.rfft(frame, n=fft_bins)
    return (spectrum.real**2 + spectrum.imag**2)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache
def build_mel_filterbank(sample_rate: int, fft_bins: int) -> np.ndarray:
    """(N_MEL_BANDS, fft_bins // 2 + 1) weights of triangular filters whose
    edges are equally spaced on the mel scale from 0 Hz to Nyquist, each row
    peak-normalized to 1. Built once per (sample_rate, fft_bins): every call
    with those arguments returns the same read-only array.
    """
    edges_hz = mel_to_hz(
        np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), N_MEL_BANDS + 2)
    )
    bin_hz = np.arange(fft_bins // 2 + 1) * (sample_rate / fft_bins)
    weights = np.zeros((N_MEL_BANDS, bin_hz.size))
    for b in range(N_MEL_BANDS):
        left, center, right = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        peak = tri.max()
        if peak <= 0.0:
            raise ArgumentError(
                f"mel band {b} spans no FFT bin at {sample_rate} Hz; "
                f"{N_MEL_BANDS} bands need audio at a higher sample rate"
            )
        weights[b] = tri / peak
    weights.flags.writeable = False
    return weights


def log_mel_energy(waveform: Waveform, clip_id: str = "") -> LogMelSpectrogram:
    """Full feature chain; returns an (N_MEL_BANDS, n_frames) log energy matrix."""
    frames = frame_signal(waveform)
    fft_bins = _next_pow2(frames.shape[1])
    weights = build_mel_filterbank(waveform.sample_rate, fft_bins)
    spectra = power_spectrum(frames, fft_bins)  # (n_frames, bins)
    mel_energy = spectra @ weights.T
    return LogMelSpectrogram(data=np.log(mel_energy.T + LOG_FLOOR), clip_id=clip_id)


@dataclass
class BandStats:
    mean: np.ndarray
    std: np.ndarray


def compute_band_stats(spectrograms) -> BandStats:
    """Per-band mean/std pooled over all frames of the given spectrograms.

    Call this on training folds only; the resulting stats are then applied to
    every split.
    """
    stacked = np.concatenate([s.data for s in spectrograms], axis=1)
    return BandStats(mean=stacked.mean(axis=1), std=stacked.std(axis=1))


def standardize(features: LogMelSpectrogram, stats: BandStats) -> LogMelSpectrogram:
    if np.any(stats.std <= 0.0):
        bad = int(np.argmin(stats.std))
        raise ArgumentError(f"band {bad} has non-positive std {stats.std[bad]}")
    data = (features.data - stats.mean[:, None]) / stats.std[:, None]
    return LogMelSpectrogram(data=data, clip_id=features.clip_id)


def write_feature_cache(path, features: LogMelSpectrogram):
    """Binary cache: magic, u16 version, u32 D, u32 N, f64 hop (HOP_S), then
    D*N little-endian f64 values row-major.
    """
    d, n = features.data.shape
    header = CACHE_MAGIC + struct.pack("<HIId", CACHE_VERSION, d, n, HOP_S)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(features.data, dtype="<f8").tobytes())


def read_feature_cache(path, clip_id: str = "") -> LogMelSpectrogram:
    """The features of a cache file; one DataError naming the file when its
    header does not hold N_MEL_BANDS bands, at least one frame and HOP_S, or
    when a value is not finite."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(CACHE_MAGIC) + struct.calcsize("<HIId")
    if len(blob) < head_len or blob[:4] != CACHE_MAGIC:
        raise DataError(f"{path}: not a feature cache file")
    version, d, n, hop = struct.unpack("<HIId", blob[4:head_len])
    if version != CACHE_VERSION:
        raise DataError(f"{path}: unsupported cache version {version}")
    if d != N_MEL_BANDS or n < 1 or hop != HOP_S:  # the hop is written as HOP_S exactly
        raise DataError(
            f"{path}: cache holds {d} bands, {n} frames and a {hop} s hop; expected "
            f"{N_MEL_BANDS} bands, at least 1 frame and a {HOP_S} s hop"
        )
    payload = blob[head_len:]
    if len(payload) != d * n * 8:
        raise DataError(
            f"{path}: payload holds {len(payload)} bytes, expected {d * n * 8}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(d, n).astype(np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        band, frame = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: cache holds {data[band, frame]} at band {band}, frame {frame}, "
            "not a finite number"
        )
    return LogMelSpectrogram(data=data, clip_id=clip_id)
