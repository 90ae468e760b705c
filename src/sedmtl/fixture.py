"""Synthetic end-to-end fixture: 8 clips, 4 scenes, 5 events.

Each scene carries a quiet scene-identifying tone for the whole clip; events
are loud tone bursts at event-specific frequencies. Scene c contains its own
event c plus the common event 4, so the scene-event co-occurrence is
deterministic: events 0..3 each occur in exactly one scene, event 4 in all.

Audio, annotations and metadata are written in the same formats the real
ingestion path consumes.
"""

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClipRecord, Vocabulary

SCENES = ["home", "office", "city_center", "residential_area"]
EVENTS = ["dishes", "keyboard_typing", "car", "bird_singing", "people_talking"]

SCENE_TONES_HZ = [260.0, 370.0, 520.0, 730.0]
EVENT_TONES_HZ = [1000.0, 1600.0, 2500.0, 3900.0, 5800.0]

SCENE_AMP = 0.08
EVENT_AMP = 0.35
NOISE_AMP = 0.004


@dataclass
class FixtureInfo:
    vocabulary: Vocabulary
    clips: list  # ClipRecord per clip
    metadata_path: Path
    annotations_dir: Path


def write_wav(path, samples: np.ndarray, sample_rate: int):
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


def _clip_events(scene: int, variant: int, clip_seconds: float) -> list:
    own, common = scene, len(EVENTS) - 1
    if variant == 0:
        # overlapping pair, exercising polyphony
        return [
            (0.20 * clip_seconds, 0.60 * clip_seconds, own),
            (0.45 * clip_seconds, 0.90 * clip_seconds, common),
        ]
    return [
        (0.10 * clip_seconds, 0.45 * clip_seconds, own),
        (0.55 * clip_seconds, 0.90 * clip_seconds, common),
    ]


def generate_fixture(
    root,
    clip_seconds: float = 2.0,
    sample_rate: int = 16000,
    clips_per_scene: int = 2,
    seed: int = 7,
) -> FixtureInfo:
    """Write the fixture dataset under root and describe what was written."""
    root = Path(root)
    audio_dir = root / "audio"
    ann_dir = root / "annotations"
    audio_dir.mkdir(parents=True, exist_ok=True)
    ann_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    n = int(round(clip_seconds * sample_rate))
    t = np.arange(n) / sample_rate
    clips = []
    meta_lines = []
    for scene, scene_name in enumerate(SCENES):
        for variant in range(clips_per_scene):
            clip_id = f"{scene_name}_{variant}"
            events = _clip_events(scene, variant % 2, clip_seconds)
            samples = SCENE_AMP * np.sin(2 * np.pi * SCENE_TONES_HZ[scene] * t)
            samples = samples + NOISE_AMP * rng.standard_normal(n)
            for onset, offset, cls in events:
                lo, hi = int(onset * sample_rate), int(offset * sample_rate)
                burst = EVENT_AMP * np.sin(2 * np.pi * EVENT_TONES_HZ[cls] * t[lo:hi])
                samples[lo:hi] += burst
            audio_path = audio_dir / f"{clip_id}.wav"
            write_wav(audio_path, samples, sample_rate)

            ann_path = ann_dir / f"{clip_id}.txt"
            with open(ann_path, "w", encoding="utf-8") as fh:
                for onset, offset, cls in events:
                    fh.write(f"{onset:.3f}\t{offset:.3f}\t{EVENTS[cls]}\n")
            meta_lines.append(f"audio/{clip_id}.wav\t{scene_name}")
            clips.append(
                ClipRecord(
                    clip_id=clip_id,
                    scene=scene,
                    events=events,
                    audio_path=str(audio_path),
                    annotation_path=str(ann_path),
                )
            )

    metadata_path = root / "meta.tsv"
    metadata_path.write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
    return FixtureInfo(
        vocabulary=Vocabulary(scenes=list(SCENES), events=list(EVENTS)),
        clips=clips,
        metadata_path=metadata_path,
        annotations_dir=ann_dir,
    )

