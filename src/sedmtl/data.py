"""TUT-style metadata ingestion, frame targets, folds, training chunks and
the reading and writing of every JSON file.

Metadata is one `audio_path TAB scene_name` line per clip; per-clip event
annotations are `onset TAB offset TAB event_name` lines with times in
seconds. Event activity is quantized to frames by the frame-center rule:
class m is active in frame n iff some annotation of m satisfies
onset <= (n + 0.5) * HOP_S < offset.
"""

import json
from dataclasses import dataclass, field
from pathlib import PurePosixPath

import numpy as np

from .errors import ArgumentError, DataError, ParseError
from .features import HOP_S


@dataclass
class Vocabulary:
    """Ordered scene and event class names; order is frozen once persisted."""

    scenes: list[str]
    events: list[str]

    @property
    def n_scenes(self) -> int:
        return len(self.scenes)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The vocabulary of a JSON file {"scenes": [names], "events": [names]},
        each list naming at least one class and each class once."""
        doc = read_json(path, "a vocabulary")
        for key in ("scenes", "events"):
            names = doc.get(key)
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise DataError(f"{path}: {key!r} must be a list of names, got {names!r}")
            if not names:
                raise DataError(f"{path}: {key!r} names no class")
            repeated = [n for i, n in enumerate(names) if n in names[:i]]
            if repeated:
                raise DataError(f"{path}: {key!r} names {repeated[0]!r} more than once")
        return cls(scenes=doc["scenes"], events=doc["events"])


@dataclass
class ClipRecord:
    clip_id: str
    audio_path: str
    scene: int  # its name when parsed without a vocabulary
    events: list = field(default_factory=list)  # (onset_s, offset_s, event_idx), likewise
    annotation_path: str = ""


def clip_id_from_path(audio_path: str) -> str:
    return PurePosixPath(audio_path.replace("\\", "/")).stem


def parse_metadata(text: str, vocabulary: Vocabulary | None = None) -> list[ClipRecord]:
    """Parse `audio_path TAB scene_name` lines into clip stubs; without a
    vocabulary, each stub's scene is its name, not its index.

    Malformed lines, and a line whose clip (its file stem) an earlier line
    names, raise immediately with their line number; scene names outside
    the vocabulary are collected and reported together.
    """
    records = []
    unknown = []
    first_line = {}  # clip id -> the line that named it
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"expected 'audio_path<TAB>scene', got {line!r}", lineno)
        audio_path, scene_name = parts
        clip_id = clip_id_from_path(audio_path)
        if clip_id in first_line:
            raise ParseError(
                f"clip {clip_id!r} of {audio_path!r} repeats line {first_line[clip_id]}", lineno
            )
        first_line[clip_id] = lineno
        if vocabulary is None:
            records.append(ClipRecord(clip_id, audio_path, scene_name))
        elif scene_name in vocabulary.scenes:
            records.append(ClipRecord(clip_id, audio_path, vocabulary.scenes.index(scene_name)))
        else:
            unknown.append(scene_name)
    if unknown:
        names = ", ".join(repr(n) for n in sorted(set(unknown)))
        raise ParseError(f"unknown scene names: {names}")
    return records


def parse_event_annotations(text: str, clip_id: str, vocabulary: Vocabulary | None = None) -> list:
    """Parse `onset TAB offset TAB event_name` lines into (onset, offset,
    event index) triples sorted by onset; without a vocabulary, each triple
    holds the event's name, not its index.

    Overlapping events are legal (polyphony). A malformed line or an event
    outside the vocabulary raises a ParseError naming the clip and the line.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"{clip_id}: expected 'onset<TAB>offset<TAB>event', got {line!r}",
                lineno,
            )
        try:
            onset, offset = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"{clip_id}: non-numeric time in {line!r}", lineno) from None
        if not 0.0 <= onset < offset:
            raise ParseError(
                f"{clip_id}: need 0 <= onset < offset, got {onset} .. {offset}", lineno
            )
        if vocabulary is None:
            events.append((onset, offset, parts[2]))
        elif parts[2] in vocabulary.events:
            events.append((onset, offset, vocabulary.events.index(parts[2])))
        else:
            raise ParseError(f"{clip_id}: unknown event name {parts[2]!r}", lineno)
    events.sort(key=lambda e: e[0])
    return events


def events_to_roll(events, n_frames: int, n_event_classes: int) -> np.ndarray:
    """Binary (M, N) activity matrix, entries 0.0 or 1.0, under the
    frame-center rule. Activity past the last frame is clipped silently; see
    count_clipped_events.
    """
    roll = np.zeros((n_event_classes, n_frames))
    centers = (np.arange(n_frames) + 0.5) * HOP_S
    for onset, offset, cls in events:
        roll[cls, (onset <= centers) & (centers < offset)] = 1.0
    return roll


def count_clipped_events(events, n_frames: int) -> int:
    """How many annotations extend past the last frame center."""
    clip_end = (n_frames - 1 + 0.5) * HOP_S
    return sum(1 for _, offset, _ in events if offset > clip_end)


def make_folds(records, n_folds: int, seed: int) -> dict:
    """Scene-stratified {clip_id: fold} assignment, deterministic for a given
    seed.

    Clips are grouped by scene, shuffled within each group, and dealt to
    folds with a cursor that runs across groups, so both per-scene and total
    fold sizes differ by at most one.
    """
    if n_folds < 1:
        raise ArgumentError(f"folds must be >= 1, got {n_folds}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if len(records) < n_folds:
        raise ArgumentError(
            f"need at least {n_folds} clips for {n_folds} folds, got {len(records)}"
        )
    rng = np.random.default_rng(seed)
    by_scene: dict[int, list[str]] = {}
    for rec in records:
        by_scene.setdefault(rec.scene, []).append(rec.clip_id)
    assignment = {}
    cursor = 0
    for scene in sorted(by_scene):
        clip_ids = sorted(by_scene[scene])
        order = rng.permutation(len(clip_ids))
        for i in order:
            assignment[clip_ids[i]] = cursor % n_folds
            cursor += 1
    return assignment


@dataclass
class Chunk:
    features: np.ndarray  # (n_bands, chunk_len)
    roll: np.ndarray  # (n_events, chunk_len)
    mask: np.ndarray  # (chunk_len,), 1.0 on valid frames


def chunk_clips(features: np.ndarray, roll: np.ndarray, chunk_len: int) -> list:
    """Cut a clip's (bands, frames) features and (events, frames) roll into
    consecutive fixed-length chunks; the final chunk is zero-padded and its
    mask marks the padded frames invalid.
    """
    data = np.asarray(features)
    if data.shape[1] != roll.shape[1]:
        raise ArgumentError(f"features have {data.shape[1]} frames but roll has {roll.shape[1]}")
    if chunk_len < 1:
        raise ArgumentError(f"chunk_len must be >= 1, got {chunk_len}")
    n = data.shape[1]
    chunks = []
    for start in range(0, n, chunk_len):
        valid = min(chunk_len, n - start)
        f = np.zeros((data.shape[0], chunk_len))
        r = np.zeros((roll.shape[0], chunk_len))
        m = np.zeros(chunk_len)
        f[:, :valid] = data[:, start : start + valid]
        r[:, :valid] = roll[:, start : start + valid]
        m[:valid] = 1.0
        chunks.append(Chunk(features=f, roll=r, mask=m))
    return chunks


def read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`. A file that does not
    parse, or holds no object, raises a DataError naming the file as `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DataError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path, doc: dict):
    """`doc` as JSON indented by 2 with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    """clip_id -> {audio_path, annotation_path, scene, fold >= 0} of a
    manifest of at least one clip, each clip id a file name; the first entry
    of another shape names its clip in a DataError."""
    entries = read_json(path, "a manifest")
    if not entries:
        raise DataError(f"{path}: a manifest holds no clips")
    kinds = {"audio_path": str, "annotation_path": str, "scene": int, "fold": int}
    for clip_id, entry in entries.items():
        if not clip_id or "/" in clip_id or "\\" in clip_id:
            raise DataError(
                f"{path}: clip {clip_id!r} must be a file name: not empty, no '/' or '\\'"
            )
        if not isinstance(entry, dict):
            raise DataError(f"{path}: clip {clip_id!r} must be an object, got {entry!r}")
        for key, kind in kinds.items():
            value = entry.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise DataError(
                    f"{path}: clip {clip_id!r} needs {key!r} of type {kind.__name__}, got {value!r}"
                )
        if entry["fold"] < 0:
            raise DataError(f"{path}: clip {clip_id!r} has fold {entry['fold']}, not >= 0")
    return entries
