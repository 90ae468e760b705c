"""Teacher scene classifier and student multitask network.

Both nets consume a 64-band log mel matrix, (bands, frames), and keep every
conv-stack activation band-major, (channels, bands, frames), so the long
frame axis is the contiguous one. Pooling sizes read as time x band:

  teacher:  3x [conv 3x3 (128 ch) -> maxpool 8x8 / 4x4 / 2x2 -> ReLU],
            mean over residual time, dense -> C scene logits
  student:  shared trunk 3x [conv 3x3 (128 ch) -> maxpool 1x8 / 1x4 / 1x2
            -> ReLU] keeps all N frames and collapses the band axis;
            scene head: 2x [conv 3x3 (64, 16 ch) -> maxpool 10x1 / 5x1 ->
            ReLU], mean over residual time, dense -> C;
            event head: BiGRU (32 units per direction) -> dense 32 (ReLU)
            -> dense -> M logits per frame.

Pooling before the ReLU is exact: ReLU is monotone, so relu(maxpool(x)) ==
maxpool(relu(x)) value for value, and the gradient reaches the same element
of each window; the ReLU then runs on the pooled, smaller array. A training
mini-batch of equal-length chunks runs the trunk and scene head per chunk and
the BiGRU and event head once, time-major over the whole batch.

Weights use fan-based uniform (Glorot) init, biases start at zero, and the
recurrent matrices use the same plain scaled-uniform draw. Checkpoints are a
JSON header plus one little-endian float64 blob in declared parameter order.
"""

import hashlib
import json
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import GRUCell, Tensor
from .errors import DataError, DimensionError

N_BANDS = 64
CONV_CHANNELS = 128
TEACHER_POOLS = ((8, 8), (4, 4), (2, 2))
TRUNK_POOLS = ((1, 8), (1, 4), (1, 2))
SCENE_CHANNELS = (64, 16)
SCENE_POOLS = ((10, 1), (5, 1))
GRU_UNITS = 32
EVENT_HIDDEN = 32

CHECKPOINT_MAGIC = b"SDCK1"

class ModelParams:
    """Named parameter collection with a stable declaration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = ad.tensor(values)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self):
        return list(self._params)

    def tensors(self):
        return list(self._params.values())

    def items(self):
        return self._params.items()

    def blob(self) -> bytes:
        parts = [
            np.ascontiguousarray(t.values, dtype="<f8").tobytes()
            for t in self._params.values()
        ]
        return b"".join(parts)

    def load_blob(self, blob: bytes):
        offset = 0
        for name, t in self._params.items():
            nbytes = t.size * 8
            chunk = blob[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise DataError(f"checkpoint blob too short at parameter {name!r}")
            t.values = np.frombuffer(chunk, dtype="<f8").reshape(t.shape).copy()
            offset += nbytes
        if offset != len(blob):
            raise DataError(f"checkpoint blob has {len(blob) - offset} trailing bytes")

    def checksum(self) -> str:
        return hashlib.sha256(self.blob()).hexdigest()

    def copy_values(self) -> dict:
        return {name: t.values.copy() for name, t in self._params.items()}

    def set_values(self, snapshot: dict):
        for name, t in self._params.items():
            t.values = snapshot[name].copy()

def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)

def _add_conv(params: ModelParams, rng, name, c_in, c_out):
    params.add(
        f"{name}.kernel",
        _glorot(rng, (c_out, c_in, 3, 3), fan_in=c_in * 9, fan_out=c_out * 9),
    )
    params.add(f"{name}.bias", np.zeros(c_out))

def _add_dense(params: ModelParams, rng, name, n_in, n_out):
    params.add(f"{name}.weight", _glorot(rng, (n_in, n_out), n_in, n_out))
    params.add(f"{name}.bias", np.zeros(n_out))

def _add_gru(params: ModelParams, rng, name, n_in, units):
    for gate in ("update", "reset", "cand"):
        params.add(f"{name}.w_{gate}", _glorot(rng, (n_in, units), n_in, units))
    for gate in ("update", "reset", "cand"):
        params.add(f"{name}.u_{gate}", _glorot(rng, (units, units), units, units))
    for gate in ("update", "reset", "cand"):
        params.add(f"{name}.b_{gate}", np.zeros(units))

def _gru_cell(params: ModelParams, name) -> GRUCell:
    return GRUCell(
        **{
            f"{kind}_{gate}": params[f"{name}.{kind}_{gate}"]
            for kind in ("w", "u", "b")
            for gate in ("update", "reset", "cand")
        }
    )

def init_teacher_params(n_scenes: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    c_in = 1
    for i in range(3):
        _add_conv(params, rng, f"conv{i + 1}", c_in, CONV_CHANNELS)
        c_in = CONV_CHANNELS
    _add_dense(params, rng, "out", CONV_CHANNELS, n_scenes)
    return params

def init_student_params(n_scenes: int, n_events: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    c_in = 1
    for i in range(3):
        _add_conv(params, rng, f"trunk{i + 1}", c_in, CONV_CHANNELS)
        c_in = CONV_CHANNELS
    c_in = CONV_CHANNELS
    for i, c_out in enumerate(SCENE_CHANNELS):
        _add_conv(params, rng, f"scene{i + 1}", c_in, c_out)
        c_in = c_out
    _add_dense(params, rng, "scene_out", SCENE_CHANNELS[-1], n_scenes)
    _add_gru(params, rng, "gru.fwd", CONV_CHANNELS, GRU_UNITS)
    _add_gru(params, rng, "gru.bwd", CONV_CHANNELS, GRU_UNITS)
    _add_dense(params, rng, "event_hidden", 2 * GRU_UNITS, EVENT_HIDDEN)
    _add_dense(params, rng, "event_out", EVENT_HIDDEN, n_events)
    return params

def _features_to_input(features) -> Tensor:
    data = features.data if hasattr(features, "hop_seconds") else np.asarray(features)
    if data.ndim != 2 or data.shape[0] != N_BANDS:
        raise DimensionError(
            f"expected a ({N_BANDS}, N) feature matrix, got shape {data.shape}"
        )
    # (bands, frames) -> (1 channel, bands, frames); nothing needs its gradient
    return Tensor(data[None], constant=True)

def _conv_block(x: Tensor, params: ModelParams, name, pool) -> Tensor:
    conv = ad.conv2d(x, params[f"{name}.kernel"], params[f"{name}.bias"])
    pooled = ad.maxpool2d(conv, pool[0], pool[1])
    # Only the pool reads the conv output, and a tape needs only its .grad.
    conv.values = None
    return ad.relu(pooled)

def _collapse_to_vector(x: Tensor) -> Tensor:
    # (C, 1, T') -> mean over residual time -> (C,)
    c, b, t = x.shape
    return ad.mean_axis(ad.reshape(x, (c, b * t)), 1)

def teacher_forward(params: ModelParams, features) -> Tensor:
    """Scene logits (length C) for one clip."""
    x = _features_to_input(features)
    for i, pool in enumerate(TEACHER_POOLS):
        x = _conv_block(x, params, f"conv{i + 1}", pool)
    pooled = _collapse_to_vector(x)
    return ad.dense(pooled, params["out.weight"], params["out.bias"])

def student_trunk(params: ModelParams, features) -> Tensor:
    x = _features_to_input(features)
    for i, pool in enumerate(TRUNK_POOLS):
        x = _conv_block(x, params, f"trunk{i + 1}", pool)
    return x  # (128, 1, N)

def _scene_head(params: ModelParams, trunk: Tensor) -> Tensor:
    scene = trunk
    for i, pool in enumerate(SCENE_POOLS):
        scene = _conv_block(scene, params, f"scene{i + 1}", pool)
    scene_vec = _collapse_to_vector(scene)
    return ad.dense(scene_vec, params["scene_out.weight"], params["scene_out.bias"])

def student_forward(params: ModelParams, features):
    """Event logits (M, N) and scene logits (C,) for one clip or chunk.

    Given a list of B equal-length feature matrices (a mini-batch of
    chunks), returns event logits (B, M, N) and a list of B scene logit
    vectors: the convolutional trunk and scene head run per chunk, the BiGRU
    and the dense event head once over the whole batch.
    """
    batch = isinstance(features, list)
    trunks = [student_trunk(params, f) for f in (features if batch else [features])]
    scene_logits = [_scene_head(params, trunk) for trunk in trunks]

    c, _, n = trunks[0].shape
    # (128, 1, N) per chunk -> time-major (N, B, 128)
    sequence = ad.stack([ad.transpose(ad.reshape(t, (c, n)), (1, 0)) for t in trunks], axis=1)
    hidden = ad.bigru_forward(sequence, _gru_cell(params, "gru.fwd"), _gru_cell(params, "gru.bwd"))
    hidden = ad.reshape(hidden, (n * len(trunks), -1))
    hidden = ad.relu(ad.dense(hidden, params["event_hidden.weight"], params["event_hidden.bias"]))
    frame_logits = ad.dense(hidden, params["event_out.weight"], params["event_out.bias"])
    event_logits = ad.transpose(ad.reshape(frame_logits, (n, len(trunks), -1)), (1, 2, 0))
    if batch:
        return event_logits, scene_logits
    return ad.reshape(event_logits, event_logits.shape[1:]), scene_logits[0]

def save_checkpoint(path, params: ModelParams, meta: dict):
    """JSON header (meta + parameter manifest) followed by the value blob."""
    header = dict(meta)
    header["params"] = [[name, list(t.shape)] for name, t in params.items()]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(params.blob())

def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    meta = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    params = ModelParams()
    manifest = meta.pop("params")
    for name, shape in manifest:
        params.add(name, np.zeros(shape))
    params.load_blob(blob[offset:])
    return params, meta
