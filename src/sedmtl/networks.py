"""Teacher scene classifier and student multitask network.

Both nets consume a 64-band log mel matrix, (bands, frames), and keep every
conv-stack activation band-major, (channels, bands, frames), so the long
frame axis is the contiguous one. Each conv stack is one table of blocks,
conv 3x3 -> maxpool (time x band) -> ReLU, the conv and its pool one
`ad.conv2d` call (which never builds a one-channel first layer's full map):

  teacher:  TEACHER_CONVS, mean over residual time, dense -> C scene logits
  student:  shared trunk TRUNK_CONVS keeps all N frames and collapses the
            band axis; scene head: SCENE_CONVS, mean over residual time,
            dense -> C; event head: BiGRU (32 units per direction) -> dense
            32 (ReLU) -> dense -> M logits per frame.

Pooling before the ReLU is exact: ReLU is monotone, so relu(maxpool(x)) ==
maxpool(relu(x)) value for value, and the gradient reaches the same element
of each window; the ReLU then runs on the pooled, smaller array. A batch of
equal-length inputs (a training mini-batch of chunks, or clips at inference)
runs the trunk and scene head per input and the BiGRU and event head once,
time-major over the whole batch: the B trunks are stacked once and
transposed to (N, B, 128), and each dense layer runs over all N * B frames.
Inference skips the scene head.

The per-input trunk and teacher forwards (`student_forward`,
`teacher_logits`) run on the process's thread pool (`parallel._thread_map`):
untaped at inference, and in training each on a sub-tape of its own
(`_taped_map`) whose parameter gradients are added in the serial tapes'
order. Each thread issues the same single-threaded BLAS calls as a serial
loop, so the bits do not change.

Weights use fan-based uniform (Glorot) init, biases start at zero, and the
recurrent matrices use the same plain scaled-uniform draw. Checkpoints are a
JSON header plus one little-endian float64 blob in declared parameter order.
"""

import json
import math
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import GRU_GATES, Tensor
from .errors import DataError, DimensionError
from .features import N_MEL_BANDS as N_BANDS
from .parallel import _thread_map

# Conv blocks in order: (layer, in channels, out channels, (time, band) pool).
TEACHER_CONVS = (
    ("conv1", 1, 128, (8, 8)),
    ("conv2", 128, 128, (4, 4)),
    ("conv3", 128, 128, (2, 2)),
)
TRUNK_CONVS = (
    ("trunk1", 1, 128, (1, 8)),
    ("trunk2", 128, 128, (1, 4)),
    ("trunk3", 128, 128, (1, 2)),
)
SCENE_CONVS = (
    ("scene1", 128, 64, (10, 1)),
    ("scene2", 64, 16, (5, 1)),
)
GRU_UNITS = 32
EVENT_HIDDEN = 32
# Clips per BiGRU batch at inference: 8 already shares the step loop's
# per-step overhead; 16 was barely faster but kept twice the trunk outputs and
# recurrent state alive, and raised eval-many's peak RSS by ~10%.
INFER_BATCH = 8

CHECKPOINT_MAGIC = b"SDCK1"

class _Outputs:
    """Several tensors as the output of one tape record: the record runs
    when any of them has a gradient, and is handed the list of theirs."""

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        self.tensors = tensors

    @property
    def grad(self):
        grads = [t.grad for t in self.tensors]
        return None if all(g is None for g in grads) else grads

    @grad.setter
    def grad(self, _):
        for t in self.tensors:
            t.grad = None

def _taped_map(fn, items, params, last_first: bool = True) -> list:
    """[fn(params, item) for item in items], spread over threads by
    `_thread_map`.

    Under a tape each item records onto a sub-tape of its own (nested in the
    caller's tape on its thread), against shadow leaves: new Tensors over the
    arrays of `params` (name -> Tensor), so each item's parameter gradients
    stay its own. The outputs join the caller's tape as one record. Its
    backward replays the sub-tapes on threads, then adds each parameter's
    per-item gradients into it last item first, the order in which one
    serial tape reaches the items; with `last_first=False`, first item first,
    as one tape per item backwarded in turn does. The sum starts from the
    first term, so when each item reaches each parameter through one op the
    gradients equal the serial run's bit for bit.
    """
    items = list(items)
    if ad._recording.tape is None:
        return _thread_map(lambda item: fn(params, item), items)

    def record(item):
        shadows = {name: Tensor(t.values) for name, t in params.items()}
        with ad.Tape() as tape:
            out = fn(shadows, item)
        return tape, shadows, out

    runs = _thread_map(record, items)

    def replay(tape):
        tape._replay()
        tape._records.clear()  # the item's activations are no longer needed

    def backward(grads):
        reached = [i for i, g in enumerate(grads) if g is not None]
        _thread_map(lambda i: replay(runs[i][0]), reached)
        order = reached[::-1] if last_first else reached
        for name, leaf in params.items():
            for i in order:
                g = runs[i][1][name].grad
                if g is not None:
                    ad._accumulate(leaf, g)

    outs = [out for _, _, out in runs]
    ad._record(_Outputs(outs), backward)
    return outs

class ModelParams:
    """Named parameter collection with a stable declaration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def blob(self) -> bytes:
        parts = [
            np.ascontiguousarray(t.values, dtype="<f8").tobytes()
            for t in self._params.values()
        ]
        return b"".join(parts)

    def copy_values(self) -> dict:
        return {name: t.values.copy() for name, t in self._params.items()}

    def set_values(self, snapshot: dict):
        for name, t in self._params.items():
            t.values = snapshot[name].copy()

def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)

def _add_convs(params: ModelParams, rng, convs):
    for name, c_in, c_out, _ in convs:
        kernel = _glorot(rng, (c_out, c_in, 3, 3), fan_in=c_in * 9, fan_out=c_out * 9)
        params.add(f"{name}.kernel", kernel)
        params.add(f"{name}.bias", np.zeros(c_out))

def _add_dense(params: ModelParams, rng, name, n_in, n_out):
    params.add(f"{name}.weight", _glorot(rng, (n_in, n_out), n_in, n_out))
    params.add(f"{name}.bias", np.zeros(n_out))

def _add_gru(params: ModelParams, rng, name, n_in, units):
    for kind, rows in (("w", n_in), ("u", units)):
        for gate in GRU_GATES:
            params.add(f"{name}.{kind}_{gate}", _glorot(rng, (rows, units), rows, units))
    for gate in GRU_GATES:
        params.add(f"{name}.b_{gate}", np.zeros(units))

def _gru_cell(params: ModelParams, name):
    return tuple([params[f"{name}.{kind}_{gate}"] for gate in GRU_GATES] for kind in "wub")

def init_teacher_params(n_scenes: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    _add_convs(params, rng, TEACHER_CONVS)
    _add_dense(params, rng, "out", TEACHER_CONVS[-1][2], n_scenes)
    return params

def init_student_params(n_scenes: int, n_events: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    _add_convs(params, rng, TRUNK_CONVS + SCENE_CONVS)
    _add_dense(params, rng, "scene_out", SCENE_CONVS[-1][2], n_scenes)
    _add_gru(params, rng, "gru.fwd", TRUNK_CONVS[-1][2], GRU_UNITS)
    _add_gru(params, rng, "gru.bwd", TRUNK_CONVS[-1][2], GRU_UNITS)
    _add_dense(params, rng, "event_hidden", 2 * GRU_UNITS, EVENT_HIDDEN)
    _add_dense(params, rng, "event_out", EVENT_HIDDEN, n_events)
    return params

def _features_to_input(features: np.ndarray) -> Tensor:
    data = np.asarray(features)
    if data.ndim != 2 or data.shape[0] != N_BANDS:
        raise DimensionError(
            f"expected a ({N_BANDS}, N) feature matrix, got shape {data.shape}"
        )
    # (bands, frames) -> (1 channel, bands, frames); nothing needs its gradient
    return Tensor(data[None], constant=True)

def _conv_stack(x: Tensor, params: ModelParams, convs) -> Tensor:
    for name, _, _, pool in convs:
        x = ad.relu(ad.conv2d(x, params[f"{name}.kernel"], params[f"{name}.bias"], pool))
    return x

def _classify(x: Tensor, params: ModelParams, convs, out) -> Tensor:
    """Conv stack -> mean over residual time -> dense layer `out` logits."""
    x = _conv_stack(x, params, convs)
    c, b, t = x.shape  # (C, 1, T')
    pooled = ad.mean_axis(ad.reshape(x, (1, c, b * t)), 2)  # one (1, C) row
    return ad.reshape(ad.dense(pooled, params[f"{out}.weight"], params[f"{out}.bias"]), (-1,))

def teacher_forward(params: ModelParams, features) -> Tensor:
    """Scene logits (length C) for one clip."""
    return _classify(_features_to_input(features), params, TEACHER_CONVS, "out")

def student_trunk(params: ModelParams, features) -> Tensor:
    return _conv_stack(_features_to_input(features), params, TRUNK_CONVS)  # (128, 1, N)

def student_forward(params: ModelParams, features: list, scene: bool = True):
    """Event logits (B, M, N) and a list of B scene logit vectors for a list
    of B equal-length feature matrices.

    The convolutional trunk and scene head run per matrix, the BiGRU and the
    dense event head once over the whole batch. With `scene=False` the scene
    head is skipped and the scene logits are None. A matrix listed more than
    once runs the trunk once. The trunks run on threads, under a tape each on
    a sub-tape that joins the caller's as one record. The BiGRU input is one
    stack of the B (128, 1, N) trunks, reshaped to (B, 128, N) and transposed
    to time-major (N, B, 128), so its layout records do not grow with B.
    """
    distinct = {id(f): f for f in features}
    trunks = _taped_map(student_trunk, distinct.values(), params)
    trunk_of = dict(zip(distinct, trunks))
    trunks = [trunk_of[id(f)] for f in features]
    scene_logits = [_classify(t, params, SCENE_CONVS, "scene_out") for t in trunks] if scene else None

    c, _, n = trunks[0].shape
    sequence = ad.transpose(ad.reshape(ad.stack(trunks), (len(trunks), c, n)), (2, 0, 1))
    hidden = ad.bigru_forward(sequence, _gru_cell(params, "gru.fwd"), _gru_cell(params, "gru.bwd"))
    hidden = ad.reshape(hidden, (n * len(trunks), -1))
    hidden = ad.relu(ad.dense(hidden, params["event_hidden.weight"], params["event_hidden.bias"]))
    frame_logits = ad.dense(hidden, params["event_out.weight"], params["event_out.bias"])
    event_logits = ad.transpose(ad.reshape(frame_logits, (n, len(trunks), -1)), (1, 2, 0))
    return event_logits, scene_logits

def event_posteriors(params: ModelParams, features) -> list:
    """Event posteriors, one (M, N) array per feature matrix, in the order given.

    Matrices of equal frame count share the BiGRU and event head in batches of
    at most INFER_BATCH; the scene head, which no caller reads, is skipped. A
    matrix alone in its batch is listed twice, so its trunk runs once: at B=1
    the recurrent matmuls take a BLAS matrix-vector path with other rounding,
    while at any B >= 2 a matrix's rows are the same bits, so its posteriors
    never depend on which matrices share the call.
    """
    out = [None] * len(features)
    groups = {}
    for i, f in enumerate(features):
        groups.setdefault(f.shape[-1], []).append(i)
    for members in groups.values():
        for start in range(0, len(members), INFER_BATCH):
            batch = members[start : start + INFER_BATCH]
            mats = [features[i] for i in batch]
            event_logits, _ = student_forward(
                params, mats * 2 if len(batch) == 1 else mats, scene=False
            )
            posteriors = ad._sigmoid_values(event_logits.values)
            for row, i in enumerate(batch):
                out[i] = posteriors[row]
    return out

def teacher_logits(params: ModelParams, features) -> list:
    """Each feature matrix's scene logits, a Tensor each, the forwards shared
    across threads. Under a tape each forward records onto a sub-tape of its
    own, and the parameter gradients add first clip first, as one tape per
    clip (the clips may differ in length) backwarded in turn would."""
    return _taped_map(teacher_forward, features, params, last_first=False)

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
    offset = len(CHECKPOINT_MAGIC) + 4
    if len(blob) < offset:
        raise DataError(f"{path}: checkpoint ends before its header length")
    (header_len,) = struct.unpack_from("<I", blob, offset - 4)
    if len(blob) < offset + header_len:
        raise DataError(
            f"{path}: checkpoint header of {header_len} bytes runs past the end of the file"
        )
    try:
        meta = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DataError(f"{path}: checkpoint header is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("params"), list):
        raise DataError(f"{path}: checkpoint header has no 'params' list")
    offset += header_len
    manifest = meta.pop("params")
    for i, entry in enumerate(manifest):
        if not (
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
        ):
            raise DataError(f"{path}: checkpoint params[{i}] is {entry!r}, not a [name, shape] pair")
    if len({name for name, _ in manifest}) != len(manifest):
        raise DataError(f"{path}: checkpoint names a parameter more than once")
    sizes = [math.prod(shape) for _, shape in manifest]
    if 8 * sum(sizes) != len(blob) - offset:
        raise DataError(
            f"{path}: checkpoint parameters hold {sum(sizes)} values, "
            f"but {len(blob) - offset} bytes follow the header"
        )
    params = ModelParams()
    for (name, shape), size in zip(manifest, sizes):
        params.add(name, np.frombuffer(blob, "<f8", size, offset).reshape(shape).copy())
        offset += 8 * size
    return params, meta
