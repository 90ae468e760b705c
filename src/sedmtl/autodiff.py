"""Minimal reverse-mode autodiff on dense float64 arrays.

Values live in `Tensor` objects backed by numpy float64 buffers. Ops executed
while a `Tape` is active append their backward closures to the tape in
execution order; `Tape.backward` replays them in exact reverse order, so two
identical forward passes produce bit-identical gradients. Ops executed with
no active tape run forward-only.

Tapes nest per thread: ops record onto the innermost tape that their thread
has entered and not yet exited. That lets `networks` record per-item
subgraphs on threads, each onto a sub-tape of its own.

The op set is exactly what a training step records: elementwise
arithmetic, matmul, same-padded 3x3 convolution with its layer's pooling
(a one-channel input's a block of output channels at a time), max pooling
with partial final windows, a bidirectional GRU and relu. Steps that are never
differentiated, the posterior sigmoid and the teacher's temperature softmax,
run in plain numpy (`_sigmoid_values`, `losses.distill_targets`).
"""

import operator
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ArgumentError, DimensionError


class _Recording(threading.local):
    tape = None  # the innermost tape this thread has entered


_recording = _Recording()


def __getattr__(name):
    # `_ACTIVE_TAPE`, for observers outside the package: the calling thread's tape
    if name == "_ACTIVE_TAPE":
        return _recording.tape
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    A constant tensor (network input features, for example) never receives a
    gradient, so ops skip the work of computing one for it.
    """

    __slots__ = ("values", "grad", "constant")

    def __init__(self, values, constant: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.constant = constant

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class Tape:
    """Ordered record of executed primitives for one forward/backward cycle.

    Use as a context manager around the forward pass; its exit, even by an
    exception, makes the thread's outer tape (or none) current again. Records
    are (output tensor, backward closure) pairs in execution order, which is a
    topological order by construction.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._outer = None  # the thread's outer tape, held only while this one is entered

    def __enter__(self):
        self._outer, _recording.tape = _recording.tape, self
        return self

    def __exit__(self, exc_type, exc, tb):
        _recording.tape, self._outer = self._outer, None  # a kept sub-tape makes no cycle
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss) = 1 and visit ops in reverse execution order.

        Gradients accumulate into `Tensor.grad`; tensors never reached from
        the loss keep `grad` None and their records are skipped. An op's
        output gradient is dropped once that op has passed it on, so only
        the leaves (parameters and inputs) keep theirs and the gradients of
        intermediate activations never pile up.
        """
        if loss.values.size != 1:
            raise ArgumentError(
                f"backward needs a scalar loss, got shape {loss.values.shape}"
            )
        loss.grad = np.ones_like(loss.values)
        self._replay()

    def _replay(self):
        # the backward pass from the output gradients already in place
        for out, backward_fn in reversed(self._records):
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def _record(out: Tensor, backward_fn) -> Tensor:
    tape = _recording.tape
    if tape is not None:
        tape._records.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.constant:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values + b.values)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(g, b.values.shape))

    return _record(out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for the constant)."""
    c = float(c)
    out = Tensor(a.values * c)

    def backward(g):
        _accumulate(a, g * c)

    return _record(out, backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.values.reshape(shape))

    def backward(g):
        _accumulate(a, g.reshape(a.values.shape))

    return _record(out, backward)


def stack(tensors, axis: int) -> Tensor:
    """Join equal-shape tensors along a new axis."""
    out = Tensor(np.stack([t.values for t in tensors], axis=axis))

    def backward(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _record(out, backward)


def transpose(a: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(a.values, axes))
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

    return _record(out, backward)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.values.shape[axis]
    out = Tensor(a.values.mean(axis=axis))

    def backward(g):
        _accumulate(a, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.values, 0.0))

    def backward(g):
        _accumulate(a, g * (a.values > 0.0))

    return _record(out, backward)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below zero
    # are the two usual stable forms (NaN takes the second and stays NaN).
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise DimensionError(
            f"matmul shapes do not compose: {a.values.shape} x {b.values.shape}"
        )
    out = Tensor(a.values @ b.values)

    def backward(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _record(out, backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias of a (rows, F) matrix x."""
    return add(matmul(x, weight), bias)


# ---------------------------------------------------------------------------
# convolution and pooling


# Output bytes per block of a one-channel conv's rows. Each block's bias add
# and pooling should find the block still in cache, but every block reads the
# whole im2col matrix (9 times the input) again. On a Xeon with 2 MB of L2 per
# core, 4 MB blocks ran the paper-sized student and teacher steps faster than
# 2 MB blocks, and keep a 50-frame chunk's 3.3 MB map one block.
_MAP_BUDGET = 4 << 20


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, pool=(1, 1)) -> Tensor:
    """Same-padded 3x3 cross-correlation over band-major activations, max
    pooled over windows of `pool` = (pool_frames, pool_bands).

    x is (Cin, bands, frames), kernel (Cout, Cin, 3 frame taps, 3 band taps),
    bias (Cout,); the unpooled map is (Cout, bands, frames) with one ring of
    zero padding. The frame axis is the contiguous one, so each tap copy moves
    whole runs of frames. The im2col matrix is built channel-major,
    (Cin*9, bands*frames) with rows in (cin, frame tap, band tap) order, so
    the forward GEMM `kmat @ cols` lands directly in the (Cout, bands*frames)
    output layout and the input gradient comes back as
    (Cin, 3, 3, bands, frames): one contiguous plane per tap.

    A multi-channel map is pooled by `maxpool2d`, and its values are dropped
    once pooled: the tape keeps only the pool's routing masks. A one-channel
    input (a network's first layer, whose map is 128 times the input) is
    computed, biased and pooled one block of output channels at a time, each
    block about `_MAP_BUDGET` bytes, so the full map is never built. Row
    blocks of the forward GEMM give the full product's bits as long as no
    block is a single row (a matrix-vector product rounds differently), so
    the split is even and every block has at least 2 rows. Under a tape the
    blocks' routing masks are joined into the whole map's, so the backward
    is maxpool2d's, then the conv's: one full map gradient and one weight
    gradient GEMM, whose row blocks would not be exact.

    The conv's backward rebuilds the im2col matrix from the input instead of
    keeping it (Cin*9 times the input's size) alive on the tape, and skips
    the input gradient when x is a constant.
    """
    xv, kv = x.values, kernel.values
    if xv.ndim != 3 or kv.ndim != 4:
        raise DimensionError(
            f"conv2d expects (Cin,bands,frames) and (Cout,Cin,3,3), got {xv.shape} and {kv.shape}"
        )
    c_out, c_in, kh, kw = kv.shape
    if (kh, kw) != (3, 3):
        raise ArgumentError(f"kernel spatial size must be 3x3, got {kh}x{kw}")
    if xv.shape[0] != c_in:
        raise DimensionError(
            f"conv2d channel mismatch: input {xv.shape} vs kernel {kv.shape}"
        )
    if bias.values.shape != (c_out,):
        raise DimensionError(
            f"conv2d bias shape {bias.values.shape} does not match {c_out} channels"
        )
    pool_frames, pool_bands = pool
    _check_pool(pool_frames, pool_bands)
    _, n_bands, n_frames = xv.shape
    kmat = kv.reshape(c_out, c_in * 9)
    cols = _im2col(xv)

    def conv_backward(g2):
        # g2: the (Cout, bands*frames) gradient of the unpooled map
        _accumulate(kernel, (g2 @ _im2col(xv).T).reshape(kv.shape))
        _accumulate(bias, g2.sum(axis=1))
        if x.constant:
            return
        dcols = (kmat.T @ g2).reshape(c_in, 3, 3, n_bands, n_frames)
        dx = np.zeros_like(xv)
        for i, j, src, dst in _taps(n_bands, n_frames):  # col2im
            dx[src] += dcols[:, i, j][dst]
        _accumulate(x, dx)

    if c_in > 1 or pool_frames == pool_bands == 1:
        outv = kmat @ cols
        del cols
        outv += bias.values[:, None]
        conv = _record(
            Tensor(outv.reshape(c_out, n_bands, n_frames)),
            lambda g: conv_backward(g.reshape(c_out, n_bands * n_frames)),
        )
        if pool_frames == pool_bands == 1:
            return conv
        out = maxpool2d(conv, pool_frames, pool_bands)
        conv.values = None  # only the pool read it, and a tape needs only its .grad
        return out

    taped = _recording.tape is not None
    outv = np.empty((c_out, -(-n_bands // pool_bands), -(-n_frames // pool_frames)))
    per_block = []  # each block's pooling stages
    for rows in _row_blocks(c_out, 8 * n_bands * n_frames):
        block = kmat[rows] @ cols
        block += bias.values[rows, None]
        pooled, stages = _pool(block.reshape(-1, n_bands, n_frames), pool_frames, pool_bands, taped)
        outv[rows] = pooled
        per_block.append(stages)
    del cols, block
    # the whole map's stages, as maxpool2d keeps them: the blocks' masks joined
    stages = [
        (axis, n, np.concatenate([b[i][2] for b in per_block]) if taped else None)
        for i, (axis, n, _) in enumerate(stages)
    ]

    def backward(g):
        conv_backward(_unpool(g, stages).reshape(c_out, n_bands * n_frames))

    return _record(Tensor(outv), backward)


def _row_blocks(c_out: int, row_bytes: int) -> list:
    """Row slices of a (c_out, ...) map whose rows hold `row_bytes` each: an
    even split into the fewest blocks of about `_MAP_BUDGET` bytes, with
    never fewer than 2 rows in a block (one block if c_out is 1)."""
    n = max(1, min(-(-c_out * row_bytes // _MAP_BUDGET), c_out // 2))
    return [slice(c_out * k // n, c_out * (k + 1) // n) for k in range(n)]


def _im2col(xv: np.ndarray) -> np.ndarray:
    # (Cin, bands, frames) -> (Cin*9, bands*frames), zero where a tap falls
    # on the padding ring
    c_in, n_bands, n_frames = xv.shape
    cols = np.zeros((c_in, 3, 3, n_bands, n_frames))
    for i, j, src, dst in _taps(n_bands, n_frames):
        cols[:, i, j][dst] = xv[src]
    return cols.reshape(c_in * 9, n_bands * n_frames)


def _taps(n_bands: int, n_frames: int):
    """Yield (i, j, src, dst) for each 3x3 tap, frame tap i outer and band
    tap j inner. Tap (i, j) of the output at (band b, frame t) reads the
    input at (band b + j - 1, frame t + i - 1), so it links the input block
    x[src] to the output block out[dst]; the part of a tap that falls on the
    zero ring is left out."""
    for i in range(3):
        frame_src, frame_dst = _tap_span(i - 1, n_frames)
        for j in range(3):
            band_src, band_dst = _tap_span(j - 1, n_bands)
            yield i, j, (slice(None), band_src, frame_src), (slice(None), band_dst, frame_dst)


def _tap_span(offset: int, n: int) -> tuple[slice, slice]:
    # (input, output) ranges along an axis of length n for offset -1, 0 or 1
    return slice(max(0, offset), n + min(0, offset)), slice(max(0, -offset), n - max(0, offset))


def maxpool2d(x: Tensor, pool_frames: int, pool_bands: int) -> Tensor:
    """Max pool of band-major (C, bands, frames) activations over windows of
    pool_frames x pool_bands, with ceil semantics: a non-divisible final
    window is pooled over its valid extent. NaN propagates to its window's
    output.

    The pool is separable: a max over band windows (axis 1), then a max over
    frame windows (axis 2) of that result. Each stage is an elementwise
    maximum over the strided views of its window blocks, padded with -inf
    only when its axis has a partial window. The gradient routes to the
    first frame-major maximal element of each window: band-then-frame, each
    stage routing to its own first maximum, picks exactly that element.
    Under a tape each stage keeps only a bool mask of those elements, never
    the pooled input.
    """
    _check_pool(pool_frames, pool_bands)
    xv = x.values
    if xv.ndim != 3:
        raise DimensionError(f"maxpool2d expects (C,bands,frames), got {xv.shape}")
    outv, stages = _pool(xv, pool_frames, pool_bands, _recording.tape is not None)
    out = Tensor(outv if stages else xv.copy())

    def backward(g):
        _accumulate(x, _unpool(g, stages))

    return _record(out, backward)


def _check_pool(pool_frames: int, pool_bands: int):
    if pool_frames < 1 or pool_bands < 1:
        raise ArgumentError(f"pool dims must be >= 1, got {pool_frames}x{pool_bands}")


def _pool(v: np.ndarray, pool_frames: int, pool_bands: int, taped: bool):
    """(pooled v, stages): band windows, then frame windows, with an
    (axis, input length, routing mask) stage for each axis that pools."""
    stages = []
    for axis, size in ((1, pool_bands), (2, pool_frames)):
        if size > 1:
            n = v.shape[axis]
            v, mask = _pool_axis(v, axis, size, taped)
            stages.append((axis, n, mask))
    return v, stages


def _unpool(g: np.ndarray, stages) -> np.ndarray:
    """Gradient of `_pool` from that of its output, through its stages."""
    for axis, n, mask in reversed(stages):
        g = _unpool_axis(g, axis, n, mask)
    return g


def _pool_axis(v: np.ndarray, axis: int, size: int, taped: bool):
    """Max over windows of `size` along `axis` (ceil semantics), plus the
    first-maximum routing mask over the window blocks when taped."""
    n = v.shape[axis]
    n_out = -(-n // size)
    if n_out * size != n:
        padded = np.full(v.shape[:axis] + (n_out * size,) + v.shape[axis + 1 :], -np.inf)
        padded[(slice(None),) * axis + (slice(0, n),)] = v
        v = padded
    blocks = v.reshape(v.shape[:axis] + (n_out, size) + v.shape[axis + 1 :])
    lead = (slice(None),) * (axis + 1)
    out = blocks[lead + (0,)].copy()
    for k in range(1, size):
        np.maximum(out, blocks[lead + (k,)], out=out)
    if not taped:
        return out, None
    mask = blocks == np.expand_dims(out, axis + 1)
    if np.count_nonzero(mask) != out.size or np.isnan(out).any():
        # ties or NaN: keep only the first maximum (argmax: first NaN) per window
        mask = np.zeros(blocks.shape, dtype=bool)
        first = np.expand_dims(blocks.argmax(axis=axis + 1), axis + 1)
        np.put_along_axis(mask, first, True, axis=axis + 1)
    return out, mask


def _unpool_axis(g: np.ndarray, axis: int, n: int, mask: np.ndarray) -> np.ndarray:
    """Gradient of one pooling stage: g at each window's routed element."""
    dblocks = np.where(mask, np.expand_dims(g, axis + 1), 0.0)
    merged = dblocks.reshape(mask.shape[:axis] + (-1,) + mask.shape[axis + 2 :])
    return merged[(slice(None),) * axis + (slice(0, n),)]


# ---------------------------------------------------------------------------
# bidirectional GRU

GRU_GATES = ("update", "reset", "cand")


@dataclass
class GRUCell:
    """Weights for one GRU direction.

    Gate equations (reset applied to the previous state before the candidate
    matmul, zero initial state):

        update = sigmoid(x W_u + h U_u + b_u)
        reset  = sigmoid(x W_r + h U_r + b_r)
        cand   = tanh(x W_c + (reset * h) U_c + b_c)
        h'     = update * h + (1 - update) * cand
    """

    w_update: Tensor
    w_reset: Tensor
    w_cand: Tensor
    u_update: Tensor
    u_reset: Tensor
    u_cand: Tensor
    b_update: Tensor
    b_reset: Tensor
    b_cand: Tensor

    def gates(self, kind: str) -> list:
        """The "w", "u" or "b" tensor of each gate, in GRU_GATES order."""
        return [getattr(self, f"{kind}_{gate}") for gate in GRU_GATES]

    def tensors(self):
        return self.gates("w") + self.gates("u") + self.gates("b")


def bigru_forward(x: Tensor, forward_cell: GRUCell, backward_cell: GRUCell) -> Tensor:
    """Run a GRU left-to-right and right-to-left over a time-major sequence
    and return the per-frame concatenation of the two states. x is (N, B, F),
    a batch of B sequences, giving (N, B, 2*units). Initial states are zero.

    Both directions advance in one time loop over a stacked (2, B, units)
    state: step t feeds frame t to the forward cell and frame N-1-t to the
    backward cell, and the update and reset gates share one recurrent matmul
    against [U_update | U_reset].
    """
    seq = x.values
    if seq.ndim != 3 or seq.shape[0] < 1:
        raise ArgumentError(f"bigru expects a non-empty (N,B,F) sequence, got {seq.shape}")
    n, b, f = seq.shape
    cells = (forward_cell, backward_cell)
    units = forward_cell.u_update.values.shape[0]
    # Each direction's rows in its own time order, and its input projections
    # for the whole sequence in one matmul: (N, direction, B, 3*units).
    rows = (seq.reshape(n * b, f), seq[::-1].reshape(n * b, f))
    proj = np.empty((n, 2, b, 3 * units))
    for d, cell in enumerate(cells):
        w = np.concatenate([cell.w_update.values, cell.w_reset.values, cell.w_cand.values], 1)
        bias = np.concatenate([cell.b_update.values, cell.b_reset.values, cell.b_cand.values])
        proj[:, d] = (rows[d] @ w + bias).reshape(n, b, 3 * units)
    u_gates = np.stack(
        [np.concatenate([c.u_update.values, c.u_reset.values], axis=1) for c in cells]
    )
    u_cand = np.stack([c.u_cand.values for c in cells])
    h = np.zeros((2, b, units))
    h_prev = np.empty((n, 2, b, units))
    gates = np.empty((n, 2, b, 2 * units))  # update | reset
    cand = np.empty((n, 2, b, units))
    hs = np.empty((n, 2, b, units))
    for t in range(n):
        h_prev[t] = h
        zr = _sigmoid_values(proj[t, ..., : 2 * units] + np.matmul(h, u_gates))
        z, r = zr[..., :units], zr[..., units:]
        c = np.tanh(proj[t, ..., 2 * units :] + np.matmul(r * h, u_cand))
        h = z * h + (1.0 - z) * c
        gates[t], cand[t], hs[t] = zr, c, h
    out = Tensor(np.concatenate([hs[:, 0], hs[::-1, 1]], axis=-1))

    def backward(g):
        dh_out = np.empty((n, 2, b, units))
        dh_out[:, 0] = g[..., :units]
        dh_out[:, 1] = g[::-1, :, units:]
        uu_t, ur_t, uc_t = (
            np.stack([t.values for t in pair]).transpose(0, 2, 1)
            for pair in zip(*(c.gates("u") for c in cells))
        )
        da = np.empty((n, 2, b, 3 * units))  # pre-activation grads: update | reset | cand
        carry = np.zeros((2, b, units))
        for t in range(n - 1, -1, -1):
            dh = dh_out[t] + carry
            z, r = gates[t, ..., :units], gates[t, ..., units:]
            c, hp = cand[t], h_prev[t]
            dz = dh * (hp - c)
            dc = dh * (1.0 - z)
            dhp = dh * z
            ac = dc * (1.0 - c * c)
            drh = np.matmul(ac, uc_t)
            dr = drh * hp
            dhp = dhp + drh * r
            az = dz * z * (1.0 - z)
            ar = dr * r * (1.0 - r)
            dhp = dhp + np.matmul(az, uu_t) + np.matmul(ar, ur_t)
            da[t, ..., :units], da[t, ..., units : 2 * units], da[t, ..., 2 * units :] = az, ar, ac
            carry = dhp
        dx = []
        for d, cell in enumerate(cells):
            a = da[:, d].reshape(n * b, 3 * units)
            a_gates = [a[:, k * units : (k + 1) * units] for k in range(len(GRU_GATES))]
            hp = h_prev[:, d].reshape(n * b, units)
            rh = (gates[:, d, :, units:] * h_prev[:, d]).reshape(n * b, units)
            # the inputs the gates multiply: x by each W, h by U_update and
            # U_reset, reset * h by U_cand
            grads = [v.T @ a_g for v, a_g in zip((rows[d],) * 3 + (hp, hp, rh), a_gates * 2)]
            grads += [a_g.sum(axis=0) for a_g in a_gates]
            for t, gv in zip(cell.tensors(), grads):
                _accumulate(t, gv)
            # (update + reset) + cand, each term made just before its sum
            terms = (a_g @ w.values.T for a_g, w in zip(a_gates, cell.gates("w")))
            dx.append(reduce(operator.add, terms).reshape(n, b, f))
        _accumulate(x, dx[0] + dx[1][::-1])

    return _record(out, backward)
