"""Minimal reverse-mode autodiff on dense float64 arrays.

Values live in `Tensor` objects backed by numpy float64 buffers. Ops executed
while a `Tape` is active append their backward closures to the tape in
execution order; `Tape.backward` replays them in exact reverse order, so two
identical forward passes produce bit-identical gradients. Ops executed with
no active tape run forward-only.

The op set is exactly what the networks and losses need: elementwise
arithmetic, matmul, same-padded 3x3 convolution, max pooling with partial
final windows, a bidirectional GRU, the usual activations, and a temperature
softmax. `grad_check` verifies any op against central finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError

_ACTIVE_TAPE = None


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


def tensor(values) -> Tensor:
    """Wrap raw values in a leaf Tensor."""
    return Tensor(values)


class Tape:
    """Ordered record of executed primitives for one forward/backward cycle.

    Use as a context manager around the forward pass; at most one tape may be
    active at a time. Records are (output tensor, backward closure) pairs in
    execution order, which is a topological order by construction.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("another tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
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
        for out, backward_fn in reversed(self._records):
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def _record(out: Tensor, backward_fn) -> Tensor:
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._records.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.constant:
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values * b.values)

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

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


def stack(tensors, axis: int = 0) -> Tensor:
    """Join equal-shape tensors along a new axis."""
    out = Tensor(np.stack([t.values for t in tensors], axis=axis))

    def backward(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _record(out, backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = Tensor(np.transpose(a.values, axes))
    inverse = None if axes is None else np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

    return _record(out, backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())

    def backward(g):
        _accumulate(a, np.full_like(a.values, float(g)))

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


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_values(a.values)
    out = Tensor(s)

    def backward(g):
        _accumulate(a, g * s * (1.0 - s))

    return _record(out, backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    out = Tensor(t)

    def backward(g):
        _accumulate(a, g * (1.0 - t * t))

    return _record(out, backward)


def softmax_temperature(logits: Tensor, temperature: float) -> Tensor:
    """Temperature softmax over a 1-D logit vector.

    Computes exp(x_c / T) / sum_i exp(x_i / T), stabilized by subtracting the
    max of x / T before exponentiation.
    """
    if temperature <= 0.0:
        raise ArgumentError(f"temperature must be positive, got {temperature}")
    if logits.values.ndim != 1 or logits.values.size == 0:
        raise ArgumentError(
            f"softmax expects a non-empty vector, got shape {logits.values.shape}"
        )
    u = logits.values / temperature
    u = u - u.max()
    e = np.exp(u)
    p = e / e.sum()
    out = Tensor(p)

    def backward(g):
        _accumulate(logits, (p * (g - np.dot(g, p))) / temperature)

    return _record(out, backward)


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
    """Affine map x @ weight + bias; x may be a vector or a (rows, F) matrix."""
    if x.values.ndim == 1:
        return reshape(add(matmul(reshape(x, (1, -1)), weight), bias), (-1,))
    return add(matmul(x, weight), bias)


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-padded 3x3 cross-correlation over band-major activations.

    x is (Cin, bands, frames), kernel (Cout, Cin, 3 frame taps, 3 band taps),
    bias (Cout,); the output is (Cout, bands, frames) with one ring of zero
    padding. The frame axis is the contiguous one, so each tap copy moves
    whole runs of frames. The im2col matrix is built channel-major,
    (Cin*9, bands*frames) with rows in (cin, frame tap, band tap) order, so
    the forward GEMM `kmat @ cols` lands directly in the (Cout, bands*frames)
    output layout and the input gradient comes back as
    (Cin, 3, 3, bands, frames): one contiguous plane per tap.

    The backward pass rebuilds the im2col matrix from the input instead of
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
    _, n_bands, n_frames = xv.shape
    kmat = kv.reshape(c_out, c_in * 9)
    outv = kmat @ _im2col(xv)
    outv += bias.values[:, None]
    out = Tensor(outv.reshape(c_out, n_bands, n_frames))

    def backward(g):
        g2 = g.reshape(c_out, n_bands * n_frames)
        _accumulate(kernel, (g2 @ _im2col(xv).T).reshape(kv.shape))
        _accumulate(bias, g2.sum(axis=1))
        if x.constant:
            return
        dcols = (kmat.T @ g2).reshape(c_in, 3, 3, n_bands, n_frames)
        dx = np.zeros_like(xv)
        for i, j, src, dst in _taps(n_bands, n_frames):  # col2im
            dx[src] += dcols[:, i, j][dst]
        _accumulate(x, dx)

    return _record(out, backward)


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
    if pool_frames < 1 or pool_bands < 1:
        raise ArgumentError(f"pool dims must be >= 1, got {pool_frames}x{pool_bands}")
    xv = x.values
    if xv.ndim != 3:
        raise DimensionError(f"maxpool2d expects (C,bands,frames), got {xv.shape}")
    taped = _ACTIVE_TAPE is not None
    stages = []  # (axis, input length, routing mask) per stage that pools
    outv = xv
    for axis, size in ((1, pool_bands), (2, pool_frames)):
        if size > 1:
            n = outv.shape[axis]
            outv, mask = _pool_axis(outv, axis, size, taped)
            stages.append((axis, n, mask))
    out = Tensor(outv if stages else xv.copy())

    def backward(g):
        for axis, n, mask in reversed(stages):
            g = _unpool_axis(g, axis, n, mask)
        _accumulate(x, g)

    return _record(out, backward)


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

    def tensors(self):
        return [
            self.w_update, self.w_reset, self.w_cand,
            self.u_update, self.u_reset, self.u_cand,
            self.b_update, self.b_reset, self.b_cand,
        ]


def bigru_forward(x: Tensor, forward_cell: GRUCell, backward_cell: GRUCell) -> Tensor:
    """Run a GRU left-to-right and right-to-left over a time-major sequence
    and return the per-frame concatenation of the two states. x is (N, B, F),
    a batch of B sequences, giving (N, B, 2*units); a 2-D (N, F) x is a batch
    of one and gives (N, 2*units). Initial states are zero.

    Both directions advance in one time loop over a stacked (2, B, units)
    state: step t feeds frame t to the forward cell and frame N-1-t to the
    backward cell, and the update and reset gates share one recurrent matmul
    against [U_update | U_reset].
    """
    xv = x.values
    if xv.ndim not in (2, 3) or xv.shape[0] < 1:
        raise ArgumentError(
            f"bigru expects a non-empty (N,F) or (N,B,F) sequence, got {xv.shape}"
        )
    seq = xv[:, None, :] if xv.ndim == 2 else xv
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
    outv = np.concatenate([hs[:, 0], hs[::-1, 1]], axis=-1)
    out = Tensor(outv.reshape(xv.shape[:-1] + (2 * units,)))

    def backward(g):
        g = g.reshape(n, b, 2 * units)
        dh_out = np.empty((n, 2, b, units))
        dh_out[:, 0] = g[..., :units]
        dh_out[:, 1] = g[::-1, :, units:]
        uu_t, ur_t, uc_t = (
            np.stack([getattr(c, name).values for c in cells]).transpose(0, 2, 1)
            for name in ("u_update", "u_reset", "u_cand")
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
            a_u, a_r, a_c = a[:, :units], a[:, units : 2 * units], a[:, 2 * units :]
            hp = h_prev[:, d].reshape(n * b, units)
            rh = (gates[:, d, :, units:] * h_prev[:, d]).reshape(n * b, units)
            grads = {
                "w_update": rows[d].T @ a_u,
                "w_reset": rows[d].T @ a_r,
                "w_cand": rows[d].T @ a_c,
                "u_update": hp.T @ a_u,
                "u_reset": hp.T @ a_r,
                "u_cand": rh.T @ a_c,
                "b_update": a_u.sum(axis=0),
                "b_reset": a_r.sum(axis=0),
                "b_cand": a_c.sum(axis=0),
            }
            for name, gv in grads.items():
                _accumulate(getattr(cell, name), gv)
            dx.append(
                (
                    a_u @ cell.w_update.values.T
                    + a_r @ cell.w_reset.values.T
                    + a_c @ cell.w_cand.values.T
                ).reshape(n, b, f)
            )
        _accumulate(x, (dx[0] + dx[1][::-1]).reshape(xv.shape))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    """Max relative error per input and overall, from one finite-difference run.

    The relative error of an input is max|analytic - numeric| normalized by
    the larger of the two gradients' max magnitudes (floored at 1e-12), which
    keeps the measure meaningful when individual entries are near zero.
    """

    per_input: list[float]
    max_rel_err: float

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol


def grad_check(fn, inputs, eps: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of a scalar reduction of fn(*inputs) against
    central finite differences over every element of every input.

    The reduction is a fixed pseudorandom weighted sum (seeded), which avoids
    blind spots where a plain sum has zero gradient (e.g. softmax outputs).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ArgumentError(f"eps must be in [1e-7, 1e-3], got {eps}")
    inputs = list(inputs)
    for t in inputs:
        t.values = np.ascontiguousarray(t.values)  # flat views must alias
    probe = fn(*inputs)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=probe.values.shape)

    def objective_value(out_values: np.ndarray) -> float:
        return float((out_values * weights).sum())

    zero_grads(inputs)
    with Tape() as tape:
        out = fn(*inputs)
        loss = sum_all(mul(out, tensor(weights)))
    tape.backward(loss)
    analytic = [
        np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in inputs
    ]

    per_input = []
    for t, a in zip(inputs, analytic):
        numeric = np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = objective_value(fn(*inputs).values)
            flat[i] = orig - eps
            down = objective_value(fn(*inputs).values)
            flat[i] = orig
            nflat[i] = (up - down) / (2.0 * eps)
        denom = max(np.abs(a).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
        per_input.append(float(np.abs(a - numeric).max(initial=0.0) / denom))
    return GradCheckReport(per_input=per_input, max_rel_err=max(per_input))
