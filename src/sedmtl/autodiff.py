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
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None

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
        the loss keep `grad` None and their records are skipped.
        """
        if loss.values.size != 1:
            raise ArgumentError(
                f"backward needs a scalar loss, got shape {loss.values.shape}"
            )
        loss.grad = np.ones_like(loss.values)
        for out, backward_fn in reversed(self._records):
            if out.grad is not None:
                backward_fn(out.grad)


def _record(out: Tensor, backward_fn) -> Tensor:
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._records.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray):
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
    # Split by sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    """Same-padded 3x3 cross-correlation.

    x is (Cin, H, W), kernel (Cout, Cin, 3, 3), bias (Cout,); the output is
    (Cout, H, W) with one ring of zero padding. The im2col matrix is built
    channel-major, (Cin*9, H*W), so the forward GEMM `kmat @ cols` lands
    directly in the (Cout, H*W) output layout and the input gradient comes
    back as (Cin, 3, 3, H, W): one contiguous (H, W) plane per tap.
    """
    xv, kv = x.values, kernel.values
    if xv.ndim != 3 or kv.ndim != 4:
        raise DimensionError(
            f"conv2d expects (Cin,H,W) and (Cout,Cin,3,3), got {xv.shape} and {kv.shape}"
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
    _, h, w = xv.shape
    cols = np.zeros((c_in, 3, 3, h, w))
    for di, dj, src, dst in _taps(h, w):
        cols[:, di, dj][dst] = xv[src]
    cols = cols.reshape(c_in * 9, h * w)
    kmat = kv.reshape(c_out, c_in * 9)
    outv = kmat @ cols
    outv += bias.values[:, None]
    out = Tensor(outv.reshape(c_out, h, w))

    def backward(g):
        g2 = g.reshape(c_out, h * w)
        _accumulate(kernel, (g2 @ cols.T).reshape(kv.shape))
        _accumulate(bias, g2.sum(axis=1))
        dcols = (kmat.T @ g2).reshape(c_in, 3, 3, h, w)
        dx = np.zeros_like(xv)
        for di, dj, src, dst in _taps(h, w):  # col2im, taps in row-major order
            dx[src] += dcols[:, di, dj][dst]
        _accumulate(x, dx)

    return _record(out, backward)


def _taps(h: int, w: int):
    """Yield (di, dj, src, dst) for each 3x3 tap in row-major order. Tap
    (di, dj) of output pixel (i, j) reads input pixel (i + di - 1, j + dj - 1),
    so it links the input block x[src] to the output block out[dst]; the part
    of a tap that falls on the zero ring is left out."""
    for di in range(3):
        row_src, row_dst = _tap_span(di - 1, h)
        for dj in range(3):
            col_src, col_dst = _tap_span(dj - 1, w)
            yield di, dj, (slice(None), row_src, col_src), (slice(None), row_dst, col_dst)


def _tap_span(offset: int, n: int) -> tuple[slice, slice]:
    # (input, output) ranges along an axis of length n for offset -1, 0 or 1
    return slice(max(0, offset), n + min(0, offset)), slice(max(0, -offset), n - max(0, offset))


def maxpool2d(x: Tensor, pool_h: int, pool_w: int) -> Tensor:
    """Max pool with ceil semantics: a non-divisible final window is pooled
    over its valid extent (the input is padded with -inf only then). NaN
    propagates to its window's output. The forward pass is an elementwise
    maximum over the pool_h*pool_w strided views of the window blocks; the
    gradient routes to the first (row-major) maximal element of each window,
    whose index is computed only when the backward pass runs.
    """
    if pool_h < 1 or pool_w < 1:
        raise ArgumentError(f"pool dims must be >= 1, got {pool_h}x{pool_w}")
    xv = x.values
    if xv.ndim != 3:
        raise DimensionError(f"maxpool2d expects (C,H,W), got {xv.shape}")
    c, h, w = xv.shape
    out_h = -(-h // pool_h)
    out_w = -(-w // pool_w)
    full_h, full_w = out_h * pool_h, out_w * pool_w
    if (full_h, full_w) == (h, w):
        padded = xv
    else:
        padded = np.full((c, full_h, full_w), -np.inf)
        padded[:, :h, :w] = xv
    blocks = padded.reshape(c, out_h, pool_h, out_w, pool_w)
    outv = blocks[:, :, 0, :, 0].copy()
    for di in range(pool_h):
        for dj in range(pool_w):
            if di or dj:
                np.maximum(outv, blocks[:, :, di, :, dj], out=outv)
    out = Tensor(outv)

    def backward(g):
        windows = blocks.transpose(0, 1, 3, 2, 4).reshape(c, out_h, out_w, pool_h * pool_w)
        arg = windows.argmax(axis=-1)[..., None]  # first occurrence on ties
        dwin = np.zeros((c, out_h, out_w, pool_h * pool_w))
        np.put_along_axis(dwin, arg, g[..., None], axis=-1)
        dpad = dwin.reshape(c, out_h, out_w, pool_h, pool_w).transpose(0, 1, 3, 2, 4)
        _accumulate(x, dpad.reshape(c, full_h, full_w)[:, :h, :w])

    return _record(out, backward)


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


def _gru_direction_forward(xv, cell: GRUCell):
    n = xv.shape[0]
    units = cell.u_update.values.shape[0]
    # Input projections for the whole sequence in one matmul per gate.
    xu = xv @ cell.w_update.values + cell.b_update.values
    xr = xv @ cell.w_reset.values + cell.b_reset.values
    xc = xv @ cell.w_cand.values + cell.b_cand.values
    h = np.zeros(units)
    h_prev = np.empty((n, units))
    upd = np.empty((n, units))
    rst = np.empty((n, units))
    cand = np.empty((n, units))
    hs = np.empty((n, units))
    uu, ur, uc = cell.u_update.values, cell.u_reset.values, cell.u_cand.values
    for t in range(n):
        h_prev[t] = h
        z = _sigmoid_values(xu[t] + h @ uu)
        r = _sigmoid_values(xr[t] + h @ ur)
        c = np.tanh(xc[t] + (r * h) @ uc)
        h = z * h + (1.0 - z) * c
        upd[t], rst[t], cand[t], hs[t] = z, r, c, h
    return hs, (h_prev, upd, rst, cand)


def _gru_direction_backward(xv, cell: GRUCell, cache, dh_out):
    h_prev, upd, rst, cand = cache
    n, units = dh_out.shape
    uu, ur, uc = cell.u_update.values, cell.u_reset.values, cell.u_cand.values
    da_u = np.empty((n, units))
    da_r = np.empty((n, units))
    da_c = np.empty((n, units))
    carry = np.zeros(units)
    for t in range(n - 1, -1, -1):
        dh = dh_out[t] + carry
        z, r, c, hp = upd[t], rst[t], cand[t], h_prev[t]
        dz = dh * (hp - c)
        dc = dh * (1.0 - z)
        dhp = dh * z
        ac = dc * (1.0 - c * c)
        drh = ac @ uc.T
        dr = drh * hp
        dhp = dhp + drh * r
        az = dz * z * (1.0 - z)
        ar = dr * r * (1.0 - r)
        dhp = dhp + az @ uu.T + ar @ ur.T
        da_u[t], da_r[t], da_c[t] = az, ar, ac
        carry = dhp
    grads = {
        "w_update": xv.T @ da_u,
        "w_reset": xv.T @ da_r,
        "w_cand": xv.T @ da_c,
        "u_update": h_prev.T @ da_u,
        "u_reset": h_prev.T @ da_r,
        "u_cand": (rst * h_prev).T @ da_c,
        "b_update": da_u.sum(axis=0),
        "b_reset": da_r.sum(axis=0),
        "b_cand": da_c.sum(axis=0),
    }
    dx = (
        da_u @ cell.w_update.values.T
        + da_r @ cell.w_reset.values.T
        + da_c @ cell.w_cand.values.T
    )
    return dx, grads


def bigru_forward(x: Tensor, forward_cell: GRUCell, backward_cell: GRUCell) -> Tensor:
    """Run a GRU left-to-right and right-to-left over x (N, F) and return the
    per-frame concatenation (N, 2*units). Initial states are zero.
    """
    xv = x.values
    if xv.ndim != 2 or xv.shape[0] < 1:
        raise ArgumentError(f"bigru expects a non-empty (N,F) sequence, got {xv.shape}")
    hs_f, cache_f = _gru_direction_forward(xv, forward_cell)
    xv_rev = xv[::-1]
    hs_b, cache_b = _gru_direction_forward(xv_rev, backward_cell)
    out = Tensor(np.concatenate([hs_f, hs_b[::-1]], axis=1))

    def backward(g):
        units = hs_f.shape[1]
        dx_f, grads_f = _gru_direction_backward(xv, forward_cell, cache_f, g[:, :units])
        dx_b, grads_b = _gru_direction_backward(
            xv_rev, backward_cell, cache_b, g[::-1, units:]
        )
        _accumulate(x, dx_f + dx_b[::-1])
        for cell, grads in ((forward_cell, grads_f), (backward_cell, grads_b)):
            for name, gv in grads.items():
                _accumulate(getattr(cell, name), gv)

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
