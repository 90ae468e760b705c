"""The four training objectives, as differentiable scalar ops.

Event detection uses a summed sigmoid cross-entropy over all (class, frame)
cells; scene classification uses a softmax cross-entropy against either a
one-hot label or a temperature-softened teacher distribution. The joint
objective weights the scene term by alpha (hard) or beta (soft).

All ops are fused: forward passes use log-sum-exp / log1p stabilizations and
backward passes use the exact closed-form gradients, recorded on the active
autodiff tape.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate, _record, _sigmoid_values
from .errors import ArgumentError, DimensionError


def event_loss(logits: Tensor, roll: np.ndarray, mask: np.ndarray) -> Tensor:
    """Summed sigmoid cross-entropy between a batch of B chunks' (B, M, N)
    event logits and binary activity rolls, restricted to frames where the
    (B, N) mask is nonzero.

    Computed in the logit form max(y,0) - y*z + log(1 + exp(-|y|)), which is
    exact and never overflows.
    """
    y = logits.values
    roll = np.asarray(roll, dtype=np.float64)
    if y.ndim != 3 or roll.shape != y.shape:
        raise DimensionError(
            f"event roll shape {roll.shape} does not match (B, M, N) logits {y.shape}"
        )
    frames = (y.shape[0], y.shape[2])
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != frames:
        raise DimensionError(
            f"mask shape {mask.shape} does not match logits {y.shape}, expected {frames}"
        )
    mask = np.expand_dims(mask, -2)  # broadcast over the M classes
    cell = np.maximum(y, 0.0) - y * roll + np.log1p(np.exp(-np.abs(y)))
    out = Tensor((cell * mask).sum())

    def backward(g):
        _accumulate(logits, float(g) * (_sigmoid_values(y) - roll) * mask)

    return _record(out, backward)


def _log_softmax(u: np.ndarray) -> np.ndarray:
    shifted = u - u.max()
    return shifted - np.log(np.exp(shifted).sum())


def scene_hard_loss(logits: Tensor, scene: int) -> Tensor:
    """Softmax cross-entropy of scene logits against the one-hot label of
    scene index `scene`."""
    n_scenes = logits.values.size
    if not 0 <= scene < n_scenes:
        raise ArgumentError(f"scene index {scene} is outside 0..{n_scenes - 1}")
    one_hot = np.zeros(n_scenes)
    one_hot[scene] = 1.0
    return _scene_cross_entropy(logits, one_hot, 1.0)


def distill_targets(teacher_logits: np.ndarray, temperature: float) -> np.ndarray:
    """Teacher soft label: the temperature softmax of a non-empty logit
    vector, exp(x_c / T) / sum_i exp(x_i / T), with the max of x / T
    subtracted before exponentiation.

    Plain numpy, never taped: gradients do not flow into the teacher.
    """
    if temperature <= 0.0:
        raise ArgumentError(f"temperature must be positive, got {temperature}")
    x = np.asarray(teacher_logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ArgumentError(f"softmax expects a non-empty vector, got shape {x.shape}")
    with np.errstate(over="ignore"):
        u = x / temperature
    if not np.isfinite(u).all():
        raise ArgumentError(f"teacher logits / temperature {temperature} are not finite")
    u = u - u.max()
    e = np.exp(u)
    return e / e.sum()


def soft_scene_loss(logits: Tensor, soft_target: np.ndarray, temperature: float) -> Tensor:
    """Cross-entropy between the temperature softmax of the student's scene
    logits and a fixed soft target distribution.

    Finite logits whose quotient by the temperature overflows raise an
    ArgumentError naming it; logits that are not finite (a diverging step's)
    are left to the caller's loss check.
    """
    if temperature <= 0.0:
        raise ArgumentError(f"temperature must be positive, got {temperature}")
    p = np.asarray(soft_target, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-6 or np.any(p < 0.0):
        raise ArgumentError("soft target is not a normalized probability vector")
    x = logits.values
    if np.isfinite(x).all():
        with np.errstate(over="ignore"):
            if not np.isfinite(x / temperature).all():
                raise ArgumentError(f"scene logits / temperature {temperature} are not finite")
    return _scene_cross_entropy(logits, p, temperature)


def _scene_cross_entropy(logits: Tensor, p: np.ndarray, temperature: float) -> Tensor:
    if p.shape != logits.values.shape:
        raise DimensionError(
            f"target shape {p.shape} does not match logits {logits.values.shape}"
        )
    lsm = _log_softmax(logits.values / temperature)
    out = Tensor(-(p * lsm).sum())

    def backward(g):
        _accumulate(logits, float(g) * (np.exp(lsm) - p) / temperature)

    return _record(out, backward)


def joint_objective(event_term: Tensor, scene_term: Tensor, weight: float) -> Tensor:
    """Event loss plus `weight` times a scene loss: alpha times the hard one
    (MTL) or beta times the soft one (the proposed objective)."""
    return ad.add(event_term, ad.scale(scene_term, weight))
