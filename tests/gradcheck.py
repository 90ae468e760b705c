"""Finite-difference gradient checks of `sedmtl.autodiff` ops and losses.

`grad_check(fn, inputs)` compares the tape's gradients of a weighted sum of
`fn(*inputs)` with central differences over every input element; the
autodiff, loss and acceptance tests assert on its report. `weighted_sum`
is the scalar loss those tests build from an op's output, and
`recording_ops` names the ops whose gradients need checking.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sedmtl import autodiff
from sedmtl.autodiff import Tape, Tensor, dense, reshape
from sedmtl.errors import ArgumentError


def recording_ops() -> set:
    """The names of the public `sedmtl.autodiff` functions whose body calls
    `_record`: every op a tape records."""
    tree = ast.parse(Path(autodiff.__file__).read_text(encoding="utf-8"))
    return {
        owner.name
        for owner in tree.body
        if isinstance(owner, ast.FunctionDef) and not owner.name.startswith("_")
        and any(getattr(node, "id", None) == "_record" for node in ast.walk(owner))
    }


def zero_grads(tensors):
    """Drop the gradients of `tensors`, so the next backward starts from none."""
    for t in tensors:
        t.grad = None


def weighted_sum(out: Tensor, weights=None) -> Tensor:
    """sum(out * weights) as a (1, 1) tensor, one weight per element of out
    (all ones by default): a dense layer with a zero bias, so d/d(out) is the
    weights, exactly."""
    w = np.ones(out.size) if weights is None else np.asarray(weights, dtype=np.float64)
    return dense(reshape(out, (1, -1)), Tensor(w.reshape(-1, 1)), Tensor(np.zeros(1)))


@dataclass
class GradCheckReport:
    """Max relative error per input and overall, from one finite-difference run.

    The relative error of an input is max|analytic - numeric| normalized by
    the larger of the two gradients' max magnitudes (floored at 1e-12), which
    keeps the measure meaningful when individual entries are near zero.
    """

    per_input: list[float]
    max_rel_err: float


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
        loss = weighted_sum(out, weights)
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
