"""Span tracing of the sedmtl package from outside the program.

`Tracer.install` replaces every public function of the traced modules, and
the public methods of their classes, with a wrapper that records a span
(name, start, end, parent span, run id). Names that other sedmtl modules bound
with `from ... import` are replaced as well, so a call is traced whichever
module it goes through. `uninstall` puts the original objects back.

Spans stay in memory; `summarize` turns them into per-function and
per-module counts, total and self times (a span's duration minus the part of
it that its child spans cover). A few wrappers also keep counters, either
measured at the call boundary (file bytes, tape length, merged rows, distinct
posterior requests) or computed from argument shapes (convolution FLOPs and
im2col bytes, pooling bytes, GRU steps). The wrappers only read their
arguments and results, so traced and untraced runs write identical bytes.
"""

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "autodiff", "networks", "losses", "training",
    "evaluation", "features", "data", "cli",
)


def _public_callables(module):
    """(owner, attribute, raw object, span name) for each traced callable."""
    short = module.__name__.split(".")[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    yield obj, attr, raw, f"{short}.{obj.__name__}.{attr}"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._kernel_layers = {}  # id(kernel Tensor) -> layer name
        self._posterior_keys = set()
        self._autodiff = sys.modules[f"{package}.autodiff"]
        self._hooks = {
            "autodiff.conv2d": self._on_conv2d,
            "autodiff.maxpool2d": self._on_maxpool2d,
            "autodiff.bigru_forward": self._on_bigru,
            "autodiff.Tape.backward": self._on_backward,
            "networks.ModelParams.add": self._on_param_add,
            "networks.save_checkpoint": self._on_save_checkpoint,
            "features.read_feature_cache": self._on_read_cache,
            "features.write_feature_cache": self._on_write_cache,
            "training.student_posteriors": self._on_posteriors,
            "training.train_teacher": self._on_train,
            "training.train_student": self._on_train,
            "evaluation.SegmentCounts.merge": self._on_merge,
        }
        self._mode_split = {"networks.student_forward", "networks.teacher_forward"}

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package}.{short}"]
            for owner, attr, raw, span_name in _public_callables(module):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    wrapped = self._wrap(raw, span_name)
                    originals[id(raw)] = (raw, wrapped)
                self._patch(owner, attr, wrapped)
        # Names bound elsewhere by `from ... import`.
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def unpatched_bindings(self):
        """Names in sedmtl modules still bound to an unwrapped traced function."""
        wrapped_originals = {
            id(o): o for owner, _, o in self._patched if inspect.isfunction(o)
        }
        missing = []
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(self.package + "."):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in wrapped_originals and wrapped_originals[id(obj)] is obj:
                    missing.append(f"{mod_name}.{attr}")
        return missing

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(span_name)
        split = span_name in self._mode_split
        autodiff = self._autodiff
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = span_name
            if split:
                name += ".train" if autodiff._ACTIVE_TAPE is not None else ".infer"
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(span_name, args, result, span[2] - span[1])
            return result

        return functools.wraps(fn)(traced)

    # -- counter hooks -----------------------------------------------------

    def _on_conv2d(self, name, args, result, seconds):
        x, kernel = args[0], args[1]
        c_out, c_in = kernel.shape[0], kernel.shape[1]
        _, h, w = x.shape
        self.counters["autodiff.conv2d.flop"] += 2.0 * h * w * c_out * c_in * 9
        self.counters["autodiff.conv2d.im2col_bytes"] += 8.0 * h * w * c_in * 9
        layer = self._kernel_layers.get(id(kernel))
        if layer is not None:
            self.counters[f"networks.layer.{layer}.fwd_s"] += seconds

    def _on_maxpool2d(self, name, args, result, seconds):
        # input read once plus output written once, float64
        self.counters["autodiff.maxpool2d.bytes"] += 8.0 * (args[0].size + result.size)

    def _on_bigru(self, name, args, result, seconds):
        self.counters["autodiff.bigru_forward.steps"] += 2 * args[0].shape[0]

    def _on_backward(self, name, args, result, seconds):
        self.counters["autodiff.tape.records"] += len(args[0])

    def _on_param_add(self, name, args, result, seconds):
        name = args[1]
        if name.endswith(".kernel"):
            self._kernel_layers[id(result)] = name[: -len(".kernel")]

    def _on_save_checkpoint(self, name, args, result, seconds):
        self.counters["networks.save_checkpoint.bytes"] += os.path.getsize(args[0])

    def _on_read_cache(self, name, args, result, seconds):
        self.counters["features.read_feature_cache.bytes"] += os.path.getsize(args[0])

    def _on_write_cache(self, name, args, result, seconds):
        self.counters["features.write_feature_cache.bytes"] += os.path.getsize(args[0])

    def _on_posteriors(self, name, args, result, seconds):
        params, clip = args[0], args[1]
        digest = hashlib.sha1()
        for name in ("trunk1.kernel", "event_out.weight", "event_out.bias"):
            digest.update(params[name].values.tobytes())
        digest.update(clip.features.data[:, :4].tobytes())
        self._posterior_keys.add((digest.hexdigest(), clip.clip_id, clip.features.n_frames))

    def _on_train(self, name, args, result, seconds):
        self.counters[f"{name}.epochs"] += len(result.log)

    def _on_merge(self, name, args, result, seconds):
        # the merge concatenates both per-segment lists into a new one
        self.counters["evaluation.SegmentCounts.merge.rows_copied"] += len(result.per_segment)

    # -- summaries ---------------------------------------------------------

    def distinct_posterior_requests(self) -> int:
        return len(self._posterior_keys)

    def reset(self):
        """Drop counters between runs; spans are kept, tagged by run id."""
        self.counters.clear()
        self._posterior_keys.clear()


def summarize(spans, run_id):
    """Per span name of one run: calls, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _, run), covered in zip(spans, child_time):
        if run != run_id:
            continue
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered
    return dict(table)


def per_module(table):
    """Fold a per-function summary into per-module calls and self seconds."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, row in table.items():
        module = name.split(".")[0]
        out[module]["calls"] += row["calls"]
        out[module]["self_s"] += row["self_s"]
    return dict(out)
