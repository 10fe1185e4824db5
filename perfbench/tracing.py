"""Spans around the program's public functions, and the per-layer metrics they give.

The program is not edited.  ``install`` replaces each function in ``TARGETS``
at the module attribute its callers resolve (``interactive.net.apply_conv``
for ``forward``, and separately ``interactive.oracle.apply_conv`` for the
finite-difference replays), so every call records a span: name, start, end,
parent and an optional tag.  Spans are kept per op and folded into totals
when the op ends.  A span's self time is its duration minus its children's
durations (calls are single-threaded, so children never overlap), and the op
itself is the root span, so the self times of one op add up to its latency
exactly; the root's self time is ``cli.self_ms``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _register_layers(tracer, args, kwargs, spec):
    tracer.layer_names.update({id(layer): name for layer, name in zip(spec.layers, spec.names)})
    tracer.specs.append(spec)  # keeps ids unique while the op runs


def _conv_tag(tracer, args, kwargs, out):
    layer = args[0]
    kw, kh, din, dout = layer.kernel.shape
    return tracer.layer_names.get(id(layer), "unknown"), out.shape[0] * out.shape[1] * kw * kh * din * dout


def _pool_tag(tracer, args, kwargs, out):
    return tracer.layer_names.get(id(args[0]), "unknown"), 0


def _probe_tag(tracer, args, kwargs, result):
    return result is not None


# (span name, module, attribute, tag function).  One span name may sit at
# several attributes: each caller module that imported the function by name.
TARGETS = (
    ("model_io.load", "interactive.cli", "load_model", _register_layers),
    ("image.read", "interactive.cli", "read_image", None),
    ("image.resample", "interactive.cli", "resample_to", None),
    ("image.heatmap_out", "interactive.cli", "bilinear_resize", None),
    ("image.heatmap_out", "interactive.cli", "write_image", None),
    ("net.forward", "interactive.cli", "forward", None),
    ("net.forward", "interactive.evalharness", "forward", None),
    ("net.forward", "interactive.oracle", "forward", None),
    ("net.apply_conv", "interactive.net", "apply_conv", _conv_tag),
    ("net.apply_conv", "interactive.oracle", "apply_conv", _conv_tag),
    ("net.apply_pool", "interactive.net", "apply_pool", _pool_tag),
    ("net.apply_pool", "interactive.oracle", "apply_pool", _pool_tag),
    ("activeness.neuron_activeness", "interactive.cli", "neuron_activeness", None),
    ("activeness.neuron_activeness", "interactive.evalharness", "neuron_activeness", None),
    ("activeness.backprop_score", "interactive.activeness", "backprop_score", None),
    ("activeness.backprop_score", "interactive.cli", "backprop_score", None),
    ("activeness.backprop_score", "interactive.oracle", "backprop_score", None),
    ("oracle.fd_probe", "interactive.cli", "fd_connection_check", _probe_tag),
    ("oracle.enumerate_gamma", "interactive.cli", "enumerate_gamma", None),
    ("evalharness.compare", "interactive.cli", "compare_pipelines", None),
    ("evalharness.dataset", "interactive.evalharness", "toy_samples", None),
    ("evalharness.train_linear", "interactive.evalharness", "train_linear", None),
    ("tensor.from_array", "interactive.tensor", "Tensor3.from_array", None),
)

NET_LAYERS = ("conv-1", "conv-2", "conv-3", "pool-1", "pool-2")

# Per-layer metrics: name -> (unit, better).  Times are ms per op, counts are
# calls per op, both averaged over the traced ops of a run.
PER_LAYER = {
    "cli.self_ms": ("ms", "lower"),
    "model_io.load_ms": ("ms", "lower"),
    "image.read_ms": ("ms", "lower"),
    "image.resample_ms": ("ms", "lower"),
    "image.heatmap_out_ms": ("ms", "lower"),
    "net.forward_ms": ("ms", "lower"),
    **{f"net.{layer}_ms": ("ms", "lower") for layer in NET_LAYERS},
    "net.apply_conv_calls": ("count", "lower"),
    "net.conv_gmac_per_s": ("GMAC/s", "higher"),
    "activeness.neuron_activeness_ms": ("ms", "lower"),
    "activeness.calls": ("count", "lower"),
    "activeness.backprop_score_ms": ("ms", "lower"),
    "activeness.gamma_hop_ms": ("ms", "lower"),
    "oracle.fd_probe_ms": ("ms", "lower"),
    "oracle.fd_probes": ("count", "higher"),
    "oracle.fd_compared_frac": ("fraction", "higher"),
    "oracle.enumerate_gamma_ms": ("ms", "lower"),
    "evalharness.compare_self_ms": ("ms", "lower"),
    "evalharness.dataset_ms": ("ms", "lower"),
    "evalharness.train_linear_ms": ("ms", "lower"),
    "evalharness.train_linear_calls": ("count", "lower"),
    "tensor.from_array_calls": ("count", "lower"),
    "tensor.from_array_ms": ("ms", "lower"),
    "trace.untraced_op_ms": ("ms", "lower"),
    "trace.traced_op_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _resolve(owner, attr: str):
    """(object holding the final attribute, final name, raw attribute value)."""
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.stack = []
        self.layer_names = {}
        self.specs = []
        self.installed = []  # (owner, attribute, original value)
        self.missing = []  # targets that did not resolve at the last install
        self.ops = 0
        self.op_time = 0.0
        self.total = defaultdict(float)  # inclusive time per span name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.by_layer = defaultdict(float)
        self.conv_macs = 0
        self.probes_compared = 0

    def _wrap(self, name, fn, tag_fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tag_fn is not None:
                span[4] = tag_fn(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the ones that do not resolve, untouched."""
        missing = []
        for name, module, attr, tag_fn in targets:
            try:
                owner, last, raw = _resolve(importlib.import_module(module), attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, tag_fn))
            else:
                new = self._wrap(name, raw, tag_fn)
            setattr(owner, last, new)
            self.installed.append((owner, last, raw))
        self.missing = missing
        return missing

    def uninstall(self) -> None:
        for owner, last, raw in reversed(self.installed):
            setattr(owner, last, raw)
        self.installed.clear()

    def begin_op(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.layer_names.clear()
        self.specs.clear()

    def end_op(self, latency: float) -> None:
        """Fold the op's spans into the totals; the op is the root span."""
        child_sum = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            child_sum[parent] += end - start
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - child_sum[i]
            self.calls[name] += 1
            if tag is None:
                continue  # the call raised, or the span carries no tag
            if name in ("net.apply_conv", "net.apply_pool"):
                self.by_layer[tag[0]] += duration
                self.conv_macs += tag[1]
            elif name == "oracle.fd_probe":
                self.probes_compared += tag
        self.self_time["cli"] += latency - child_sum[-1]
        self.ops += 1
        self.op_time += latency
        self.begin_op()

    def metrics(self, untraced_op_s: float) -> dict:
        """Per-layer metrics, per op; ``untraced_op_s`` is the untraced mean op latency."""
        n = max(self.ops, 1)

        def ms(value):
            return 1e3 * value / n

        traced_op_s = self.op_time / n
        conv_s = self.total["net.apply_conv"]
        probes = self.calls["oracle.fd_probe"]
        return {
            "cli.self_ms": ms(self.self_time["cli"]),
            "model_io.load_ms": ms(self.total["model_io.load"]),
            "image.read_ms": ms(self.total["image.read"]),
            "image.resample_ms": ms(self.total["image.resample"]),
            "image.heatmap_out_ms": ms(self.total["image.heatmap_out"]),
            "net.forward_ms": ms(self.total["net.forward"]),
            **{f"net.{layer}_ms": ms(self.by_layer[layer]) for layer in NET_LAYERS},
            "net.apply_conv_calls": self.calls["net.apply_conv"] / n,
            "net.conv_gmac_per_s": self.conv_macs / conv_s / 1e9 if conv_s else 0.0,
            "activeness.neuron_activeness_ms": ms(self.total["activeness.neuron_activeness"]),
            "activeness.calls": self.calls["activeness.neuron_activeness"] / n,
            "activeness.backprop_score_ms": ms(self.total["activeness.backprop_score"]),
            "activeness.gamma_hop_ms": ms(self.self_time["activeness.neuron_activeness"]),
            "oracle.fd_probe_ms": ms(self.total["oracle.fd_probe"]),
            "oracle.fd_probes": probes / n,
            "oracle.fd_compared_frac": self.probes_compared / probes if probes else 0.0,
            "oracle.enumerate_gamma_ms": ms(self.total["oracle.enumerate_gamma"]),
            "evalharness.compare_self_ms": ms(self.self_time["evalharness.compare"]),
            "evalharness.dataset_ms": ms(self.total["evalharness.dataset"]),
            "evalharness.train_linear_ms": ms(self.total["evalharness.train_linear"]),
            "evalharness.train_linear_calls": self.calls["evalharness.train_linear"] / n,
            "tensor.from_array_calls": self.calls["tensor.from_array"] / n,
            "tensor.from_array_ms": ms(self.total["tensor.from_array"]),
            "trace.untraced_op_ms": 1e3 * untraced_op_s,
            "trace.traced_op_ms": 1e3 * traced_op_s,
            "trace.overhead_ms": 1e3 * (traced_op_s - untraced_op_s),
            "trace.overhead_pct": 100.0 * (traced_op_s / untraced_op_s - 1.0),
        }

    def self_breakdown(self) -> dict:
        """Self time in ms per op for every span name seen; the values sum to the op latency."""
        n = max(self.ops, 1)
        return {name: 1e3 * value / n for name, value in sorted(self.self_time.items()) if value}
