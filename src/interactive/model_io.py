"""Model files and the seeded random-model generator.

File layout (format ``interactive-model/1``):

  line 1   magic: ``interactive-model/1``
  line 2   decimal byte length of the JSON header that follows
  then     the UTF-8 JSON header document, then one ``\\n``
  then     the weight blob: per layer in header order, kernel then bias,
           little-endian float32, kernel scalars in (kw, kh, d_in, d_out)
           order with kw-major nesting.

Weights are stored as float32 and widened losslessly to float64 on load;
``save_model`` rounds to the nearest float32, so specs built by
``generate_model`` (which quantizes at creation) round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .net import ConvLayer, NetworkSpec, PoolLayer, check_size

MAGIC = "interactive-model/1"


class ModelFormatError(ValueError):
    """Raised for malformed, truncated or unsupported model files."""


def save_model(spec: NetworkSpec, path) -> None:
    layers = []
    payload = []
    for name, layer in zip(spec.names, spec.layers):
        if isinstance(layer, ConvLayer):
            layers.append(
                {
                    "name": name,
                    "kind": "conv",
                    "kernel_shape": list(layer.kernel.shape),
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "relu": layer.apply_relu,
                }
            )
            payload.append(layer.kernel.astype("<f4").tobytes())
            payload.append(layer.bias.astype("<f4").tobytes())
        else:
            layers.append(
                {
                    "name": name,
                    "kind": "pool",
                    "window": layer.window,
                    "stride": layer.stride,
                    "mode": layer.mode,
                }
            )
    header = {"input_shape": list(spec.input_shape), "layers": layers}
    header_bytes = json.dumps(header, indent=1, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\n{len(header_bytes)}\n".encode("ascii"))
        fh.write(header_bytes)
        fh.write(b"\n")
        for chunk in payload:
            fh.write(chunk)


# Required keys of each header layer entry and the exact type each JSON value
# must decode to (exact, because ``isinstance(True, int)`` holds).
_LAYER_FIELDS = {
    "conv": {"name": str, "kernel_shape": list, "stride": int, "padding": int, "relu": bool},
    "pool": {"name": str, "window": int, "stride": int, "mode": str},
}


def _entry_scalars(i: int, desc) -> int:
    """Check layer entry ``i`` of the header; returns how many blob scalars it owns."""
    if not isinstance(desc, dict):
        raise ModelFormatError(f"layer entry {i} must be an object, got {desc!r}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _LAYER_FIELDS:
        raise ModelFormatError(f"layer entry {i}: unknown layer kind {kind!r}")
    for key, expected in _LAYER_FIELDS[kind].items():
        if type(desc.get(key)) is not expected:
            raise ModelFormatError(
                f"layer entry {i}: key {key!r} missing or not of type {expected.__name__}: {desc.get(key)!r}"
            )
    if kind == "pool":
        return 0
    shape = desc["kernel_shape"]
    if len(shape) != 4 or not all(type(v) is int and v >= 0 for v in shape):
        raise ModelFormatError(f"layer entry {i}: kernel_shape {shape!r} is not 4 integers >= 0")
    return math.prod(shape) + shape[3]


def load_model(path) -> NetworkSpec:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, sep, rest = raw.partition(b"\n")
    if not sep or magic.decode("ascii", errors="replace") != MAGIC:
        raise ModelFormatError(
            f"unsupported model format {magic[:40]!r}; this build reads {MAGIC!r}"
        )
    length_line, sep, rest = rest.partition(b"\n")
    try:
        header_len = int(length_line)
    except ValueError:
        raise ModelFormatError("malformed header length line") from None
    if not sep or header_len < 0 or len(rest) < header_len + 1:
        raise ModelFormatError("truncated header")
    try:
        header = json.loads(rest[:header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long ints, deep nesting
        raise ModelFormatError(f"malformed header JSON: {exc}") from None
    if rest[header_len : header_len + 1] != b"\n":
        raise ModelFormatError("missing separator after header")
    blob = rest[header_len + 1 :]

    if not isinstance(header, dict):
        raise ModelFormatError(f"header must be a JSON object, got {type(header).__name__}")
    input_shape = header.get("input_shape")
    if type(input_shape) is not list or len(input_shape) != 3 or not all(
        type(v) is int and v >= 1 for v in input_shape
    ):
        raise ModelFormatError(f"input_shape {input_shape!r} is not 3 integers >= 1")
    descriptors = header.get("layers")
    if not isinstance(descriptors, list):
        raise ModelFormatError(f"header 'layers' must be a list, got {descriptors!r}")
    expected = sum(_entry_scalars(i, desc) for i, desc in enumerate(descriptors))
    if len(blob) != 4 * expected:
        raise ModelFormatError(
            f"weight blob length mismatch: header implies {4 * expected} bytes, file has {len(blob)}"
        )

    layers = []
    offset = 0
    scalars = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    try:  # the constructors reject NaN weights, impossible shapes and shapes past the size guard
        for desc in descriptors:
            if desc["kind"] == "conv":
                shape = desc["kernel_shape"]
                n = math.prod(shape)
                kernel = scalars[offset : offset + n].reshape(shape)
                bias = scalars[offset + n : offset + n + shape[3]]
                offset += n + shape[3]
                stride, padding, relu = desc["stride"], desc["padding"], desc["relu"]
                layers.append(ConvLayer(kernel, bias, stride=stride, padding=padding, apply_relu=relu))
            else:
                layers.append(PoolLayer(window=desc["window"], stride=desc["stride"], mode=desc["mode"]))
        names = tuple(desc["name"] for desc in descriptors)
        return NetworkSpec(layers=tuple(layers), input_shape=tuple(input_shape), names=names)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


# Every template conv layer is 3x3, stride 1, padding 1, with a ReLU (a
# full-extent layer takes no padding); every template pool is 2x2 max, stride 2.
CONV_KERNEL, CONV_STRIDE, CONV_PADDING = 3, 1, 1
POOL_WINDOW, POOL_STRIDE = 2, 2


@dataclass(frozen=True)
class ConvBlueprint:
    name: str
    out_channels: int
    full_extent: bool = False  # fully-connected layer: kernel spans the whole incoming map


@dataclass(frozen=True)
class PoolBlueprint:
    name: str


@dataclass(frozen=True)
class ArchTemplate:
    input_shape: tuple[int, int, int]
    blueprint: tuple


ARCHITECTURES: dict[str, ArchTemplate] = {
    "tiny-2conv": ArchTemplate(
        input_shape=(8, 8, 3),
        blueprint=(
            ConvBlueprint("conv-1", 4),
            PoolBlueprint("pool-1"),
            ConvBlueprint("conv-2", 8),
        ),
    ),
    "tiny-3conv": ArchTemplate(
        input_shape=(8, 8, 3),
        blueprint=(
            ConvBlueprint("conv-1-1", 4),
            ConvBlueprint("conv-1-2", 4),
            PoolBlueprint("pool-1"),
            ConvBlueprint("conv-2", 8),
        ),
    ),
    "toy-cnn": ArchTemplate(
        input_shape=(16, 16, 3),
        blueprint=(
            ConvBlueprint("conv-1", 6),
            PoolBlueprint("pool-1"),
            ConvBlueprint("conv-2", 12),
            PoolBlueprint("pool-2"),
            ConvBlueprint("conv-3", 16),
        ),
    ),
    "tiny-fc": ArchTemplate(
        input_shape=(8, 8, 3),
        blueprint=(
            ConvBlueprint("conv-1", 4),
            PoolBlueprint("pool-1"),
            ConvBlueprint("fc-1", 10, full_extent=True),
        ),
    ),
}

BIAS_INIT = float(np.float32(0.1))  # small positive so random inputs light up ReLUs


def _layer_rng(seed: int, layer_index: int) -> np.random.Generator:
    # PCG64 with a per-layer SeedSequence substream: reproducible across platforms.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, layer_index])))


def generate_model(
    arch: str, seed: int, input_shape: tuple[int, int, int] | None = None
) -> NetworkSpec:
    """Deterministic random network from a named template.

    Kernel weights are standard normal draws scaled by 1/sqrt(fan-in) and
    quantized to float32 so the spec round-trips the model file exactly;
    biases are the constant ``BIAS_INIT``.  Each layer reads its input
    shape from the spec of the layers built so far, which is built again
    once the layer is appended, so the network's own shape inference, fit
    check and size guard run on it.  A conv's zero-padded input also meets
    the guard before its kernel is drawn: the spec sees a layer only once
    its kernel exists, and a kernel grows with its input (at ``(1, 1,
    4194304)`` conv-1's would take more than 1 GB).
    """
    if arch not in ARCHITECTURES:
        raise KeyError(f"unknown architecture {arch!r}; available: {', '.join(sorted(ARCHITECTURES))}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    template = ARCHITECTURES[arch]
    shape = template.input_shape if input_shape is None else input_shape
    spec = NetworkSpec(layers=(), input_shape=shape, names=())  # checks the input before any kernel is drawn
    for i, bp in enumerate(template.blueprint):
        w, h, d_in = spec.shapes[-1]
        if isinstance(bp, ConvBlueprint):
            kw, kh = (w, h) if bp.full_extent else (CONV_KERNEL, CONV_KERNEL)
            padding = 0 if bp.full_extent else CONV_PADDING
            check_size(f"{bp.name} padded input", (w + 2 * padding, h + 2 * padding, d_in))
            fan_in = kw * kh * d_in
            rng = _layer_rng(seed, i)
            kernel = rng.standard_normal((kw, kh, d_in, bp.out_channels))
            kernel = (kernel / math.sqrt(fan_in)).astype(np.float32).astype(np.float64)
            bias = np.full(bp.out_channels, BIAS_INIT)
            layer = ConvLayer(kernel=kernel, bias=bias, stride=CONV_STRIDE, padding=padding)
        else:
            # one PoolLayer per pool: perfbench/tracing.py names layers by id()
            layer = PoolLayer(window=POOL_WINDOW, stride=POOL_STRIDE)
        spec = NetworkSpec(layers=spec.layers + (layer,), input_shape=shape, names=spec.names + (bp.name,))
    return spec
