"""Layer descriptors, the sequential network and its forward pass.

Index convention used across the package: a network is a list of L layer
descriptors; descriptor ``i`` (0-based) consumes activation ``X(i)`` and
produces ``X(i+1)``.  ``X(0)`` is the input tensor, so activation indices
run 0..L.  Fully-connected layers are expressed as conv layers whose
kernel spans the full spatial extent, so there is a single code path.

The forward pass keeps one array per activation and no pre-ReLU copy.  A
ReLU output is positive exactly where its input is, so ``X(i+1) > 0`` is
the whole activation indicator that backward code needs.

Every conv and pool kernel walks its windows through ``window_taps``: one
whole-array step per kernel offset, on a strided view of the input, never
a loop over output positions.  Unlike im2col, whose patch matrix holds
kw*kh copies of the input, a view copies nothing.  Zero padding
contributes zero terms only; padded positions are not neurons and never
appear in connectivity sets.

The kernels take arrays shaped (W, H, *batch, D): any batch axes (images,
stacked seeds) sit between the spatial axes and the channel axis, so a
tap view ``x[tap]`` and ``x[tap] @ K[a, b]`` carry them along unchanged.
A single image is the case with no batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor3, _as_finite_f64


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """Convolution with optional fused ReLU.

    ``kernel`` is indexed (kw, kh, d_in, d_out), kw-major; ``bias`` has one
    entry per output channel.
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    apply_relu: bool = True

    def __post_init__(self):
        k = _as_finite_f64(self.kernel, "conv kernel")
        if k.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4 (kw, kh, d_in, d_out), got rank {k.ndim}")
        if min(k.shape) < 1:
            raise ShapeError(f"conv kernel dims must be >= 1, got shape {k.shape}")
        b = _as_finite_f64(self.bias, "conv bias").reshape(-1)
        if b.size != k.shape[3]:
            raise ShapeError(f"bias length {b.size} != d_out {k.shape[3]}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        k = k.copy()
        k.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class PoolLayer:
    """Spatial max or average pooling; no padding, no parameters."""

    window: int
    stride: int
    mode: str = "max"

    def __post_init__(self):
        if self.window < 1:
            raise ShapeError(f"pool window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise ShapeError(f"pool stride must be >= 1, got {self.stride}")
        if self.mode not in ("max", "average"):
            raise ShapeError(f"pool mode must be 'max' or 'average', got {self.mode!r}")


def _out_dim(size: int, extent: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - extent) // stride + 1


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered stack of layers with a fixed input shape and unique names."""

    layers: tuple
    input_shape: tuple[int, int, int]
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        if len(self.names) != len(self.layers):
            raise ShapeError(f"{len(self.names)} names for {len(self.layers)} layers")
        if len(set(self.names)) != len(self.names):
            raise ShapeError("layer names must be unique")
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ShapeError(f"bad input shape {self.input_shape}")
        infer_shapes(self)  # raises on any impossible layer

    def layer_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no layer named {name!r}; layers are {', '.join(self.names)}") from None


def infer_shapes(spec: NetworkSpec) -> list[tuple[int, int, int]]:
    """Output shape of every layer in order; rejects shapes with dims < 1."""
    shapes = []
    w, h, d = spec.input_shape
    for i, layer in enumerate(spec.layers):
        name = spec.names[i]
        if isinstance(layer, ConvLayer):
            kw, kh, din, dout = layer.kernel.shape
            if din != d:
                raise ShapeError(f"layer {name}: expects {din} input channels, gets {d}")
            ow = _out_dim(w, kw, layer.stride, layer.padding)
            oh = _out_dim(h, kh, layer.stride, layer.padding)
            if ow < 1 or oh < 1:
                raise ShapeError(
                    f"layer {name}: kernel {kw}x{kh} (stride {layer.stride}, padding "
                    f"{layer.padding}) does not fit input {w}x{h}"
                )
            w, h, d = ow, oh, dout
        else:
            ow = _out_dim(w, layer.window, layer.stride, 0)
            oh = _out_dim(h, layer.window, layer.stride, 0)
            if ow < 1 or oh < 1:
                raise ShapeError(f"layer {name}: pool window {layer.window} exceeds input {w}x{h}")
            w, h = ow, oh
        shapes.append((w, h, d))
    return shapes


@dataclass(frozen=True)
class ForwardTrace:
    """Everything one forward pass produced.

    ``acts[j]`` is X(j) for j = 0..L as a read-only (W, H, D) array:
    ``acts[0]`` is the input, ``acts[i+1]`` the output of layer i,
    post-ReLU where the layer applies one; no pre-ReLU copy is kept
    (``X(i+1) > 0`` is the ReLU's indicator).
    """

    acts: tuple


def window_taps(kw: int, kh: int, stride: int, ow: int, oh: int):
    """Yield ``(a, b, tap)`` for every kernel offset, w-outer and h-inner (the
    scan order of a flattened window).  ``tap`` is a pair of basic slices: the
    (ow, oh, ...) view ``x[tap]`` holds ``x[wo * stride + a, ho * stride + b]``
    at (wo, ho)."""
    for a in range(kw):
        for b in range(kh):
            yield a, b, (slice(a, a + ow * stride, stride), slice(b, b + oh * stride, stride))


def apply_conv(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Pre-activation conv output for a (W, H, *batch, D) array."""
    kw, kh, _, dout = layer.kernel.shape
    s, p = layer.stride, layer.padding
    ow, oh = _out_dim(x.shape[0], kw, s, p), _out_dim(x.shape[1], kh, s, p)
    xp = np.pad(x, ((p, p), (p, p)) + ((0, 0),) * (x.ndim - 2)) if p else x
    out = np.zeros((ow, oh, *x.shape[2:-1], dout))
    for a, b, tap in window_taps(kw, kh, s, ow, oh):
        out += xp[tap] @ layer.kernel[a, b]
    out += layer.bias
    return out


def _pool_taps(layer: PoolLayer, x: np.ndarray):
    k, s = layer.window, layer.stride
    return window_taps(k, k, s, _out_dim(x.shape[0], k, s, 0), _out_dim(x.shape[1], k, s, 0))


def apply_pool(layer: PoolLayer, x: np.ndarray) -> np.ndarray:
    """Max or average pool of a (W, H, *batch, D) array."""
    taps = [x[tap] for _, _, tap in _pool_taps(layer, x)]
    combine = np.maximum if layer.mode == "max" else np.add
    out = taps[0].copy()
    for v in taps[1:]:
        combine(out, v, out=out)
    return out if layer.mode == "max" else out / len(taps)


def pool_argmax(layer: PoolLayer, x: np.ndarray) -> np.ndarray:
    """Flat window index ``a * window + b`` of each max-pool window's maximum.
    Only a strict ``>`` moves the choice, so the first hit in scan order wins ties."""
    taps = [(a * layer.window + b, x[tap]) for a, b, tap in _pool_taps(layer, x)]
    best = taps[0][1].copy()
    idx = np.zeros(best.shape, dtype=np.int64)
    for flat, v in taps[1:]:
        hit = v > best
        np.copyto(best, v, where=hit)
        idx[hit] = flat
    return idx


def forward_arrays(spec: NetworkSpec, x: np.ndarray) -> list:
    """Run the network on a (W, H, *batch, D) array.

    Returns ``acts``: ``acts[j]`` is X(j) for j = 0..L (``acts[0]`` is
    ``x``).  Every array keeps the batch axes of ``x`` between its spatial
    axes and its channel axis.  Each layer output is checked for NaN/Inf
    once, before any ReLU (which would turn a -inf into 0), and a failure
    names the layer; numpy's own overflow warnings are silenced, since that
    check reports the same fault with the layer's name.  The ReLU then
    runs in place, so a layer keeps one array.
    """
    if x.ndim < 3 or (*x.shape[:2], x.shape[-1]) != spec.input_shape:
        raise ShapeError(f"input shape {x.shape} != network input {spec.input_shape}")
    acts = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, layer in zip(spec.names, spec.layers):
            conv = isinstance(layer, ConvLayer)
            out = apply_conv(layer, acts[-1]) if conv else apply_pool(layer, acts[-1])
            if not np.isfinite(out).all():
                raise ValueError(f"layer {name}: output contains NaN or Inf")
            if conv and layer.apply_relu:
                np.maximum(out, 0.0, out=out)
            acts.append(out)
    return acts


def forward(spec: NetworkSpec, x0: Tensor3) -> ForwardTrace:
    """Run the network on one image, caching every activation, read-only."""
    acts = forward_arrays(spec, x0.array)
    for a in acts:
        a.flags.writeable = False
    return ForwardTrace(acts=tuple(acts))


@dataclass(frozen=True)
class ConvConnectivity:
    """Connectivity pattern of one conv layer: who feeds whom.

    For the layer consuming X(t) and producing X(t+1), ``u_set`` lists the
    downstream consumers of an input neuron and ``v_set`` the upstream
    sources of an output neuron.  Padded positions are skipped.
    """

    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    kernel_w: int
    kernel_h: int
    stride: int
    padding: int

    def _covering(self, pos: int, extent: int, out_size: int) -> range:
        lo = math.ceil((pos + self.padding - extent + 1) / self.stride)
        hi = math.floor((pos + self.padding) / self.stride)
        return range(max(lo, 0), min(hi, out_size - 1) + 1)

    def u_set(self, w: int, h: int, d: int) -> list[tuple[int, int, int]]:
        """Downstream (t+1)-layer neurons reading input neuron (w, h, d)."""
        self._check_in(w, h, d)
        out = []
        for wp in self._covering(w, self.kernel_w, self.out_shape[0]):
            for hp in self._covering(h, self.kernel_h, self.out_shape[1]):
                for dp in range(self.out_shape[2]):
                    out.append((wp, hp, dp))
        return out

    def v_set(self, wp: int, hp: int, dp: int) -> list[tuple[int, int, int]]:
        """Upstream t-layer neurons feeding output neuron (wp, hp, dp)."""
        self._check_out(wp, hp, dp)
        out = []
        for kw in range(self.kernel_w):
            w = wp * self.stride + kw - self.padding
            if not 0 <= w < self.in_shape[0]:
                continue
            for kh in range(self.kernel_h):
                h = hp * self.stride + kh - self.padding
                if not 0 <= h < self.in_shape[1]:
                    continue
                for d in range(self.in_shape[2]):
                    out.append((w, h, d))
        return out

    def connected(self, w: int, h: int, d: int, wp: int, hp: int, dp: int) -> bool:
        self._check_in(w, h, d)
        self._check_out(wp, hp, dp)
        kw, kh = self.kernel_offset(w, h, wp, hp)
        return 0 <= kw < self.kernel_w and 0 <= kh < self.kernel_h

    def kernel_offset(self, w: int, h: int, wp: int, hp: int) -> tuple[int, int]:
        """(kw, kh) kernel cell linking input (w, h) to output (wp, hp)."""
        return (w - wp * self.stride + self.padding, h - hp * self.stride + self.padding)

    def _taps_in_range(self, size: int, extent: int, out_size: int) -> int:
        """Kernel taps landing inside ``0..size-1``, summed over the output positions of one axis."""
        s, p = self.stride, self.padding
        return sum(max(0, min(extent, size + p - o * s) - max(0, p - o * s)) for o in range(out_size))

    def connection_count(self) -> int:
        """Total number of real (unpadded) connections through this layer.

        A window's in-range taps factor into a w count times an h count, so
        the sum over all windows is the product of the per-axis sums."""
        return (
            self._taps_in_range(self.in_shape[0], self.kernel_w, self.out_shape[0])
            * self._taps_in_range(self.in_shape[1], self.kernel_h, self.out_shape[1])
            * self.in_shape[2]
            * self.out_shape[2]
        )

    def _check_in(self, w, h, d):
        if not (0 <= w < self.in_shape[0] and 0 <= h < self.in_shape[1] and 0 <= d < self.in_shape[2]):
            raise IndexError(f"input neuron ({w},{h},{d}) outside {self.in_shape}")

    def _check_out(self, wp, hp, dp):
        if not (
            0 <= wp < self.out_shape[0] and 0 <= hp < self.out_shape[1] and 0 <= dp < self.out_shape[2]
        ):
            raise IndexError(f"output neuron ({wp},{hp},{dp}) outside {self.out_shape}")


def receptive_sets(spec: NetworkSpec, t: int) -> ConvConnectivity:
    """Connectivity of the conv layer consuming X(t), i.e. descriptor t."""
    if not 0 <= t < len(spec.layers):
        raise IndexError(f"layer index {t} outside 0..{len(spec.layers) - 1}")
    layer = spec.layers[t]
    if not isinstance(layer, ConvLayer):
        raise ShapeError(f"layer {spec.names[t]} is not a conv layer")
    shapes = infer_shapes(spec)
    in_shape = spec.input_shape if t == 0 else shapes[t - 1]
    return ConvConnectivity(
        in_shape=in_shape,
        out_shape=shapes[t],
        kernel_w=layer.kernel.shape[0],
        kernel_h=layer.kernel.shape[1],
        stride=layer.stride,
        padding=layer.padding,
    )
