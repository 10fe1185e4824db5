"""Layer descriptors, the sequential network and its forward pass.

Index convention used across the package: a network is a list of L layer
descriptors; descriptor ``i`` (0-based) consumes activation ``X(i)`` and
produces ``X(i+1)``.  ``X(0)`` is the input tensor, so activation indices
run 0..L.  Fully-connected layers are expressed as conv layers whose
kernel spans the full spatial extent, so there is a single code path.

``forward`` is the one forward pass and the place where the network input
enters: it checks the input array and returns the trace, a tuple of one
read-only array per activation, with no pre-ReLU copy.  Backward code
reads every mask off it: a ReLU output is positive exactly where its input
is, so ``X(i+1) > 0`` is the whole indicator, and a max pool's winner is
its first tap, in scan order, equal to ``X(i+1)``.

Every conv and pool kernel walks its windows through ``window_taps``: one
whole-array step per kernel offset, on a strided view of the input, never
a loop over output positions.  Unlike im2col, whose patch matrix holds
kw*kh copies of the input, a view copies nothing.  ``apply_conv`` runs all
its taps on one cache-sized slab of whole output columns before the next:
each column still gets one product per tap, the same terms in the same
order, so the bits do not depend on the slab size.  Zero padding
contributes zero terms only; padded positions are not neurons and never
appear in connectivity sets.

``forward`` and the kernels take arrays shaped (W, H, *batch, D): any batch
axes (images, stacked seeds) sit between the spatial axes and the channel
axis, so a tap view ``x[tap]`` and ``x[tap] @ K[a, b]`` carry them along
unchanged.  A single image is the case with no batch axes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, _as_finite_f64


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


# Most elements the input, any layer output or any conv's zero-padded input
# (``apply_conv`` allocates one) of a network may hold: 4 Mi float64 values,
# 32 MB per array.  A 224x224x3 input is 150528 elements (28x below the
# guard), toy-cnn's widest output at 224x224 is 301056.  Without it a model
# header like [100000, 100000, 3] only fails when the first array is allocated.
SHAPE_GUARD = 1 << 22


def check_size(name: str, shape) -> None:
    """Reject an array shape of more than ``SHAPE_GUARD`` elements."""
    if math.prod(shape) > SHAPE_GUARD:
        raise ShapeError(f"{name} shape {'x'.join(map(str, shape))} exceeds the {SHAPE_GUARD}-element guard")


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered stack of layers with a fixed input shape and unique names.

    ``shapes`` holds the shape of every activation X(0)..X(L).  They are
    inferred, fit-checked and held to ``SHAPE_GUARD`` once, when the spec is
    built, together with the connectivity of each conv layer."""

    layers: tuple
    input_shape: tuple[int, int, int]
    names: tuple[str, ...]
    shapes: tuple = field(init=False, repr=False, compare=False)
    _conns: tuple = field(init=False, repr=False, compare=False)  # per layer; None for a pool

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        if len(self.names) != len(self.layers):
            raise ShapeError(f"{len(self.names)} names for {len(self.layers)} layers")
        if len(set(self.names)) != len(self.names):
            raise ShapeError("layer names must be unique")
        for name in self.names:  # "input" names X(0); --layers splits on commas and strips each name
            if name in ("", "input") or "," in name or name != name.strip() or not name.isprintable():
                raise ValueError(
                    f"layer name {name!r} cannot be selected: use a non-empty name other than 'input', "
                    "with no comma, no control character and no leading or trailing whitespace"
                )
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ShapeError(f"bad input shape {self.input_shape}")
        shapes, conns = _infer_shapes(self)
        object.__setattr__(self, "shapes", tuple(shapes))
        object.__setattr__(self, "_conns", tuple(conns))


def _infer_shapes(spec: NetworkSpec) -> tuple[list, list]:
    """Shape of every activation X(0)..X(L), and each layer's ``ConvConnectivity``
    (None for a pool).  Rejects a layer that does not fit its input and, in
    order, an input, padded conv input or layer output past ``SHAPE_GUARD``."""
    check_size("input", spec.input_shape)
    shapes, conns = [spec.input_shape], []
    w, h, d = spec.input_shape
    for name, layer in zip(spec.names, spec.layers):
        if isinstance(layer, ConvLayer):
            kw, kh, din, dout = layer.kernel.shape
            s, p = layer.stride, layer.padding
            if din != d:
                raise ShapeError(f"layer {name}: expects {din} input channels, gets {d}")
            ow, oh = _out_dim(w, kw, s, p), _out_dim(h, kh, s, p)
            if ow < 1 or oh < 1:
                raise ShapeError(
                    f"layer {name}: kernel {kw}x{kh} (stride {s}, padding {p}) does not fit input {w}x{h}"
                )
            check_size(f"{name} padded input", (w + 2 * p, h + 2 * p, d))
            conns.append(ConvConnectivity((w, h, d), (ow, oh, dout), kw, kh, s, p))
            d = dout
        elif isinstance(layer, PoolLayer):
            ow = _out_dim(w, layer.window, layer.stride, 0)
            oh = _out_dim(h, layer.window, layer.stride, 0)
            if ow < 1 or oh < 1:
                raise ShapeError(f"layer {name}: pool window {layer.window} exceeds input {w}x{h}")
            conns.append(None)
        else:
            raise ShapeError(f"layer {name}: expected a ConvLayer or PoolLayer, got {type(layer).__name__}")
        w, h = ow, oh
        shapes.append((w, h, d))
        check_size(name, shapes[-1])
    return shapes, conns


def window_taps(kw: int, kh: int, stride: int, ow: int, oh: int):
    """Yield ``(a, b, tap)`` for every kernel offset, w-outer and h-inner (the
    scan order of a flattened window).  ``tap`` is a pair of basic slices: the
    (ow, oh, ...) view ``x[tap]`` holds ``x[wo * stride + a, ho * stride + b]``
    at (wo, ho)."""
    for a in range(kw):
        for b in range(kh):
            yield a, b, (slice(a, a + ow * stride, stride), slice(b, b + oh * stride, stride))


CONV_SLAB_ELEMENTS = 1 << 16  # most float64 values in a conv output slab: 512 KB, in a core's L2


def apply_conv(layer: ConvLayer, x: np.ndarray, padding: int | None = None) -> np.ndarray:
    """Pre-activation conv output for a (W, H, *batch, D) array, in slabs of whole output columns.
    ``padding``, when given, replaces the layer's (0 runs a block cut from an already padded input)."""
    kw, kh, _, dout = layer.kernel.shape
    s, p = layer.stride, layer.padding if padding is None else padding
    ow, oh = _out_dim(x.shape[0], kw, s, p), _out_dim(x.shape[1], kh, s, p)
    xp = x
    if p:
        xp = np.zeros((x.shape[0] + 2 * p, x.shape[1] + 2 * p, *x.shape[2:]), x.dtype)
        xp[p:-p, p:-p] = x
    out = np.zeros((ow, oh, *x.shape[2:-1], dout))
    cols = max(1, CONV_SLAB_ELEMENTS // max(1, out[0].size))
    bias = np.broadcast_to(layer.bias, out.shape[-2:]).copy()  # one contiguous row, not one add per position
    for lo in range(0, ow, cols):
        slab, xs = out[lo : lo + cols], xp[lo * s :]
        for a, b, tap in window_taps(kw, kh, s, len(slab), oh):
            slab += xs[tap] @ layer.kernel[a, b]
        slab += bias
    return out


def apply_pool(layer: PoolLayer, x: np.ndarray) -> np.ndarray:
    """Max or average pool of a (W, H, *batch, D) array."""
    k, s = layer.window, layer.stride
    ow, oh = _out_dim(x.shape[0], k, s, 0), _out_dim(x.shape[1], k, s, 0)
    taps = [x[tap] for _, _, tap in window_taps(k, k, s, ow, oh)]
    combine = np.maximum if layer.mode == "max" else np.add
    out = taps[0].copy()
    for v in taps[1:]:
        combine(out, v, out=out)
    return out if layer.mode == "max" else out / len(taps)


def forward(spec: NetworkSpec, x) -> tuple:
    """Run the network on a (W, H, *batch, D) array; returns its trace.

    ``trace[j]`` is X(j) for j = 0..L as a read-only array that keeps the
    batch axes of ``x`` between its spatial axes and its channel axis:
    ``trace[0]`` is a read-only view of the input (``x`` itself stays
    writable), ``trace[i+1]`` the output of layer i, post-ReLU where the
    layer applies one; no pre-ReLU copy is kept (``X(i+1) > 0`` is the
    ReLU's indicator).  The input is checked for NaN/Inf and shape where it
    enters.  Each layer output is checked for NaN/Inf once, before any ReLU
    (which would turn a -inf into 0), and a failure names the layer; numpy's
    own overflow warnings are silenced, since that check reports the same
    fault with the layer's name.  The ReLU then runs in place, so a layer
    keeps one array.
    """
    x = _as_finite_f64(x, "tensor data").view()
    if x.ndim < 3 or (*x.shape[:2], x.shape[-1]) != spec.input_shape:
        raise ShapeError(f"input shape {x.shape} != network input {spec.input_shape}")
    x.flags.writeable = False
    trace = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, layer in zip(spec.names, spec.layers):
            conv = isinstance(layer, ConvLayer)
            out = apply_conv(layer, trace[-1]) if conv else apply_pool(layer, trace[-1])
            if not np.isfinite(out).all():
                raise ValueError(f"layer {name}: output contains NaN or Inf")
            if conv and layer.apply_relu:
                np.maximum(out, 0.0, out=out)
            out.flags.writeable = False
            trace.append(out)
    return tuple(trace)


@dataclass(frozen=True)
class ConvConnectivity:
    """Connectivity pattern of one conv layer: who feeds whom.

    For the layer consuming X(t) and producing X(t+1), ``u_set`` lists the
    downstream consumers of an input neuron and ``v_set`` the upstream
    sources of an output neuron.  Padded positions are skipped.  Every
    channel of one (w, h) shares the consumer tuples built on its first
    query; each ``u_set`` call returns a fresh list of them.
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
        return list(_consumers(self, w, h))

    def v_set(self, wp: int, hp: int, dp: int) -> list[tuple[int, int, int]]:
        """Upstream t-layer neurons feeding output neuron (wp, hp, dp)."""
        self._check_out(wp, hp, dp)
        w0, h0 = wp * self.stride - self.padding, hp * self.stride - self.padding
        return list(itertools.product(
            range(max(w0, 0), min(w0 + self.kernel_w, self.in_shape[0])),
            range(max(h0, 0), min(h0 + self.kernel_h, self.in_shape[1])),
            range(self.in_shape[2]),
        ))

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


@functools.lru_cache(maxsize=1)
def _consumers(conn: ConvConnectivity, w: int, h: int) -> tuple[tuple[int, int, int], ...]:
    """The (w, h) consumer tuples of ``u_set``; a walk asks for every channel of one (w, h) in a row."""
    return tuple(itertools.product(
        conn._covering(w, conn.kernel_w, conn.out_shape[0]),
        conn._covering(h, conn.kernel_h, conn.out_shape[1]),
        range(conn.out_shape[2]),
    ))


def receptive_sets(spec: NetworkSpec, t: int) -> ConvConnectivity:
    """Connectivity of the conv layer consuming X(t), i.e. descriptor t, as the spec stored it when built."""
    if not 0 <= t < len(spec.layers):
        raise IndexError(f"layer index {t} outside 0..{len(spec.layers) - 1}")
    if not isinstance(spec.layers[t], ConvLayer):
        raise ShapeError(f"layer {spec.names[t]} is not a conv layer")
    return spec._conns[t]
