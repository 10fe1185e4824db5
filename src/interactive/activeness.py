"""Activeness propagation: layer scores, score backprop, gamma and weighted features.

The supervision layer T carries an unsupervised likelihood over its
channel-averaged response vector xbar:  f(xbar) = C_p * exp(-||xbar||_p^p),
p in {1, 2}.  The gradient of the log-likelihood is backpropagated to
measure how sensitive f is to each connection, and a neuron's activeness
is the sum over its downstream connections of those sensitivities times
the neuron's own response.

SIGN CONVENTION.  The literal gradient of ln f carries a leading minus,
which would make every weight nonpositive and invert max-based
summarization.  The engine therefore propagates the gradient of -ln f
(== +||xbar||_p^p on the post-ReLU domain): a global, constant sign flip
with no effect on relative weighting.  All scores, gamma fields and
features in this package are under that convention; for p = 1 the layer
score is exactly the uniform field 1/(W_T*H_T).

``log_likelihood`` itself still reports ln f (up to the dropped additive
constant ln C_p), i.e. the negative p-th power norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import ConvLayer, ForwardTrace, NetworkSpec, infer_shapes, pool_argmax, receptive_sets, window_taps
from .tensor import ChannelVector, ShapeError, Tensor3, hadamard, spatial_average, spatial_max

SUPERVISION_MODES = ("last", "next")
SUMMARIZE_MODES = ("max", "average")


@dataclass(frozen=True)
class ActivenessRequest:
    """What to compute activeness for.

    ``target_layer`` t selects the activation X(t) (t = 0 is the input);
    descriptor t, the layer consuming X(t), must be a conv layer since the
    hop differentiates the convolution.  ``supervision`` picks the
    likelihood layer: "last" uses the final activation, "next" uses
    X(t+1).  ``summarize`` chooses how the weighted tensor is reduced to a
    per-channel feature (max is the default).
    """

    target_layer: int
    supervision: str = "last"
    p: int = 2
    summarize: str = "max"


@dataclass(frozen=True)
class ActivenessResult:
    """gamma weights, weighted responses, the 2-D map and the pooled feature."""

    gamma: Tensor3
    activeness: Tensor3
    map2d: np.ndarray
    feature: ChannelVector
    log_likelihood: float


def validate_request(spec: NetworkSpec, request: ActivenessRequest) -> int:
    """Check a request against a network; returns the supervision index T."""
    t = request.target_layer
    if not 0 <= t < len(spec.layers):
        raise IndexError(f"target layer {t} outside 0..{len(spec.layers) - 1}")
    if not isinstance(spec.layers[t], ConvLayer):
        raise ShapeError(
            f"activeness needs a conv successor, but layer {spec.names[t]} consuming "
            f"X({t}) is a pooling layer"
        )
    if request.supervision not in SUPERVISION_MODES:
        raise ValueError(f"supervision must be one of {SUPERVISION_MODES}, got {request.supervision!r}")
    if request.p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {request.p}")
    if request.summarize not in SUMMARIZE_MODES:
        raise ValueError(f"summarize must be one of {SUMMARIZE_MODES}, got {request.summarize!r}")
    return len(spec.layers) if request.supervision == "last" else t + 1


def log_likelihood(xT: ChannelVector, p: int) -> float:
    """ln f at the supervision layer, up to the dropped constant ln C_p.

    Computed as the negative power sum -sum(v**p), which equals
    -||v||_p^p on the nonnegative (post-ReLU) domain and stays smooth and
    finite-difference-consistent everywhere.
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    v = xT.values
    return float(-(v.sum() if p == 1 else (v * v).sum()))


def layer_score(XT: Tensor3, p: int) -> Tensor3:
    """Gradient of -ln f with respect to the supervision-layer responses.

    Every spatial position of channel d receives p/(W*H) * xbar_d**(p-1),
    with 0**0 taken as 1 so the p = 1 score is exactly the uniform field
    1/(W*H).
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    w, h, d = XT.shape
    scale = 1.0 / (w * h)
    if p == 1:
        return Tensor3.from_array(np.full((w, h, d), scale))
    xbar = XT.array.mean(axis=(0, 1))
    return Tensor3.from_array(np.broadcast_to(2.0 * scale * xbar, (w, h, d)).copy())


def _conv_backward_input(
    kernel: np.ndarray, stride: int, padding: int, grad_out: np.ndarray, in_shape: tuple
) -> np.ndarray:
    """Transposed-kernel accumulation: grad wrt conv output -> grad wrt input."""
    kw, kh, _, _ = kernel.shape
    w, h, din = in_shape
    gxp = np.zeros((w + 2 * padding, h + 2 * padding, din))
    for a, b, tap in window_taps(kw, kh, stride, *grad_out.shape[:2]):
        gxp[tap] += grad_out @ kernel[a, b].T
    return gxp[padding : padding + w, padding : padding + h]


def _pool_backward(layer, x_in: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Max pooling routes to the argmax (first scan hit wins ties);
    average pooling splits uniformly over the window."""
    k = layer.window
    gx = np.zeros_like(x_in)
    idx = pool_argmax(layer, x_in) if layer.mode == "max" else None
    for a, b, tap in window_taps(k, k, layer.stride, *grad_out.shape[:2]):
        gx[tap] += grad_out / (k * k) if idx is None else np.where(idx == a * k + b, grad_out, 0.0)
    return gx


def _check_trace(spec: NetworkSpec, trace: ForwardTrace) -> None:
    if len(trace.activations) != len(spec.layers):
        raise ShapeError(
            f"trace has {len(trace.activations)} activations for {len(spec.layers)} layers"
        )
    if trace.input.shape != spec.input_shape:
        raise ShapeError(f"trace input {trace.input.shape} != network input {spec.input_shape}")
    for i, shape in enumerate(infer_shapes(spec)):
        if trace.activations[i].shape != shape:
            raise ShapeError(f"trace activation {i} has shape {trace.activations[i].shape}, expected {shape}")


def backprop_score(
    spec: NetworkSpec, trace: ForwardTrace, T: int, p: int, down_to: int
) -> Tensor3:
    """Gradient of -ln f (likelihood at activation T) wrt activation ``down_to``.

    Standard reverse mode: the layer score seeds the chain at T, conv
    layers apply the transposed kernel after masking by their pre-ReLU
    sign, pool layers route by argmax or split uniformly.
    """
    if not 0 <= down_to <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= down_to <= T <= {len(spec.layers)}, got down_to={down_to}, T={T}")
    _check_trace(spec, trace)
    grad = layer_score(trace.activation(T), p).array
    for i in range(T - 1, down_to - 1, -1):
        layer = spec.layers[i]
        x_in = trace.activation(i).array
        if isinstance(layer, ConvLayer):
            if layer.apply_relu:
                grad = grad * (trace.pre_activations[i].array > 0)
            grad = _conv_backward_input(layer.kernel, layer.stride, layer.padding, grad, x_in.shape)
        else:
            grad = _pool_backward(layer, x_in, grad)
    return Tensor3.from_array(grad)


def _hop_mask(spec: NetworkSpec, trace: ForwardTrace, t: int, hop_score: np.ndarray) -> np.ndarray:
    """Apply the activated-neuron indicator of the hop layer's output.

    The indicator tests the post-activation response exactly as the score
    function prescribes; for a conv layer without fused ReLU the
    differentiation carries no indicator, so the score passes through.
    """
    hop = spec.layers[t]
    if hop.apply_relu:
        return hop_score * (trace.activation(t + 1).array > 0)
    return hop_score


def connection_activeness(
    spec: NetworkSpec,
    trace: ForwardTrace,
    request: ActivenessRequest,
    sample: tuple[int, int, int, int, int, int],
    hop_score: Tensor3 | None = None,
) -> float:
    """Activeness of one connection (w, h, d) -> (w', h', d') through layer t.

    Returns x(t)[w,h,d] * alpha, where alpha multiplies the activated
    indicator of the downstream neuron, the connectedness indicator and
    the backpropagated score at the downstream neuron.  Unconnected
    coordinate pairs yield 0.0; out-of-range coordinates raise.
    ``hop_score`` may carry a precomputed ``backprop_score(..., t+1)`` to
    amortize sweeps over many connections.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    w, h, d, wp, hp, dp = sample
    conn = receptive_sets(spec, t)
    if not conn.connected(w, h, d, wp, hp, dp):
        return 0.0
    if hop_score is None:
        hop_score = backprop_score(spec, trace, T, request.p, t + 1)
    hop = spec.layers[t]
    if hop.apply_relu and not trace.activation(t + 1)[wp, hp, dp] > 0:
        return 0.0
    alpha = hop_score[wp, hp, dp]
    return float(trace.activation(t)[w, h, d] * alpha)


def neuron_activeness(
    spec: NetworkSpec, trace: ForwardTrace, request: ActivenessRequest
) -> ActivenessResult:
    """Per-neuron activeness at the requested layer.

    gamma sums the backpropagated score of every activated downstream
    neuron over the hop layer's connectivity; because the hop itself is a
    differentiation in the connection weights, the accumulation is
    weight-free (kernel entries replaced by 1).  The weighted response
    x(t) * gamma is the activeness tensor, summarized per channel into the
    feature vector.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    hop = spec.layers[t]
    score = backprop_score(spec, trace, T, request.p, t + 1)
    masked = _hop_mask(spec, trace, t, score.array)
    x_t = trace.activation(t)
    ones_kernel = np.ones_like(hop.kernel)
    gamma_arr = _conv_backward_input(ones_kernel, hop.stride, hop.padding, masked, x_t.shape)
    gamma = Tensor3.from_array(gamma_arr)
    activeness = hadamard(x_t, gamma)
    map2d = gamma.array.sum(axis=2)
    map2d.flags.writeable = False
    summarize = spatial_max if request.summarize == "max" else spatial_average
    feature = summarize(activeness)
    ll = log_likelihood(spatial_average(trace.activation(T)), request.p)
    return ActivenessResult(
        gamma=gamma, activeness=activeness, map2d=map2d, feature=feature, log_likelihood=ll
    )


def interactive_feature_stack(
    spec: NetworkSpec, trace: ForwardTrace, requests: list[ActivenessRequest]
) -> ChannelVector:
    """Concatenated feature vectors of several requests, in request order."""
    if not requests:
        raise ValueError("request list must be nonempty")
    parts = [neuron_activeness(spec, trace, r).feature.values for r in requests]
    return ChannelVector(np.concatenate(parts))
