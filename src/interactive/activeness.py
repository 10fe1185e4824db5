"""Activeness propagation: layer scores, score backprop, gamma and weighted features.

The supervision layer T carries an unsupervised likelihood over its
channel-averaged response vector xbar:  f(xbar) = C_p * exp(-||xbar||_p^p),
p in {1, 2}.  The gradient of the log-likelihood is backpropagated to
measure how sensitive f is to each connection, and a neuron's activeness
is the sum over its downstream connections of those sensitivities (gamma,
one field over positions, shared by all channels) times its own response.

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
from .tensor import ShapeError

SUPERVISION_MODES = ("last", "next")
SUMMARIZE_MODES = ("max", "average")
# (supervision, p) of the four stacked scores in ``weighted_features``, in order
WEIGHTED_CONFIGS = (("next", 1), ("next", 2), ("last", 1), ("last", 2))


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
    """Read-only arrays: gamma (W, H, D), one weight per position as a view
    broadcast over the D channels; the weighted responses x(t) * gamma; the
    (W, H) map, D times gamma; and the (D,) feature, the weighted responses
    maxed or averaged over (w, h).  Plus ln f at the supervision layer."""

    gamma: np.ndarray
    activeness: np.ndarray
    map2d: np.ndarray
    feature: np.ndarray
    log_likelihood: float


def target_name(spec: NetworkSpec, t: int) -> str:
    """Name of activation X(t): "input", or the layer that produces it."""
    return "input" if t == 0 else spec.names[t - 1]


def validate_request(spec: NetworkSpec, request: ActivenessRequest) -> int:
    """Check a request against a network; returns the supervision index T.

    The one place that decides which activation indices are activeness
    targets: those consumed by a conv layer."""
    t = request.target_layer
    if 0 < t == len(spec.layers):
        raise ShapeError(
            f"layer {target_name(spec, t)!r} is the final layer; activeness needs a successor conv layer"
        )
    if not 0 <= t < len(spec.layers):
        raise IndexError(f"target layer {t} outside 0..{len(spec.layers) - 1}")
    if not isinstance(spec.layers[t], ConvLayer):
        raise ShapeError(
            f"layer {target_name(spec, t)!r} is followed by pooling layer {spec.names[t]!r}; activeness "
            "targets must feed a conv layer (pick the pool output instead)"
        )
    if request.supervision not in SUPERVISION_MODES:
        raise ValueError(f"supervision must be one of {SUPERVISION_MODES}, got {request.supervision!r}")
    if request.p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {request.p}")
    if request.summarize not in SUMMARIZE_MODES:
        raise ValueError(f"summarize must be one of {SUMMARIZE_MODES}, got {request.summarize!r}")
    return len(spec.layers) if request.supervision == "last" else t + 1


def log_likelihood(xbar: np.ndarray, p: int) -> float:
    """ln f at the supervision layer, up to the dropped constant ln C_p.

    ``xbar`` is the supervision layer's (D,) channel-mean array.  Computed
    as the negative power sum -sum(v**p), which equals -||v||_p^p on the
    nonnegative (post-ReLU) domain and stays smooth and
    finite-difference-consistent everywhere.
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    return float(-(xbar.sum() if p == 1 else (xbar * xbar).sum()))


def layer_score(xT: np.ndarray, p: int) -> np.ndarray:
    """Gradient of -ln f with respect to a (W, H, *batch, D) supervision array.

    Every spatial position of channel d receives p/(W*H) * xbar_d**(p-1),
    with 0**0 taken as 1 so the p = 1 score is exactly the uniform field
    1/(W*H).  The result is a fresh array, writable by the caller.
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    w, h = xT.shape[:2]
    scale = 1.0 / (w * h)
    if p == 1:
        return np.full(xT.shape, scale)
    xbar = xT.mean(axis=(0, 1))
    return np.broadcast_to(2.0 * scale * xbar, xT.shape).copy()


def _conv_backward_input(
    kernel: np.ndarray, stride: int, padding: int, grad_out: np.ndarray, in_shape: tuple
) -> np.ndarray:
    """Transposed-kernel accumulation: grad wrt conv output -> grad wrt input.

    ``grad_out`` is (W', H', *batch, d_out); only the spatial dims of
    ``in_shape`` are read, the result is (W, H, *batch, d_in)."""
    kw, kh, din, dout = kernel.shape
    w, h = in_shape[:2]
    gxp = np.zeros((w + 2 * padding, h + 2 * padding, *grad_out.shape[2:-1], din))
    # one product per output column w' over all its other positions: a size-1
    # stack axis would otherwise split it into one-row products, rounded unlike
    # the plain array; one 2-D product over all raised peak RSS by 2 MB at 224x224
    flat, out_shape = grad_out.reshape(grad_out.shape[0], -1, dout), (*grad_out.shape[:-1], din)
    for a, b, tap in window_taps(kw, kh, stride, *grad_out.shape[:2]):
        gxp[tap] += (flat @ kernel[a, b].T).reshape(out_shape)
    return gxp[padding : padding + w, padding : padding + h]


def _pool_backward(layer, x_in: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Max pooling routes to the argmax (first scan hit wins ties);
    average pooling splits uniformly over the window.  ``x_in`` may carry
    singleton batch axes that broadcast against ``grad_out``."""
    k = layer.window
    gx = np.zeros(x_in.shape[:2] + grad_out.shape[2:])
    idx = pool_argmax(layer, x_in) if layer.mode == "max" else None
    for a, b, tap in window_taps(k, k, layer.stride, *grad_out.shape[:2]):
        gx[tap] += grad_out / (k * k) if idx is None else np.where(idx == a * k + b, grad_out, 0.0)
    return gx


def _lift(arr: np.ndarray, like: np.ndarray) -> np.ndarray:
    """View of a trace array with singleton axes after its spatial axes, so
    that it broadcasts against a score ``like`` that carries stacked seeds."""
    return arr.reshape(arr.shape[:2] + (1,) * (like.ndim - arr.ndim) + arr.shape[2:])


def trace_arrays(spec: NetworkSpec, trace: ForwardTrace) -> tuple:
    """Check a trace against the network; returns its activation arrays."""
    shapes, expected = [a.shape for a in trace.acts], [spec.input_shape, *infer_shapes(spec)]
    if shapes != expected:
        raise ShapeError(f"trace activation shapes {shapes} != network shapes {expected}")
    return trace.acts


def reverse_sweep(spec: NetworkSpec, acts: list, seed: np.ndarray, T: int):
    """Push a stacked score seed at activation T down to the input.

    ``acts`` comes from ``forward_arrays``; ``seed`` is shaped
    (W_T, H_T, *stack, *batch, D_T), any number of stacked seeds (p values,
    say) ahead of the trace's batch axes.  Yields ``(j, score at X(j))``
    for j = T, T-1, ..., 0; stop iterating once the lowest index needed has
    come.  Standard reverse mode: conv layers mask by the conv output's
    sign, read off their ReLU output (``X(i+1) > 0`` exactly where the
    conv output is positive), and apply the transposed kernel; pool
    layers route by argmax or split uniformly.  The masks and argmaxes
    depend on the trace only, so the sweep is linear in the seed and every
    stacked seed is exact.
    """
    grad = seed
    yield T, grad
    for i in range(T - 1, -1, -1):
        layer = spec.layers[i]
        if isinstance(layer, ConvLayer):
            if layer.apply_relu:
                grad = grad * _lift(acts[i + 1] > 0, grad)
            grad = _conv_backward_input(layer.kernel, layer.stride, layer.padding, grad, acts[i].shape)
        else:
            grad = _pool_backward(layer, _lift(acts[i], grad), grad)
        yield i, grad


def backprop_score(
    spec: NetworkSpec, trace: ForwardTrace, T: int, p: int, down_to: int
) -> np.ndarray:
    """Gradient of -ln f (likelihood at activation T) wrt activation ``down_to``.

    The layer score seeds ``reverse_sweep`` at T; the sweep stops at
    ``down_to``.  The result is a fresh array, writable by the caller.
    """
    if not 0 <= down_to <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= down_to <= T <= {len(spec.layers)}, got down_to={down_to}, T={T}")
    acts = trace_arrays(spec, trace)
    for j, score in reverse_sweep(spec, acts, layer_score(acts[T], p), T):
        if j == down_to:
            return score


def _gamma_hop(hop: ConvLayer, x_t: np.ndarray, x_next: np.ndarray, hop_score: np.ndarray) -> np.ndarray:
    """gamma at X(t) from the score at X(t+1) = ``hop(x_t)``, for any stacked score.

    The activated-neuron indicator of the hop layer's output tests the
    post-activation response exactly as the score function prescribes (a
    conv layer without fused ReLU carries no indicator).  The hop is a
    differentiation in the connection weights, hence weight-free, and no
    downstream set depends on the input channel: the masked score, summed
    over output channels, is box-summed into a one-channel field.
    """
    if hop.apply_relu:
        hop_score = hop_score * _lift(x_next > 0, hop_score)
    field = hop_score.sum(axis=-1, keepdims=True)
    return _conv_backward_input(np.ones(hop.kernel.shape[:2] + (1, 1)), hop.stride, hop.padding, field, x_t.shape)


def gamma_stacks(spec: NetworkSpec, acts: list, targets: list[int], configs):
    """gamma of several targets under several (supervision, p) configs.

    ``acts`` comes from ``forward_arrays``.  Yields ``(t, score at
    X(t+1), gamma at X(t))`` per target, highest first, the configs in order
    on axis 2.  One reverse sweep, seeded with the final layer's scores for
    the "last" configs' p values, passes every target; a "next" score is the
    layer score at X(t+1).  Each target then takes one hop to its one-channel
    gamma field.  Callers pass targets and configs ``validate_request`` accepts.
    """
    last_ps = [p for sup, p in configs if sup == "last"]
    if last_ps:
        seed = np.stack([layer_score(acts[-1], p) for p in last_ps], axis=2)
        sweep = reverse_sweep(spec, acts, seed, len(spec.layers))
        del seed  # the sweep holds it until it is closed
    order = sorted(set(targets), reverse=True)
    for t in order:
        lasts = iter(())
        if last_ps:
            lasts = iter(np.split(next(g for j, g in sweep if j == t + 1), len(last_ps), axis=2))
            if t == order[-1]:
                sweep.close()  # the views in ``lasts`` keep what the stack needs
        parts = [next(lasts) if sup == "last" else layer_score(acts[t + 1], p)[:, :, None]
                 for sup, p in configs]
        score = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
        del lasts, parts  # a stacked copy leaves the swept array free for the hop
        yield t, score, _gamma_hop(spec.layers[t], acts[t], acts[t + 1], score)


def connection_activeness(
    spec: NetworkSpec,
    trace: ForwardTrace,
    request: ActivenessRequest,
    sample: tuple[int, int, int, int, int, int],
    hop_score: np.ndarray | None = None,
) -> float:
    """Activeness of one connection (w, h, d) -> (w', h', d') through layer t.

    Returns x(t)[w,h,d] * alpha, where alpha multiplies the activated
    indicator of the downstream neuron, the connectedness indicator and
    the backpropagated score at the downstream neuron.  Unconnected
    coordinate pairs yield 0.0; out-of-range coordinates raise.
    ``hop_score`` may carry a precomputed score at X(t+1) to amortize
    sweeps over many connections: any array indexed ``[w', h', d']``.
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
    if hop.apply_relu and not trace.acts[t + 1][wp, hp, dp] > 0:
        return 0.0
    alpha = hop_score[wp, hp, dp]
    return float(trace.acts[t][w, h, d] * alpha)


def neuron_activeness(
    spec: NetworkSpec, trace: ForwardTrace, request: ActivenessRequest
) -> ActivenessResult:
    """Per-neuron activeness at the requested layer.

    gamma sums the backpropagated score of every activated downstream
    neuron over the hop layer's connectivity (``gamma_stacks`` with one
    config).  The weighted response x(t) * gamma is the activeness
    array, summarized per channel into the feature vector.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    acts = trace_arrays(spec, trace)
    [(_, _, stack)] = gamma_stacks(spec, acts, [t], [(request.supervision, request.p)])
    gamma = np.broadcast_to(stack[:, :, 0], acts[t].shape)  # a read-only view
    activeness = acts[t] * gamma
    map2d = acts[t].shape[2] * stack[:, :, 0, 0]
    summarize = np.max if request.summarize == "max" else np.mean
    feature = summarize(activeness, axis=(0, 1))
    for arr in (activeness, map2d, feature):
        arr.flags.writeable = False
    ll = log_likelihood(acts[T].mean(axis=(0, 1)), request.p)
    return ActivenessResult(
        gamma=gamma, activeness=activeness, map2d=map2d, feature=feature, log_likelihood=ll
    )


def weighted_features(spec: NetworkSpec, acts: list, targets: list[int]) -> dict:
    """Max-summarized activeness features of several targets under every
    (supervision, p) of ``WEIGHTED_CONFIGS``, from one ``gamma_stacks`` pass.

    Returns ``{t: array (4, *batch, D_t)}`` in ``WEIGHTED_CONFIGS`` order:
    X(t) times its broadcast gamma field, maxed over (w, h), which equals the
    ``feature`` of the matching ``neuron_activeness`` request with ``summarize="max"``.
    """
    features = {}
    for t, _, gamma in gamma_stacks(spec, acts, targets, WEIGHTED_CONFIGS):
        features[t] = (gamma * _lift(acts[t], gamma)).max(axis=(0, 1))
    return features
