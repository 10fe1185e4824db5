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

from .net import ConvLayer, NetworkSpec, receptive_sets, window_taps
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
    if t == len(spec.layers):
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


def valid_targets(spec: NetworkSpec) -> list[int]:
    """Every activation index ``validate_request`` accepts as a target: those consumed by a conv layer."""
    return [t for t, layer in enumerate(spec.layers) if isinstance(layer, ConvLayer)]


def log_likelihood(xbar: np.ndarray, p: int) -> float | np.ndarray:
    """ln f at the supervision layer, up to the dropped constant ln C_p.

    ``xbar`` is the supervision layer's (..., D) channel-mean array: one value
    per row, a float for a (D,) input.  Computed as the negative power sum
    -sum(v**p) over D, which equals -||v||_p^p on the nonnegative (post-ReLU)
    domain and stays smooth and finite-difference-consistent everywhere.
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    ll = -(xbar**p).sum(axis=-1)
    return ll if xbar.ndim > 1 else float(ll)


def layer_score(xT: np.ndarray, p: int) -> np.ndarray:
    """Gradient of -ln f with respect to a (W, H, *batch, D) supervision array.

    Every spatial position of channel d receives p/(W*H) * xbar_d**(p-1),
    with 0**0 taken as 1 so the p = 1 score is exactly the uniform field
    1/(W*H).  The result is a fresh array, writable by the caller.
    """
    if p not in (1, 2):
        raise ValueError(f"norm p must be 1 or 2, got {p}")
    return np.broadcast_to(_channel_score(xT, p), xT.shape).copy()


def _channel_score(xT: np.ndarray, p: int) -> np.ndarray:
    """The (*batch, D) value ``layer_score`` gives every spatial position of
    each channel: p/(W*H) * xbar_d**(p-1), broadcastable over (W, H)."""
    w, h = xT.shape[:2]
    xbar = xT.sum(axis=(0, 1)) / (w * h)  # numpy's mean, the same bits, without its wrapper
    return p / (w * h) * xbar ** (p - 1)


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


def _pool_backward(layer, x_in: np.ndarray, x_out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Max pooling routes each window's score to its first tap, in scan order, equal
    to the kept output ``x_out`` = X(i+1); a "still free" mask leaves ties to that
    first hit.  Average pooling splits uniformly.  The hit masks are built at the
    trace shape of ``x_in`` and ``x_out`` and lifted over ``grad_out``'s stacked seeds."""
    k = layer.window
    gx = np.zeros(x_in.shape[:2] + grad_out.shape[2:])
    free, hit = np.ones(x_out.shape, dtype=bool), np.empty(x_out.shape, dtype=bool)
    for _, _, tap in window_taps(k, k, layer.stride, *grad_out.shape[:2]):
        if layer.mode != "max":
            gx[tap] += grad_out / (k * k)
        else:
            np.logical_and(np.equal(x_in[tap], x_out, out=hit), free, out=hit)
            free ^= hit
            gx[tap] += grad_out * _lift(hit, grad_out)  # times 0 may give -0.0, which adds no bit to gx (never -0.0)
    return gx


def _lift(arr: np.ndarray, like: np.ndarray) -> np.ndarray:
    """View of a trace array with singleton axes after its spatial axes, so
    that it broadcasts against a score ``like`` that carries stacked seeds."""
    return arr.reshape(arr.shape[:2] + (1,) * (like.ndim - arr.ndim) + arr.shape[2:])


def check_trace(spec: NetworkSpec, trace: tuple) -> None:
    """Check a trace (the tuple ``forward`` returns) against the network's shapes.
    Each public function that reads a trace calls this where the trace enters."""
    shapes = tuple(a.shape for a in trace)
    if shapes != spec.shapes:
        raise ShapeError(f"trace activation shapes {list(shapes)} != network shapes {list(spec.shapes)}")


def reverse_sweep(spec: NetworkSpec, trace: tuple, seed: np.ndarray, T: int, keep: set[int]) -> dict:
    """Push a stacked score seed at activation T down to the lowest index in ``keep``.

    ``trace`` is a checked trace, as ``forward`` returns it; ``seed`` is shaped
    (W_T, H_T, *stack, *batch, D_T), any number of stacked seeds (p values,
    say) ahead of the trace's batch axes.  Returns ``{j: score at X(j)}`` for
    each j in ``keep``, a non-empty set of indices 0..T; no layer below
    ``min(keep)`` runs.  Standard reverse mode, with every mask read off the
    trace: conv layers mask by their ReLU output (``X(i+1) > 0`` exactly where
    the conv output is positive) and apply the transposed kernel; a max pool
    routes each window's score to the first tap equal to its output X(i+1),
    and an average pool splits it uniformly.  The masks depend on the trace
    only, so the sweep is linear in the seed and every stacked seed is exact.
    """
    grad = seed
    scores = {T: grad} if T in keep else {}
    for i in range(T - 1, min(keep) - 1, -1):
        layer = spec.layers[i]
        if isinstance(layer, ConvLayer):
            if layer.apply_relu:
                grad = grad * _lift(trace[i + 1] > 0, grad)
            grad = _conv_backward_input(layer.kernel, layer.stride, layer.padding, grad, trace[i].shape)
        else:
            grad = _pool_backward(layer, trace[i], trace[i + 1], grad)
        if i in keep:
            scores[i] = grad
    return scores


def backprop_score(spec: NetworkSpec, trace: tuple, T: int, p: int, down_to: int) -> np.ndarray:
    """Gradient of -ln f (likelihood at activation T) wrt activation ``down_to``.

    The layer score seeds ``reverse_sweep`` at T; the sweep stops at
    ``down_to``.  The result is a fresh array, writable by the caller.
    """
    if not 0 <= down_to <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= down_to <= T <= {len(spec.layers)}, got down_to={down_to}, T={T}")
    check_trace(spec, trace)
    return reverse_sweep(spec, trace, layer_score(trace[T], p), T, {down_to})[down_to]


def _gamma_hop(hop: ConvLayer, x_t: np.ndarray, x_next: np.ndarray, parts) -> np.ndarray:
    """gamma at X(t) from K scores at X(t+1) = ``hop(x_t)``, one per config.

    Each of the ``parts`` broadcasts to ``x_next``'s (W', H', *batch, D')
    shape: a swept score, or a per-channel layer score, never expanded.
    Each in turn is multiplied by the activated-neuron indicator of the hop
    layer's output, which tests the post-activation response exactly as the
    score function prescribes (a conv layer without fused ReLU carries none),
    into one scratch array of ``x_next``'s shape, and summed over the output
    channels into slot k of a one-channel (W', H', K, *batch, 1) field: one
    config is masked at a time.  The hop is a differentiation in the
    connection weights, hence weight-free, and no downstream set depends on
    the input channel, so that field is box-summed into the (W, H, K, *batch, 1)
    gamma field: added at each tap of ``window_taps``, with no kernel.
    """
    masked = np.empty(x_next.shape)
    field = np.empty((*x_next.shape[:2], len(parts), *x_next.shape[2:-1], 1))
    active = x_next > 0 if hop.apply_relu else True  # times 1.0 is exact
    for k, part in enumerate(parts):
        np.multiply(part, active, out=masked)
        masked.sum(axis=-1, keepdims=True, out=field[:, :, k])
    (w, h), p = x_t.shape[:2], hop.padding
    gxp = np.zeros((w + 2 * p, h + 2 * p, *field.shape[2:]))
    for _, _, tap in window_taps(*hop.kernel.shape[:2], hop.stride, *field.shape[:2]):
        gxp[tap] += field
    return gxp[p : p + w, p : p + h]


def gamma_stacks(spec: NetworkSpec, trace: tuple, targets: list[int], configs) -> dict:
    """gamma of several targets under several (supervision, p) configs.

    ``trace`` is a checked trace, as ``forward`` returns it.  Returns
    ``{t: gamma at X(t)}`` per target, highest first, the configs in order
    on axis 2; no target gives ``{}``.  One reverse sweep, seeded with the
    final layer's scores for the "last" configs' p values, reaches every
    target; a "last" config's score at X(t+1) is a view of its slot in the
    swept stack, a "next" config's the per-channel layer score of X(t+1).
    Each target then takes one hop to its one-channel gamma field.  Callers
    pass targets and configs ``validate_request`` accepts.
    """
    last_ps = [p for sup, p in configs if sup == "last"]
    swept = {}
    if last_ps and targets:  # the seed stack is passed unnamed, so that only the sweep holds it
        swept = reverse_sweep(spec, trace, np.stack([layer_score(trace[-1], p) for p in last_ps], axis=2),
                              len(spec.layers), {t + 1 for t in targets})
    gammas = {}
    for t in sorted(set(targets), reverse=True):
        lasts = iter(np.moveaxis(swept.pop(t + 1), 2, 0) if last_ps else ())
        parts = [next(lasts) if sup == "last" else _channel_score(trace[t + 1], p) for sup, p in configs]
        gammas[t] = _gamma_hop(spec.layers[t], trace[t], trace[t + 1], parts)
    return gammas


def connection_activeness(spec: NetworkSpec, trace: tuple, request: ActivenessRequest, connections) -> list:
    """Activeness of connections (w, h, d) -> (w', h', d') through layer t: a
    list with one float per connection, in order.

    Each is x(t)[w,h,d] * alpha, where alpha multiplies the activated
    indicator of the downstream neuron, the connectedness indicator and the
    backpropagated score at the downstream neuron.  An unconnected pair yields
    0.0.  The request is checked once, and every connection's coordinates
    before the sweep: one out of range raises ``IndexError``.  Then one
    ``backprop_score`` call, which checks the trace, gives the score at
    X(t+1) for the whole list.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    conn = receptive_sets(spec, t)
    linked = [conn.connected(*connection) for connection in connections]
    score = backprop_score(spec, trace, T, request.p, t + 1)
    relu = spec.layers[t].apply_relu
    return [
        float(trace[t][w, h, d] * score[wp, hp, dp]) if ok and (not relu or trace[t + 1][wp, hp, dp] > 0) else 0.0
        for ok, (w, h, d, wp, hp, dp) in zip(linked, connections)
    ]


def neuron_activeness(
    spec: NetworkSpec, trace: tuple, request: ActivenessRequest
) -> ActivenessResult:
    """Per-neuron activeness at the requested layer.

    gamma sums the backpropagated score of every activated downstream
    neuron over the hop layer's connectivity (``gamma_stacks`` with one
    config).  The weighted response x(t) * gamma is the activeness
    array, summarized per channel into the feature vector.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    check_trace(spec, trace)
    stack = gamma_stacks(spec, trace, [t], [(request.supervision, request.p)])[t]
    gamma = np.broadcast_to(stack[:, :, 0], trace[t].shape)  # a read-only view
    activeness = trace[t] * gamma
    map2d = trace[t].shape[2] * stack[:, :, 0, 0]
    if request.summarize == "max" and activeness.shape[2] > 1:  # np.max's order (w outermost), in rows of H * D
        feature = np.ascontiguousarray(activeness.swapaxes(0, 1)).max(axis=0).max(axis=0)
    else:  # one channel is one contiguous pass, whose SIMD lanes pick among tied zeros in an order of their own
        feature = (np.max if request.summarize == "max" else np.mean)(activeness, axis=(0, 1))
    for arr in (activeness, map2d, feature):
        arr.flags.writeable = False
    ll = log_likelihood(trace[T].mean(axis=(0, 1)), request.p)
    return ActivenessResult(
        gamma=gamma, activeness=activeness, map2d=map2d, feature=feature, log_likelihood=ll
    )


def weighted_features(spec: NetworkSpec, trace: tuple, targets: list[int]) -> dict:
    """Max-summarized activeness features of several targets under every
    (supervision, p) of ``WEIGHTED_CONFIGS``, from one ``gamma_stacks`` pass.

    ``trace`` is a checked trace, as ``forward`` returns it, with any batch
    axes.  Returns ``{t: array (4, *batch, D_t)}`` in ``WEIGHTED_CONFIGS`` order:
    X(t) times its broadcast gamma field, maxed over (w, h), which equals the
    ``feature`` of the matching ``neuron_activeness`` request with ``summarize="max"``.
    """
    stacks = gamma_stacks(spec, trace, targets, WEIGHTED_CONFIGS)
    return {t: (gamma * _lift(trace[t], gamma)).max(axis=(0, 1)) for t, gamma in stacks.items()}
