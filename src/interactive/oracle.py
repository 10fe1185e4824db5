"""Slow, independent verifiers: finite differences and explicit enumeration.

Nothing here reuses the engine's backward path.  Central differences
replay the forward pass above the probed weight twice per probe;
``enumerate_gamma`` walks every connectivity set literally.  Both ship in
the library so the CLI can expose a user-facing gradient check.

Finite differencing a piecewise-linear network is undefined at kinks, so
two skip rules apply: the ``kink_guard`` threshold skips probes whose
directly perturbed neuron sits nearly on its ReLU boundary, and any probe
whose two perturbed passes disagree in ReLU sign pattern or pooling
argmax choice is discarded (the difference quotient straddled a kink).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activeness import ActivenessRequest, backprop_score, validate_request
from .net import (
    ConvLayer, ForwardTrace, NetworkSpec, apply_conv, apply_pool, forward, pool_argmax, receptive_sets
)
from .tensor import Tensor3

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class FDSettings:
    step: float = 1e-4
    rel_tol: float = 1e-4
    kink_guard: float = 1e-6

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


def _run_from(spec: NetworkSpec, x: np.ndarray, start: int, stop: int):
    """Apply layers start..stop-1 to x; returns (X(stop), activation pattern).

    The pattern records each conv layer's ReLU sign field and each pool
    layer's argmax grid, so callers can tell whether two nearby inputs
    follow the same linear piece of the network.
    """
    pattern = []
    for i in range(start, stop):
        layer = spec.layers[i]
        if isinstance(layer, ConvLayer):
            pre = apply_conv(layer, x)
            if layer.apply_relu:
                mask = pre > 0
                pattern.append(mask.tobytes())
                x = np.where(mask, pre, 0.0)
            else:
                x = pre
        else:
            if layer.mode == "max":
                pattern.append(pool_argmax(layer, x).tobytes())
            x = apply_pool(layer, x)
    return x, tuple(pattern)


def _neg_log_f(xT: np.ndarray, p: int) -> float:
    xbar = xT.mean(axis=(0, 1))
    return float(xbar.sum() if p == 1 else (xbar * xbar).sum())


def _perturbed_pass(
    spec: NetworkSpec,
    trace: ForwardTrace,
    t: int,
    T: int,
    p: int,
    connection,
    delta: float,
):
    """-ln f at T after rerunning layers t..T-1 with one connection weight bumped.

    The bumped weight applies to the single connection only: the hop's
    pre-activations are copied from the forward trace, and the affected
    output entry is recomputed from its receptive window against a kernel
    copy with the one entry changed.
    """
    hop = spec.layers[t]
    conn = receptive_sets(spec, t)
    w, h, d, wp, hp, dp = connection
    kw_off, kh_off = conn.kernel_offset(w, h, wp, hp)
    x = trace.activation(t).array
    pre = trace.pre_activations[t].array.copy()

    kw, kh, _, _ = hop.kernel.shape
    pad = hop.padding
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0))) if pad else x
    patch = xp[wp * hop.stride : wp * hop.stride + kw, hp * hop.stride : hp * hop.stride + kh, :]
    column = hop.kernel[:, :, :, dp].copy()
    column[kw_off, kh_off, d] += delta
    pre[wp, hp, dp] = (patch * column).sum() + hop.bias[dp]

    pattern = []
    if hop.apply_relu:
        mask = pre > 0
        pattern.append(mask.tobytes())
        x = np.where(mask, pre, 0.0)
    else:
        x = pre
    x, rest = _run_from(spec, x, t + 1, T)
    return _neg_log_f(x, p), tuple(pattern) + rest


def fd_connection_score(
    spec: NetworkSpec,
    x0: Tensor3,
    request: ActivenessRequest,
    connection,
    settings: FDSettings = FDSettings(),
    trace: ForwardTrace | None = None,
) -> float:
    """Central difference of -ln f in one connection weight of layer t.

    ``connection`` is (w, h, d, w', h', d') and must name a real kernel
    entry feeding (w', h', d') from (w, h, d).
    """
    T = validate_request(spec, request)
    t = request.target_layer
    conn = receptive_sets(spec, t)
    w, h, d, wp, hp, dp = connection
    if not conn.connected(w, h, d, wp, hp, dp):
        raise ValueError(f"connection {connection} does not exist through layer {spec.names[t]}")
    if trace is None:
        trace = forward(spec, x0)
    plus, _ = _perturbed_pass(spec, trace, t, T, request.p, connection, +settings.step)
    minus, _ = _perturbed_pass(spec, trace, t, T, request.p, connection, -settings.step)
    return (plus - minus) / (2.0 * settings.step)


def fd_connection_check(
    spec: NetworkSpec,
    trace: ForwardTrace,
    request: ActivenessRequest,
    connection,
    settings: FDSettings = FDSettings(),
) -> float | None:
    """FD estimate for a connection, or None when the probe sits at a kink.

    Skips when the directly hit neuron's pre-activation magnitude is below
    ``kink_guard`` or when the two perturbed passes land on different
    linear pieces.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    w, h, d, wp, hp, dp = connection
    hop = spec.layers[t]
    if hop.apply_relu:
        pre = trace.pre_activations[t][wp, hp, dp]
        if abs(pre) < settings.kink_guard:
            return None
    plus, pat_plus = _perturbed_pass(spec, trace, t, T, request.p, connection, +settings.step)
    minus, pat_minus = _perturbed_pass(spec, trace, t, T, request.p, connection, -settings.step)
    if pat_plus != pat_minus:
        return None
    return (plus - minus) / (2.0 * settings.step)


def fd_activation_score(
    spec: NetworkSpec,
    trace: ForwardTrace,
    T: int,
    p: int,
    layer_index: int,
    coord: tuple[int, int, int],
    settings: FDSettings = FDSettings(),
) -> float | None:
    """Central difference of -ln f in one entry of activation X(layer_index).

    Cross-checks ``backprop_score``.  Returns None when the two perturbed
    passes straddle a kink.
    """
    if not 0 <= layer_index <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= layer_index <= T <= {len(spec.layers)}")
    base = trace.activation(layer_index).array
    results = []
    patterns = []
    for delta in (+settings.step, -settings.step):
        x = base.copy()
        x[coord] += delta
        xT, pattern = _run_from(spec, x, layer_index, T)
        results.append(_neg_log_f(xT, p))
        patterns.append(pattern)
    if patterns[0] != patterns[1]:
        return None
    return (results[0] - results[1]) / (2.0 * settings.step)


def enumerate_gamma(spec: NetworkSpec, trace: ForwardTrace, request: ActivenessRequest) -> Tensor3:
    """gamma by literal summation over every neuron's downstream set.

    Asymptotically slow; guarded against nets with more than
    ``ENUMERATION_GUARD`` connections through the hop layer.
    """
    T = validate_request(spec, request)
    t = request.target_layer
    conn = receptive_sets(spec, t)
    if conn.connection_count() > ENUMERATION_GUARD:
        raise ValueError(
            f"layer {spec.names[t]} has {conn.connection_count()} connections; "
            f"enumeration is guarded at {ENUMERATION_GUARD}"
        )
    hop = spec.layers[t]
    score = backprop_score(spec, trace, T, request.p, t + 1).array
    act_next = trace.activation(t + 1).array
    w_in, h_in, d_in = conn.in_shape
    gamma = np.zeros((w_in, h_in, d_in))
    for w in range(w_in):
        for h in range(h_in):
            for d in range(d_in):
                total = 0.0
                for wp, hp, dp in conn.u_set(w, h, d):
                    if hop.apply_relu and not act_next[wp, hp, dp] > 0:
                        continue
                    total += score[wp, hp, dp]
                gamma[w, h, d] = total
    return Tensor3.from_array(gamma)
