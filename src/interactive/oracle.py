"""Slow verifiers: finite differences and explicit enumeration.

The finite-difference (FD) probes replay the forward pass only: central
differences rerun the layers above the probed weight twice per probe and
differentiate the ln f the engine reports (``log_likelihood``); they never
use the engine's backward path.  ``enumerate_gamma`` checks the hop: it
takes the engine's score at X(t+1) (``backprop_score``) and applies the
activation indicator and the U-set sums by walking every connectivity set
literally.  Both ship in the library so the CLI can expose a user-facing
gradient check.

Finite differencing a piecewise-linear network is undefined at kinks, so
two skip rules apply: the ``kink_guard`` threshold skips probes whose
directly perturbed neuron sits nearly on its ReLU boundary, and any probe
whose two perturbed passes disagree in ReLU sign pattern or pooling
argmax choice is discarded (the difference quotient straddled a kink).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activeness import ActivenessRequest, backprop_score, log_likelihood, validate_request
from .net import (
    ConvLayer, ForwardTrace, NetworkSpec, apply_conv, apply_pool, forward, pool_argmax, receptive_sets
)
from .tensor import ChannelVector, Tensor3

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


def _central_difference(
    spec: NetworkSpec,
    trace: ForwardTrace,
    request: ActivenessRequest,
    T: int,
    connection,
    settings: FDSettings,
    skip_kinks: bool,
) -> float | None:
    """Central difference of -ln f in one connection weight of layer t.

    ``connection`` is (w, h, d, w', h', d') and must name a real kernel
    entry feeding (w', h', d') from (w, h, d).  The bumped weight applies
    to the single connection only: X(t+1) is copied from the forward
    trace, and the one entry the weight feeds is recomputed from its
    zero-padded receptive window (cut once per probe) against a kernel
    column with the weight changed.  With ``skip_kinks``,
    returns None when that entry's unbumped pre-activation magnitude is
    below ``kink_guard`` or when the two passes land on different linear
    pieces.  Only the bumped entry differs from the trace, so its sign is
    the hop layer's whole share of the activation pattern.
    """
    t = request.target_layer
    hop = spec.layers[t]
    w, h, d, wp, hp, dp = connection
    conn = receptive_sets(spec, t)
    if not conn.connected(w, h, d, wp, hp, dp):
        raise ValueError(f"connection {connection} does not exist through layer {spec.names[t]}")
    kw, kh, _, _ = hop.kernel.shape
    s, pad = hop.stride, hop.padding
    x = trace.activation(t).array
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0))) if pad else x
    window = xp[wp * s : wp * s + kw, hp * s : hp * s + kh, :]
    if skip_kinks and hop.apply_relu:
        if abs((window * hop.kernel[:, :, :, dp]).sum() + hop.bias[dp]) < settings.kink_guard:
            return None
    kw_off, kh_off = conn.kernel_offset(w, h, wp, hp)
    values, patterns = [], []
    for delta in (+settings.step, -settings.step):
        column = hop.kernel[:, :, :, dp].copy()
        column[kw_off, kh_off, d] += delta
        pre = (window * column).sum() + hop.bias[dp]
        x_next = trace.activation(t + 1).array.copy()
        x_next[wp, hp, dp] = pre if pre > 0 or not hop.apply_relu else 0.0
        xT, pattern = _run_from(spec, x_next, t + 1, T)
        values.append(-log_likelihood(ChannelVector(xT.mean(axis=(0, 1))), request.p))
        patterns.append((hop.apply_relu and pre > 0, pattern))
    if skip_kinks and patterns[0] != patterns[1]:
        return None
    return (values[0] - values[1]) / (2.0 * settings.step)


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
    if trace is None:
        trace = forward(spec, x0)
    return _central_difference(spec, trace, request, T, connection, settings, skip_kinks=False)


def fd_connection_check(
    spec: NetworkSpec,
    trace: ForwardTrace,
    request: ActivenessRequest,
    connection,
    settings: FDSettings = FDSettings(),
) -> float | None:
    """FD estimate for a connection, or None when the probe sits at a kink.

    Skips when the directly hit neuron's pre-activation magnitude, summed
    here from its receptive window, is below ``kink_guard`` or when the two
    perturbed passes land on different linear pieces.  A connection that
    does not exist raises ``ValueError``.
    """
    T = validate_request(spec, request)
    return _central_difference(spec, trace, request, T, connection, settings, skip_kinks=True)


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
    passes straddle a kink.  A ``coord`` outside the activation raises
    ``IndexError``; a negative one does not wrap around.
    """
    if not 0 <= layer_index <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= layer_index <= T <= {len(spec.layers)}")
    base = trace.activation(layer_index).array
    if len(coord) != base.ndim or not all(0 <= c < n for c, n in zip(coord, base.shape)):
        raise IndexError(f"coord {tuple(coord)} outside activation {layer_index} of shape {base.shape}")
    results = []
    patterns = []
    for delta in (+settings.step, -settings.step):
        x = base.copy()
        x[coord] += delta
        xT, pattern = _run_from(spec, x, layer_index, T)
        results.append(-log_likelihood(ChannelVector(xT.mean(axis=(0, 1))), p))
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
    return Tensor3.wrap(gamma)
