"""Slow verifiers: finite differences and explicit enumeration.

The finite-difference (FD) probes replay the forward pass only:
``fd_connection_check`` (one connection weight) and
``fd_activation_score`` (one activation entry) take central differences
with step ``FD_STEP``, rerunning the layers above the probed weight or
activation twice per probe through one replay helper, and differentiate
the ln f the engine reports (``log_likelihood``); they never use the
engine's backward path.  ``enumerate_gamma`` checks the hop: for each
requested (supervision, p) config it takes the engine's score at X(t+1)
(``backprop_score``), then makes one literal walk of every connectivity
set of the target, applying the activation indicator and adding each
active consumer's scores to all the configs' sums at once; a U-set equal
to the one just walked at the same (w, h) reuses its sums.  Both ship in
the library so the CLI can expose a user-facing gradient check.  Each
takes a trace, the tuple ``forward`` returns, and checks it against the
network (``check_trace``) where it enters.

Finite differencing a piecewise-linear network is undefined at kinks, so
two skip rules apply: a connection probe whose directly perturbed neuron
sits within ``KINK_GUARD`` of its ReLU boundary is skipped, and any probe
whose two perturbed passes disagree in ReLU sign pattern or in max-pool
choice (the oracle's own numpy ``argmax`` over each window's taps) is
discarded: the difference quotient straddled a kink.
"""

from __future__ import annotations

import numpy as np

from .activeness import ActivenessRequest, backprop_score, check_trace, log_likelihood, validate_request
from .net import ConvLayer, NetworkSpec, apply_conv, apply_pool, receptive_sets
from .net import forward  # noqa: F401 -- not called here; the benchmark's tracer wraps it here by name

ENUMERATION_GUARD = 10**7
FD_STEP = 1e-4  # central-difference step, in weight or activation units
KINK_GUARD = 1e-6  # a hit neuron's pre-activation closer than this to 0 skips the probe


def _max_pool_choice(layer, x: np.ndarray) -> np.ndarray:
    """Flat index ``a * window + b`` of each max-pool window's first maximum in scan
    order: numpy ``argmax`` over the window's taps stacked w-outer, h-inner."""
    k, s = layer.window, layer.stride
    ow, oh = (x.shape[0] - k) // s + 1, (x.shape[1] - k) // s + 1
    return np.argmax([x[a : a + ow * s : s, b : b + oh * s : s] for a in range(k) for b in range(k)], axis=0)


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
                pattern.append(_max_pool_choice(layer, x).tobytes())
            x = apply_pool(layer, x)
    return x, tuple(pattern)


def _fd_replay(spec: NetworkSpec, base: np.ndarray, start: int, T: int, p: int, coord, entries):
    """Replay layers start..T-1 on two copies of X(start) = ``base``, with ``base[coord]``
    set to each of ``entries`` (bumped up, then down); returns the central
    difference of -ln f over ``2 * FD_STEP`` and whether the two patterns agree."""
    values, patterns = [], []
    for entry in entries:
        x = base.copy()
        x[coord] = entry
        xT, pattern = _run_from(spec, x, start, T)
        values.append(-log_likelihood(xT.mean(axis=(0, 1)), p))
        patterns.append(pattern)
    return (values[0] - values[1]) / (2.0 * FD_STEP), patterns[0] == patterns[1]


def fd_connection_check(spec: NetworkSpec, trace: tuple, request: ActivenessRequest, connection) -> float | None:
    """Central difference of -ln f in one connection weight of layer t, or
    None when the probe sits at a kink.

    ``connection`` is (w, h, d, w', h', d') and must name a real kernel
    entry feeding (w', h', d') from (w, h, d) (``ValueError`` otherwise);
    a trace of another network raises ``ShapeError``.  The bumped weight
    applies to the single connection only: X(t+1) is copied from the
    forward trace, and the one entry the weight feeds is recomputed from
    its receptive window against a kernel column with the weight changed.
    The window is cut once per probe: its in-range part is copied into
    zeros, which stand for the padding.  Returns None when that entry's
    unbumped pre-activation magnitude is below ``KINK_GUARD`` or when the
    two passes land on different linear pieces.  Only the bumped entry
    differs from the trace, so its sign is the hop layer's whole share of
    the activation pattern.
    """
    T = validate_request(spec, request)
    check_trace(spec, trace)
    t = request.target_layer
    hop = spec.layers[t]
    w, h, d, wp, hp, dp = connection
    x = trace[t]
    kw, kh, _, _ = hop.kernel.shape
    conn = receptive_sets(spec, t)
    if not conn.connected(w, h, d, wp, hp, dp):
        raise ValueError(f"connection {connection} does not exist through layer {spec.names[t]}")
    w0, h0 = wp * hop.stride - hop.padding, hp * hop.stride - hop.padding
    w_lo, w_hi = max(w0, 0), min(w0 + kw, x.shape[0])
    h_lo, h_hi = max(h0, 0), min(h0 + kh, x.shape[1])
    window = np.zeros((kw, kh, x.shape[2]))
    window[w_lo - w0 : w_hi - w0, h_lo - h0 : h_hi - h0] = x[w_lo:w_hi, h_lo:h_hi]
    if hop.apply_relu and abs((window * hop.kernel[:, :, :, dp]).sum() + hop.bias[dp]) < KINK_GUARD:
        return None
    kw_off, kh_off = conn.kernel_offset(w, h, wp, hp)
    pres = []
    for delta in (+FD_STEP, -FD_STEP):
        column = hop.kernel[:, :, :, dp].copy()
        column[kw_off, kh_off, d] += delta
        pres.append((window * column).sum() + hop.bias[dp])
    entries = [pre if pre > 0 or not hop.apply_relu else 0.0 for pre in pres]
    quotient, agree = _fd_replay(spec, trace[t + 1], t + 1, T, request.p, (wp, hp, dp), entries)
    same_sign = not hop.apply_relu or (pres[0] > 0) == (pres[1] > 0)
    return quotient if agree and same_sign else None


def fd_activation_score(
    spec: NetworkSpec,
    trace: tuple,
    T: int,
    p: int,
    layer_index: int,
    coord: tuple[int, int, int],
) -> float | None:
    """Central difference of -ln f in one entry of activation X(layer_index).

    Cross-checks ``backprop_score``.  Returns None when the two perturbed
    passes straddle a kink.  A ``coord`` outside the activation raises
    ``IndexError``; a negative one does not wrap around.  A trace of another
    network raises ``ShapeError``.
    """
    check_trace(spec, trace)
    if not 0 <= layer_index <= T <= len(spec.layers):
        raise IndexError(f"need 0 <= layer_index <= T <= {len(spec.layers)}")
    base = trace[layer_index]
    if len(coord) != base.ndim or not all(0 <= c < n for c, n in zip(coord, base.shape)):
        raise IndexError(f"coord {tuple(coord)} outside activation {layer_index} of shape {base.shape}")
    coord = tuple(coord)  # a list would index whole rows
    entries = (base[coord] + FD_STEP, base[coord] - FD_STEP)
    quotient, agree = _fd_replay(spec, base, layer_index, T, p, coord, entries)
    return quotient if agree else None


def enumerate_gamma(spec: NetworkSpec, trace: tuple, t: int, configs) -> np.ndarray:
    """gamma at X(t) under several (supervision, p) configs, by literal
    summation over every neuron's downstream set.

    Returns a fresh (W, H, K, D) array, writable by the caller, with the K
    configs on axis 2 in order, the layout of ``gamma_stacks``.  Each config
    is checked by ``validate_request`` and takes its score at X(t+1) from its
    own ``backprop_score`` call.  One walk visits every input neuron once and
    goes through its U-set in order; each active consumer adds its K scores,
    one to each config's running sum, so every sum adds the same terms in the
    same order as a walk for that config alone.  A U-set equal (as a list) to
    the one walked last at the same (w, h) is not walked again: its channel
    reuses that walk's K sums, the same terms in the same order.  Memory: the
    K score arrays at X(t+1) in numpy, plus, as Python lists, only the w'
    slabs that the current input column reads.  Asymptotically slow; guarded
    against nets with more than ``ENUMERATION_GUARD`` connections through
    the hop layer.
    """
    Ts = [validate_request(spec, ActivenessRequest(target_layer=t, supervision=sup, p=p)) for sup, p in configs]
    check_trace(spec, trace)
    conn = receptive_sets(spec, t)
    if conn.connection_count() > ENUMERATION_GUARD:
        raise ValueError(
            f"layer {spec.names[t]} has {conn.connection_count()} connections; "
            f"enumeration is guarded at {ENUMERATION_GUARD}"
        )
    hop = spec.layers[t]
    scores = np.stack([backprop_score(spec, trace, T, p, t + 1) for T, (_, p) in zip(Ts, configs)], axis=-1)
    active = trace[t + 1] > 0
    # The walk reads X(t+1) as nested lists, one w' slab at a time: slab w' is
    # converted when column w first reaches its window and dropped once w has
    # passed it, so the lists never hold more than the slabs one column reads.
    score_rows = [None] * conn.out_shape[0]
    active_rows = [None] * conn.out_shape[0]
    lo = hi = 0
    w_in, h_in, d_in = conn.in_shape
    gamma = np.zeros((w_in, h_in, len(Ts), d_in))
    for w in range(w_in):
        while hi < conn.out_shape[0] and hi * conn.stride - conn.padding <= w:
            score_rows[hi], active_rows[hi] = scores[hi].tolist(), active[hi].tolist()
            hi += 1
        while lo < hi and lo * conn.stride - conn.padding + conn.kernel_w <= w:
            score_rows[lo] = active_rows[lo] = None
            lo += 1
        for h in range(h_in):
            walked = None
            for d in range(d_in):
                u = conn.u_set(w, h, d)
                if u != walked:
                    walked, totals = u, [0.0] * len(Ts)
                    for wp, hp, dp in u:
                        if hop.apply_relu and not active_rows[wp][hp][dp]:
                            continue
                        for k, term in enumerate(score_rows[wp][hp][dp]):
                            totals[k] += term
                gamma[w, h, :, d] = totals
    return gamma
