"""Slow verifiers: finite differences and explicit enumeration.

The finite-difference (FD) probes replay the forward pass only:
``fd_connection_check`` (a list of connection weights of one layer) and
``fd_activation_score`` (one activation entry) take central differences
with step ``FD_STEP``, rerunning the layers above the probed weight or
activation on a bumped-up and a bumped-down copy per probe, and
differentiate the ln f the engine reports (``log_likelihood``); they never
use the engine's backward path.  One replay helper runs the copies of many
probes as one stack on the forward kernels' batch axes, bounded by
``FD_STACK_ELEMENTS``; a single probe is a stack of one.

``enumerate_gamma`` checks the hop: for each requested (supervision, p)
config it takes the engine's score at X(t+1) (``backprop_score``), then
makes one literal walk of every connectivity set of the target, applying
the activation indicator and adding each active consumer's scores to all
the configs' sums at once; a U-set equal to the one just walked at the
same (w, h) reuses its sums.  Both oracles ship in the library so the CLI
can expose a user-facing gradient check.  Each takes a trace, the tuple
``forward`` returns, and checks it against the network (``check_trace``)
where it enters.

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
# Bound of one stacked FD replay, in elements of X(start) over all its bumped
# copies: 2^13 float64 (64 KB) keeps the replay's temporaries small, so a large
# model replays its probes a few at a time instead of raising peak RSS.
FD_STACK_ELEMENTS = 2**13
KINK_GUARD = 1e-6  # a hit neuron's pre-activation closer than this to 0 skips the probe


def _max_pool_choice(layer, x: np.ndarray) -> np.ndarray:
    """Flat index ``a * window + b`` of each max-pool window's first maximum in scan
    order: numpy ``argmax`` over the window's taps stacked w-outer, h-inner."""
    k, s = layer.window, layer.stride
    ow, oh = (x.shape[0] - k) // s + 1, (x.shape[1] - k) // s + 1
    taps = [x[a : a + ow * s : s, b : b + oh * s : s] for a in range(k) for b in range(k)]
    return np.stack(taps, axis=-1).argmax(axis=-1)  # taps last, so argmax reads them without a copy


def _run_from(spec: NetworkSpec, x: np.ndarray, start: int, stop: int):
    """Apply layers start..stop-1 to a (W, H, n, 2, D) stack of n pairs of
    copies of X(start); returns X(stop) and, per pair, whether its two copies
    follow the same linear piece of the network: the same ReLU sign field at
    every conv layer and the same argmax grid at every max-pool layer.
    """
    agree = np.ones(x.shape[2], dtype=bool)
    for layer in spec.layers[start:stop]:
        field = None
        if isinstance(layer, ConvLayer):
            x = apply_conv(layer, x)
            if layer.apply_relu:
                field = x > 0
                np.maximum(x, 0.0, out=x)
        else:
            if layer.mode == "max":
                field = _max_pool_choice(layer, x)
            x = apply_pool(layer, x)
        if field is not None:
            agree &= (field[:, :, :, 0] == field[:, :, :, 1]).all(axis=(0, 1, 3))
    return x, agree


def _bumped_copies(base: np.ndarray, probes) -> np.ndarray:
    """A (W, H, n, 2, D) stack of copies of ``base``, one pair per probe
    (coord, up, down): copy (i, 0) has ``base[coord]`` set to up, copy (i, 1)
    to down."""
    w, h, d = base.shape
    stack = np.broadcast_to(base[:, :, None, None], (w, h, len(probes), 2, d)).copy()
    for i, ((cw, ch, cd), up, down) in enumerate(probes):
        stack[cw, ch, i, :, cd] = up, down
    return stack


def _fd_replay(spec: NetworkSpec, base: np.ndarray, start: int, T: int, p: int, probes) -> list:
    """Replay layers start..T-1 on one stack, the ``_bumped_copies`` of X(start)
    = ``base`` for ``probes``; returns, per probe, the central difference of
    -ln f over ``2 * FD_STEP``, or None where its two copies do not follow the
    same linear piece (the difference straddled a kink).

    The stack is built in the call to ``_run_from``, which drops it once the
    first layer has read it.  The pair axis sits last before D, so every conv
    product has at least two rows and a stack of one pair rounds as a stack of
    many does.
    """
    xT, agree = _run_from(spec, _bumped_copies(base, probes), start, T)
    return [
        (log_likelihood(down, p) - log_likelihood(up, p)) / (2.0 * FD_STEP) if same else None
        for (up, down), same in zip(xT.mean(axis=(0, 1)), agree.tolist())
    ]


def _fd_probes(spec: NetworkSpec, base: np.ndarray, start: int, T: int, p: int, probes) -> list:
    """``_fd_replay`` over ``probes``, a list of (coord, up, down) bumps of
    X(start) = ``base``, in stacks of at most ``FD_STACK_ELEMENTS`` elements of
    X(start) (a probe larger than that is a stack of one); one quotient or None
    per probe, in order."""
    size = max(1, FD_STACK_ELEMENTS // (2 * base.size))
    chunks = (probes[lo : lo + size] for lo in range(0, len(probes), size))
    return [quotient for chunk in chunks for quotient in _fd_replay(spec, base, start, T, p, chunk)]


def fd_connection_check(spec: NetworkSpec, trace: tuple, request: ActivenessRequest, connections) -> list:
    """Central differences of -ln f in connection weights of layer t: a list
    with one ``float | None`` per connection, in order, None where the probe
    sits at a kink.

    Each connection is (w, h, d, w', h', d') and must name a real kernel entry
    feeding (w', h', d') from (w, h, d); every connection is checked before
    any replay, and one that does not exist raises ``ValueError``.  A trace of
    another network raises ``ShapeError``.  The bumped weight applies to the
    single connection only: X(t+1) is copied from the forward trace, and the
    one entry the weight feeds is recomputed from its receptive window against
    a kernel column with the weight changed.  The window is cut once per
    probe: its in-range part is copied into zeros, which stand for the
    padding.  A probe is None when that entry's unbumped pre-activation
    magnitude is below ``KINK_GUARD``, when its two bumped pre-activations
    differ in sign, or when the two passes land on different linear pieces.
    Only the bumped entry differs from the trace, so its sign is the hop
    layer's whole share of the activation pattern.  The probes that pass the
    first two rules are replayed in stacks bounded by ``FD_STACK_ELEMENTS``.
    """
    T = validate_request(spec, request)
    check_trace(spec, trace)
    t = request.target_layer
    hop = spec.layers[t]
    conn = receptive_sets(spec, t)
    for connection in connections:
        if not conn.connected(*connection):
            raise ValueError(f"connection {connection} does not exist through layer {spec.names[t]}")
    x = trace[t]
    kw, kh, _, _ = hop.kernel.shape
    quotients = [None] * len(connections)
    indices, probes = [], []
    for j, (w, h, d, wp, hp, dp) in enumerate(connections):
        w0, h0 = wp * hop.stride - hop.padding, hp * hop.stride - hop.padding
        w_lo, w_hi = max(w0, 0), min(w0 + kw, x.shape[0])
        h_lo, h_hi = max(h0, 0), min(h0 + kh, x.shape[1])
        window = np.zeros((kw, kh, x.shape[2]))
        window[w_lo - w0 : w_hi - w0, h_lo - h0 : h_hi - h0] = x[w_lo:w_hi, h_lo:h_hi]
        if hop.apply_relu and abs((window * hop.kernel[:, :, :, dp]).sum() + hop.bias[dp]) < KINK_GUARD:
            continue
        kw_off, kh_off = conn.kernel_offset(w, h, wp, hp)
        pres = []
        for delta in (+FD_STEP, -FD_STEP):
            column = hop.kernel[:, :, :, dp].copy()
            column[kw_off, kh_off, d] += delta
            pres.append((window * column).sum() + hop.bias[dp])
        if hop.apply_relu:
            if (pres[0] > 0) != (pres[1] > 0):
                continue
            pres = [pre if pre > 0 else 0.0 for pre in pres]
        indices.append(j)
        probes.append(((wp, hp, dp), *pres))
    for j, quotient in zip(indices, _fd_probes(spec, trace[t + 1], t + 1, T, request.p, probes)):
        quotients[j] = quotient
    return quotients


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
    return _fd_probes(spec, base, layer_index, T, p, [(coord, base[coord] + FD_STEP, base[coord] - FD_STEP)])[0]


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
    slabs that the current input column reads and the one U-set ``u_set``
    keeps for the current (w, h).  Asymptotically slow; guarded against nets
    with more than ``ENUMERATION_GUARD`` connections through the hop layer.
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
