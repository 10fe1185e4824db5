"""Slow verifiers: finite differences and explicit enumeration.

The finite-difference (FD) probes replay the forward pass only:
``fd_connection_check`` (a list of connection weights of one layer) and
``fd_activation_score`` (one activation entry) take central differences
with step ``FD_STEP``, rerunning the layers above the probed weight or
activation on a bumped-up and a bumped-down copy per probe, and
differentiate the ln f the engine reports (``log_likelihood``, one call per
stack); they never use the engine's backward path.  One replay helper runs
the copies of many probes as one stack on the forward kernels' batch axes,
bounded by ``FD_STACK_ELEMENTS``; a single probe is a stack of one.  A probe
replays only its downstream cone: per layer, the box of outputs its bump can
change, from the region of the trace they read with the changed box below
pasted in; with no layer to replay, only its channel of X(T) is rebuilt.

``enumerate_gamma`` checks the hop: for each requested (supervision, p)
config it takes the engine's score at X(t+1) (``backprop_score``), then
walks every connectivity set of the target literally: per input column, one
gather of the scores of each set's consumers, zero where the activation
indicator is off, added left to right for all the configs at once; a U-set
equal to the one just walked at the same (w, h) reuses its sums.  Both
oracles ship in the library so the CLI can expose a user-facing gradient
check.  Each takes a trace, the tuple ``forward`` returns, and checks it
against the network (``check_trace``) where it enters.

Finite differencing a piecewise-linear network is undefined at kinks, so
two skip rules apply: a connection probe whose directly perturbed neuron
sits within ``KINK_GUARD`` of its ReLU boundary is skipped, and any probe
whose two perturbed passes disagree in ReLU sign pattern or in max-pool
choice (the oracle's own numpy ``argmax`` over each window's taps) is
discarded: the difference quotient straddled a kink.
"""

from __future__ import annotations

import math

import numpy as np

from .activeness import ActivenessRequest, backprop_score, check_trace, log_likelihood, validate_request
from .net import ConvLayer, NetworkSpec, apply_conv, apply_pool, receptive_sets
from .net import forward  # noqa: F401 -- not called here; the benchmark's tracer wraps it here by name

ENUMERATION_GUARD = 10**7
FD_STEP = 1e-4  # central-difference step, in weight or activation units
# Bound of one stacked FD replay, in elements of its largest array (a cone
# region, a box or the rebuilt X(T)) over all its copies.  A conv step holds its
# region and two box-sized arrays at once; 2^13 - 2^9 float64 (60 KB) keeps a
# replay's peak under that of whole-layer replays of 2^13 elements of X(start).
FD_STACK_ELEMENTS = 2**13 - 2**9
KINK_GUARD = 1e-6  # a hit neuron's pre-activation closer than this to 0 skips the probe


def _max_pool_choice(layer, x: np.ndarray) -> np.ndarray:
    """Flat index ``a * window + b`` of each max-pool window's first maximum in scan
    order: numpy ``argmax`` over the window's taps stacked w-outer, h-inner."""
    k, s = layer.window, layer.stride
    ow, oh = (x.shape[0] - k) // s + 1, (x.shape[1] - k) // s + 1
    taps = [x[a : a + ow * s : s, b : b + oh * s : s] for a in range(k) for b in range(k)]
    return np.stack(taps, axis=-1).argmax(axis=-1)  # taps last, so argmax reads them without a copy


def _zero_padded(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` (W, H, D) with ``pad`` zeros on each side of both spatial axes."""
    if not pad:
        return x
    out = np.zeros((x.shape[0] + 2 * pad, x.shape[1] + 2 * pad, x.shape[2]))
    out[pad:-pad, pad:-pad] = x
    return out


def _cone(spec: NetworkSpec, start: int, T: int) -> list:
    """Per layer start..T-1, ``(layer, pad, back, room, region, box)``: ``box`` is
    the (w, h, D) shape, clamped inside the layer's output, of the outputs that
    can read a cell a bump of one X(start) cell changes, ``region`` that of the
    zero-padded input they read.  Per axis a box starts at ``ceil((lo - back) /
    stride)`` clamped to ``0..room``, where the changed cells below start at ``lo``."""
    steps, box = [], (1, 1)
    for layer, below, out in zip(spec.layers[start:T], spec.shapes[start:T], spec.shapes[start + 1 : T + 1]):
        conv = isinstance(layer, ConvLayer)
        extent = layer.kernel.shape[:2] if conv else (layer.window,) * 2
        s, pad = layer.stride, layer.padding if conv else 0
        box = tuple(min(o, -(-(b + k - 1) // s)) for o, b, k in zip(out, box, extent))
        region = tuple((b - 1) * s + k for b, k in zip(box, extent))
        back, room = np.subtract(extent, pad + 1)[:, None], np.subtract(out[:2], box)[:, None]
        steps.append((layer, pad, back, room, (*region, below[2]), (*box, out[2])))
    return steps


def _cone_step(step: tuple, x: np.ndarray, lo: np.ndarray, box: np.ndarray) -> tuple:
    """Cut each probe's region from X(l) = ``x`` zero-padded, paste in its ``box``
    of changed cells below (starting at ``lo``) and run the layer with padding 0;
    returns the new box, where it starts and whether each pair agrees on it."""
    layer, pad, back, room, region, _ = step
    first = np.minimum(np.maximum(-((back - lo) // layer.stride), 0), room)
    # per axis, the region's rows of the padded input and the same rows of the box below
    rows = [np.arange(r)[:, None] + f * layer.stride for r, f in zip(region, first)]
    into = [r - a for r, a in zip(rows, lo + pad)]
    inside = [(i >= 0) & (i < b) for i, b in zip(into, box.shape)]
    x = _zero_padded(x, pad)[rows[0][:, None, :, None], rows[1][None, :, :, None].repeat(2, axis=3)]  # both copies
    i, j, k = np.nonzero(inside[0][:, None] & inside[1][None])
    x[i, j, k] = box[into[0][i, k], into[1][j, k], k]
    field = None
    if isinstance(layer, ConvLayer):
        box = apply_conv(layer, x, padding=0)
        if layer.apply_relu:
            field = box > 0
            np.maximum(box, 0.0, out=box)
    else:
        if layer.mode == "max":
            field = _max_pool_choice(layer, x)
        box = apply_pool(layer, x)
    return box, first, True if field is None else (field[:, :, :, 0] == field[:, :, :, 1]).all(axis=(0, 1, 3))


def _fd_replay(cone: list, trace: tuple, start: int, T: int, p: int, coords, bumps, mean) -> list:
    """Replay layers start..T-1 on the ``_cone`` of one stack of probes, where
    probe i sets X(start)[coords[i]] to ``bumps[i]`` (up, down); returns, per
    probe, the central difference of -ln f over ``2 * FD_STEP``, or None where
    its copies differ in a box's ReLU signs or max-pool choices (outside the
    boxes both equal the trace).  X(T) is the trace with the last box pasted
    in, so its mean adds the terms of a whole-layer replay in the same order;
    a channel no box changed keeps ``mean``, the trace's own.
    The pair axis sits last before D: every conv product has two rows."""
    n, probe = len(coords), np.arange(len(coords))
    lo = coords[:, :2].T  # per axis, where each probe's changed cells start
    box = np.repeat(trace[start][lo[0], lo[1]][None, None, :, None], 2, axis=3)
    box[0, 0, probe, :, coords[:, 2]] = bumps
    agree = np.ones(n, dtype=bool)
    for step, x in zip(cone, trace[start:]):
        box, lo, same = _cone_step(step, x, lo, box)
        agree &= same
    # X(T) is rebuilt on the channels the boxes change: all D, or the probe's own when no layer ran
    channels = coords[:, 2:] if T == start else np.arange(trace[T].shape[2])[None]
    picked = (probe[:, None, None], np.arange(2)[:, None], channels[:, None])  # (n, 2, C): probe, copy, channel
    xT = np.broadcast_to(trace[T][:, :, channels[:, None]], (*trace[T].shape[:2], n, 2, channels.shape[1])).copy()
    box = box[(..., *picked)]
    xT[np.arange(box.shape[0])[:, None, None] + lo[0], np.arange(box.shape[1])[:, None] + lo[1], probe] = box
    xbar = np.tile(mean, (n, 2, 1))
    xbar[picked] = xT.mean(axis=(0, 1))
    up, down = log_likelihood(xbar, p).T
    return [q if same else None for q, same in zip(((down - up) / (2.0 * FD_STEP)).tolist(), agree.tolist())]


def _fd_probes(spec: NetworkSpec, trace: tuple, start: int, T: int, p: int, coords, bumps) -> list:
    """``_fd_replay`` over the probes ``coords`` (n, 3) and ``bumps`` (n, 2) of X(start),
    in stacks whose largest array (a region, a box or the rebuilt X(T), one channel of it
    when no layer runs, over all copies) holds at most ``FD_STACK_ELEMENTS`` elements (a
    probe larger than that is a stack of one); one quotient or None per probe, in order."""
    cone, mean = _cone(spec, start, T), trace[T].mean(axis=(0, 1))
    largest = max([math.prod(trace[T].shape[: 3 if cone else 2])] + [math.prod(s) for step in cone for s in step[-2:]])
    size = max(1, FD_STACK_ELEMENTS // (2 * largest))
    return [
        quotient
        for lo in range(0, len(coords), size)
        for quotient in _fd_replay(cone, trace, start, T, p, coords[lo : lo + size], bumps[lo : lo + size], mean)
    ]


def _hop_probes(hop: ConvLayer, conn, x: np.ndarray, ends: np.ndarray) -> tuple:
    """The entry of X(t+1) each connection of ``ends`` (n, 6) feeds, with its weight
    bumped up and down, (n, 2), and whether it passes the kink rules: the sum of
    its window of zero-padded X(t) = ``x`` times its kernel column, term by term."""
    (w, h, d), (wp, hp, dp) = ends[:, :3].T, ends[:, 3:].T
    kw, kh, _, _ = hop.kernel.shape
    probe, (a, b), s = np.arange(len(ends)), conn.kernel_offset(w, h, wp, hp), hop.stride
    x = _zero_padded(x, hop.padding)
    terms = x[wp[:, None, None] * s + np.arange(kw)[:, None], hp[:, None, None] * s + np.arange(kh)]
    hit, weight = terms[probe, a, b, d], hop.kernel[a, b, d, dp]
    terms *= hop.kernel.transpose(3, 0, 1, 2)[dp]
    sums = [terms.sum(axis=(1, 2, 3)) + hop.bias[dp]]
    for delta in (FD_STEP, -FD_STEP):
        terms[probe, a, b, d] = hit * (weight + delta)
        sums.append(terms.sum(axis=(1, 2, 3)) + hop.bias[dp])
    pres = np.stack(sums[1:], axis=1)
    if not hop.apply_relu:
        return pres, np.ones(len(ends), dtype=bool)
    keep = (np.abs(sums[0]) >= KINK_GUARD) & ((pres[:, 0] > 0) == (pres[:, 1] > 0))
    return np.where(pres > 0, pres, 0.0), keep


def fd_connection_check(spec: NetworkSpec, trace: tuple, request: ActivenessRequest, connections) -> list:
    """Central differences of -ln f in connection weights of layer t: a list
    with one ``float | None`` per connection, in order, None where the probe
    sits at a kink.

    Each connection is (w, h, d, w', h', d') and must name a real kernel entry
    feeding (w', h', d') from (w, h, d); every connection is checked before
    any replay, and one that does not exist raises ``ValueError``.  A trace of
    another network raises ``ShapeError``.  The bumped weight applies to the
    single connection only: the one entry of X(t+1) it feeds is recomputed
    from its receptive window, cut for all probes in one gather from X(t)
    zero-padded, against a kernel column with the weight changed; the rest
    of X(t+1) is the forward trace's.  A probe is None when that entry's
    unbumped pre-activation magnitude is below ``KINK_GUARD``, when its two
    bumped pre-activations differ in sign, or when the two passes land on
    different linear pieces.  Only the bumped entry differs from the trace,
    so its sign is the hop layer's whole share of the activation pattern.
    The probes that pass the first two rules are replayed in stacks bounded
    by ``FD_STACK_ELEMENTS``.
    """
    T = validate_request(spec, request)
    check_trace(spec, trace)
    t = request.target_layer
    hop = spec.layers[t]
    conn = receptive_sets(spec, t)
    for connection in connections:
        if not conn.connected(*connection):
            raise ValueError(f"connection {connection} does not exist through layer {spec.names[t]}")
    ends = np.array(connections, dtype=int).reshape(-1, 6)
    pres, keep = _hop_probes(hop, conn, trace[t], ends)
    quotients = [None] * len(ends)
    kept = np.flatnonzero(keep)
    for j, quotient in zip(kept.tolist(), _fd_probes(spec, trace, t + 1, T, request.p, ends[kept, 3:], pres[kept])):
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
    bumps = [[base[coord] + FD_STEP, base[coord] - FD_STEP]]
    return _fd_probes(spec, trace, layer_index, T, p, np.array([coord]), np.array(bumps))[0]


def _set_sums(table: np.ndarray, flat: list, lengths: list) -> np.ndarray:
    """Per set, the sum from 0.0 of its rows of ``table`` in order (``flat``: the sets' row
    indices back to back, ``lengths``: their sizes): one gather, padded with the zero last
    row, accumulated in place; a sum over a kept axis of length 1 would be pairwise."""
    lengths = np.array(lengths)
    index = np.full((len(lengths), lengths.max() + 1), -1)  # column 0 and the padding read the zero row
    index[:, 1:][np.arange(lengths.max()) < lengths[:, None]] = flat
    gathered = table[index]
    return np.cumsum(gathered, axis=1, out=gathered)[:, -1]


def enumerate_gamma(spec: NetworkSpec, trace: tuple, t: int, configs) -> np.ndarray:
    """gamma at X(t) under several (supervision, p) configs, by literal
    summation over every neuron's downstream set.

    Returns a fresh (W, H, K, D) array, writable by the caller, with the K
    configs on axis 2 in order, the layout of ``gamma_stacks``.  Each config
    is checked by ``validate_request`` and takes its score at X(t+1) from its
    own ``backprop_score`` call.  The walk asks ``u_set`` for every input
    neuron's U-set; per input column, one gather takes the K scores of each
    distinct set's consumers in order, 0.0 where the activation indicator is
    off and as padding, and adds them left to right from 0.0, as adding one
    active consumer at a time to one config's sum would.  A U-set equal (as a
    list) to the one walked last at the same (w, h) is not walked again: its
    channel reuses that walk's sums.  Memory: the K scores at X(t+1) as one
    table, plus one input column's set indices and gather at a time.
    Asymptotically slow; guarded against nets with more than
    ``ENUMERATION_GUARD`` connections through the hop layer.
    """
    Ts = [validate_request(spec, ActivenessRequest(target_layer=t, supervision=sup, p=p)) for sup, p in configs]
    check_trace(spec, trace)
    conn = receptive_sets(spec, t)
    if conn.connection_count() > ENUMERATION_GUARD:
        raise ValueError(
            f"layer {spec.names[t]} has {conn.connection_count()} connections; "
            f"enumeration is guarded at {ENUMERATION_GUARD}"
        )
    K, (w_out, h_out, d_out) = len(Ts), conn.out_shape
    # the K scores at X(t+1), one row per neuron, an inactive one's zeroed, then a zero row:
    # adding 0.0 to a sum that starts at 0.0 changes no bit, so neither adds anything
    table = np.zeros((w_out * h_out * d_out + 1, K))
    np.stack([backprop_score(spec, trace, T, p, t + 1) for T, (_, p) in zip(Ts, configs)], axis=-1,
             out=table[:-1].reshape(w_out, h_out, d_out, K))
    if spec.layers[t].apply_relu:
        table[:-1][~(trace[t + 1] > 0).reshape(-1)] = 0.0
    w_in, h_in, d_in = conn.in_shape
    gamma = np.empty((w_in, h_in, K, d_in))
    for w in range(w_in):
        flat, lengths, which = [], [], []  # the column's distinct U-sets, and the one each (h, d) reads
        for h in range(h_in):
            walked = None
            for d in range(d_in):
                u = conn.u_set(w, h, d)
                if u != walked:
                    walked = u
                    flat += [(wp * h_out + hp) * d_out + dp for wp, hp, dp in u]
                    lengths.append(len(u))
                which.append(len(lengths) - 1)
        gamma[w] = _set_sums(table, flat, lengths)[which].reshape(h_in, d_in, K).transpose(0, 2, 1)
    return gamma
