"""Command-line entry point.

Subcommands: ``gen-model`` (write a seeded random model), ``activeness``
(heatmap + feature export for one image), ``gradcheck`` (engine vs
finite-difference and enumeration oracles; the CI gate) and ``toybench``
(pipeline comparison table on the toy dataset).

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 I/O error.
Every subcommand is deterministic given its flags.  ``main`` builds its
argument parser once per process, on its first call.  The INTERACTIVE_LOG
environment variable (debug/info/warning) controls log verbosity, as do
repeated ``-v`` flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import re
import struct
import sys

import numpy as np

from .activeness import (
    SUMMARIZE_MODES,
    SUPERVISION_MODES,
    ActivenessRequest,
    backprop_score,  # noqa: F401 -- not called here; the benchmark's tracer wraps it here by name
    connection_activeness,
    gamma_stacks,
    neuron_activeness,
    target_name,
    valid_targets,
    validate_request,
)
from .evalharness import compare_pipelines
from .image import RasterImage, bilinear_resize, read_image, resample_to, to_input_tensor, write_image
from .model_io import ARCHITECTURES, generate_model, load_model, save_model
from .net import ConvLayer, forward, receptive_sets
from .oracle import enumerate_gamma, fd_connection_check
from .tensor import Tensor3

log = logging.getLogger("interactive")

FEATURE_MAGIC = b"IAFEAT01"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Upper bound of ``gradcheck --samples``: 100000 probes are minutes of work, so
# a larger count is refused as a typo before any work starts.
MAX_SAMPLES = 100_000


def _bounded_int(low: int, high: int | None = None):
    """An argparse type for an integer flag that must lie in low..high (no
    upper bound when ``high`` is None); argparse names the flag in the error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in one ``error:`` line and
    exit 2, with no usage block.  A value in exponent form (``-1e308``,
    ``-.5e3``) or a negative infinity or NaN (``-inf``, ``-Infinity``,
    ``-nan``, any case) counts as a negative number, not as an option, as
    ``-1`` already does.  Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )

    def parse_known_args(self, args=None, namespace=None):
        # argparse sets an unknown flag before the subcommand aside and reads its value as
        # the subcommand, so ``--seed 5 gen-model`` would be "invalid choice: '5'"; name the flag
        args = sys.argv[1:] if args is None else list(args)
        commands = next((a.choices for a in self._actions if isinstance(a, argparse._SubParsersAction)), {})
        for arg in args if commands else ():
            if arg in commands:
                break
            flag = arg.split("=")[0]
            owners = [name for name, sub in commands.items() if flag in sub._option_string_actions]
            if owners and flag not in self._option_string_actions:
                self.error(f"{flag} is an option of {', '.join(owners)}; put it after the subcommand")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _setup_logging(verbose: int) -> None:
    level = getattr(logging, os.environ.get("INTERACTIVE_LOG", "").upper(), None)
    if not isinstance(level, int):  # unset, unknown, or a non-level name such as BASIC_FORMAT
        level = logging.WARNING
    if verbose == 1:
        level = min(level, logging.INFO)
    elif verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _resolve_target(spec, name: str) -> int:
    """Map a layer name (or "input") to the activation index t it selects;
    ``validate_request`` rejects a t that is no activeness target.  An
    unknown name raises ``KeyError`` listing the names that select a target."""
    names = ["input", *spec.names]
    if name not in names:
        valid = ", ".join(target_name(spec, t) for t in valid_targets(spec))
        raise KeyError(f"no layer named {name!r}; valid: {valid}")
    t = names.index(name)
    validate_request(spec, ActivenessRequest(target_layer=t))
    return t


def cmd_gen_model(args) -> int:
    spec = generate_model(args.arch, args.seed, input_shape=tuple(args.input) if args.input else None)
    save_model(spec, args.out)
    kinds = ["conv" if isinstance(layer, ConvLayer) else "pool" for layer in spec.layers]
    print(f"{'layer':<10} {'kind':<5} {'output':>12}")
    for name, kind, (w, h, d) in zip(["(input)", *spec.names], ["", *kinds], spec.shapes):
        print(f"{name:<10} {kind:<5} {f'{w}x{h}x{d}':>12}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _prepare_input(img: RasterImage, spec, mean: float) -> Tensor3:
    """Fit an image to the network input: resample (one channel, for a gray one), channel-fix, mean-subtract."""
    w0, h0, d0 = spec.input_shape
    if img.channels != d0 and (img.channels, d0) != (1, 3):
        raise ValueError(f"image has {img.channels} channels but the network expects {d0}")
    if (img.width, img.height) != (w0, h0):
        log.info("resampling %dx%d image to network input %dx%d", img.width, img.height, w0, h0)
        img = resample_to(img, w0, h0)
    if img.channels != d0:
        img = RasterImage(pixels=np.repeat(img.pixels, 3, axis=2))
    return to_input_tensor(img, [mean] * d0)


def _write_heatmap(map2d: np.ndarray, out_w: int, out_h: int, path) -> None:
    """Upsample a w-major gamma-hat map to out dims, min-max to 8 bits."""
    upsampled = bilinear_resize(map2d.T, out_h, out_w)
    lo, hi = upsampled.min(), upsampled.max()
    if hi - lo < 1e-12:
        gray = np.full((out_h, out_w), 128, dtype=np.uint8)
    else:
        gray = np.floor((upsampled - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)
    write_image(RasterImage(pixels=gray[:, :, None]), path)


def cmd_activeness(args) -> int:
    if args.heatmap is None and args.features is None:
        raise ValueError("nothing to do: pass --heatmap and/or --features")
    spec = load_model(args.model)
    img = read_image(args.image)
    t = _resolve_target(spec, args.layer)
    request = ActivenessRequest(target_layer=t, supervision=args.config, p=args.p, summarize=args.summarize)
    trace = forward(spec, _prepare_input(img, spec, args.mean).array)
    result = neuron_activeness(spec, trace, request)
    if args.heatmap is not None:
        _write_heatmap(result.map2d, img.width, img.height, args.heatmap)
        print(f"heatmap written to {args.heatmap} ({img.width}x{img.height})")
    if args.features is not None:
        values = result.feature.astype("<f4")
        with open(args.features, "wb") as fh:
            fh.write(FEATURE_MAGIC + struct.pack("<I", values.size) + b"\x00" * 4)
            fh.write(values.tobytes())
        print(f"{values.size}-dim feature written to {args.features}")
    log.info("log-likelihood at supervision layer: %.6g", result.log_likelihood)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    spec = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    trace = forward(spec, rng.standard_normal(spec.input_shape))
    targets = valid_targets(spec)
    if not targets:
        raise ValueError("model has no conv layer to check")
    # a conv whose every window lies in its padding has no connection to sample
    conns = {t: receptive_sets(spec, t) for t in targets}
    sampled = [t for t in targets if conns[t].connection_count() > 0]
    if not sampled:
        raise ValueError("no conv layer has a connection outside its padding, so there is nothing to check")
    # this order, not WEIGHTED_CONFIGS', picks each probe's config (j % 4); golden records and bench reference pin it
    combos = [(sup, p) for sup in ("last", "next") for p in (1, 2)]

    # one pass gives every target's gamma, the combos on axis 2, as in toybench;
    # one literal walk per target gives all four configs
    stacks = gamma_stacks(spec, trace, targets, combos)
    enum_max = max(
        float(np.abs(gammas - enumerate_gamma(spec, trace, t, combos)).max()) for t, gammas in stacks.items()
    )

    # every probe is drawn first, in the order one-by-one probing drew them, then the
    # probes of each (target, config) go to one engine call and one finite-difference call
    groups = {}
    for j in range(args.samples):
        t = sampled[int(rng.integers(len(sampled)))]
        conn = conns[t]
        sources = []
        while not sources:  # an output window wholly in padding has no source: draw again
            wp, hp, dp = (int(rng.integers(n)) for n in conn.out_shape)
            sources = conn.v_set(wp, hp, dp)
        w, h, d = sources[int(rng.integers(len(sources)))]
        groups.setdefault((t, j % len(combos)), []).append((w, h, d, wp, hp, dp))

    max_rel = 0.0
    max_small_abs = 0.0
    skipped = 0
    compared = 0
    for (t, k), connections in groups.items():
        sup, p = combos[k]
        request = ActivenessRequest(target_layer=t, supervision=sup, p=p)
        engines = connection_activeness(spec, trace, request, connections)
        for engine, fd in zip(engines, fd_connection_check(spec, trace, request, connections)):
            if fd is None:
                skipped += 1
                continue
            compared += 1
            scale = max(abs(engine), abs(fd))
            if scale <= 1e-6:
                max_small_abs = max(max_small_abs, abs(engine - fd))
            else:
                max_rel = max(max_rel, abs(engine - fd) / scale)

    ok = compared > 0 and max_rel <= 1e-4 and max_small_abs <= 1e-7 and enum_max <= 1e-10
    print(f"connections sampled: {args.samples} (compared {compared}, kink-skipped {skipped})")
    print(f"max relative error vs finite differences: {max_rel:.3e}")
    print(f"max absolute error on near-zero pairs:    {max_small_abs:.3e}")
    print(f"max |gamma engine - enumeration|:          {enum_max:.3e}")
    print("gradcheck PASS" if ok else "gradcheck FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_toybench(args) -> int:
    spec = load_model(args.model)
    targets = None  # compare_pipelines takes every valid target
    if args.layers is not None:
        targets = [_resolve_target(spec, name.strip()) for name in args.layers.split(",")]
    report = compare_pipelines(args.dataset_seed, spec, targets)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(report.to_text())
    print(f"report written to {args.out}")
    if args.json is not None:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"structured report written to {args.json}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="interactive",
        description="Activeness-weighted deep features and heatmaps for small conv nets.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-model", help="generate and save a seeded random model")
    gen.add_argument("--arch", required=True, choices=sorted(ARCHITECTURES), help="architecture template")
    gen.add_argument("--seed", type=_bounded_int(0), default=0, help="generator seed")
    gen.add_argument("--input", type=_bounded_int(1), nargs=3, metavar=("W", "H", "C"),
                     help="override input shape")
    gen.add_argument("--out", required=True, help="output model path")

    act = sub.add_parser("activeness", help="heatmap and feature vector for one image")
    act.add_argument("--model", required=True)
    act.add_argument("--image", required=True, help="binary PGM/PPM input")
    act.add_argument("--layer", required=True, help="layer name whose output is weighted, or 'input'")
    act.add_argument("--config", choices=SUPERVISION_MODES, default="last", help="supervision layer")
    act.add_argument("--p", type=int, choices=(1, 2), default=2, help="likelihood norm")
    act.add_argument("--summarize", choices=SUMMARIZE_MODES, default="max", help="feature pooling")
    act.add_argument("--mean", type=float, default=128.0, help="per-channel input mean to subtract")
    act.add_argument("--heatmap", help="write the 2-D weighting map here as PGM")
    act.add_argument("--features", help="write the feature vector here (f32 binary)")

    grad = sub.add_parser("gradcheck", help="verify the engine against the oracles")
    grad.add_argument("--model", required=True)
    grad.add_argument("--seed", type=_bounded_int(0), default=0, help="input/sampling seed")
    grad.add_argument("--samples", type=_bounded_int(1, MAX_SAMPLES), default=200,
                      help=f"connections to sample (at most {MAX_SAMPLES})")

    bench = sub.add_parser("toybench", help="pipeline comparison table on the toy dataset")
    bench.add_argument("--model", required=True)
    bench.add_argument("--dataset-seed", type=_bounded_int(0), default=0)
    bench.add_argument("--layers", help="comma-separated layer names (default: all valid targets)")
    bench.add_argument("--out", required=True, help="plain-text report path")
    bench.add_argument("--json", help="also write the report as JSON here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call, not at import.
    Each ``parse_args`` call fills a fresh namespace, so calls share no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging(args.verbose)
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]  # looked up per call, so a patched cmd_* runs
    try:
        # an overflow past the forward pass's own check ends in one line, not a numpy warning
        with np.errstate(over="raise", invalid="raise"):
            return command(args)
    except FloatingPointError as exc:
        print(f"error: {exc}; the input is out of numeric range", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
