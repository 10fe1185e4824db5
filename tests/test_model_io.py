import json
import re

import numpy as np
import pytest

from interactive import (
    ARCHITECTURES,
    ConvLayer,
    NetworkSpec,
    ShapeError,
    forward,
    generate_model,
    infer_shapes,
    load_model,
    save_model,
)
from interactive.cli import EXIT_USAGE, main
from interactive.model_io import BIAS_INIT, ModelFormatError

from conftest import random_input


def specs_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    if a.names != b.names or a.input_shape != b.input_shape:
        return False
    for la, lb in zip(a.layers, b.layers):
        if type(la) is not type(lb):
            return False
        if isinstance(la, ConvLayer):
            if not (np.array_equal(la.kernel, lb.kernel) and np.array_equal(la.bias, lb.bias)):
                return False
            if (la.stride, la.padding, la.apply_relu) != (lb.stride, lb.padding, lb.apply_relu):
                return False
        else:
            if (la.window, la.stride, la.mode) != (lb.window, lb.stride, lb.mode):
                return False
    return True


def test_round_trip_is_exact(tmp_path):
    for arch in ARCHITECTURES:
        for seed in (0, 7, 123):
            spec = generate_model(arch, seed)
            path = tmp_path / f"{arch}-{seed}.model"
            save_model(spec, path)
            assert specs_equal(spec, load_model(path))


def test_save_is_byte_deterministic(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(spec, p1)
    save_model(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_is_deterministic_and_seed_sensitive():
    a = generate_model("tiny-2conv", seed=9)
    b = generate_model("tiny-2conv", seed=9)
    c = generate_model("tiny-2conv", seed=10)
    assert specs_equal(a, b)
    assert not specs_equal(a, c)


def test_tiny_2conv_shapes_match_inference():
    spec = generate_model("tiny-2conv", seed=7)
    assert infer_shapes(spec) == [(8, 8, 4), (4, 4, 4), (4, 4, 8)]


def test_tiny_fc_final_layer_spans_full_extent():
    spec = generate_model("tiny-fc", seed=7)
    assert infer_shapes(spec) == [(8, 8, 4), (4, 4, 4), (1, 1, 10)]
    fc = spec.layers[-1]
    assert fc.kernel.shape == (4, 4, 4, 10)  # kernel covers the whole 4x4 map


def test_input_override_adapts_full_extent_kernel():
    spec = generate_model("tiny-fc", seed=7, input_shape=(12, 12, 1))
    assert infer_shapes(spec) == [(12, 12, 4), (6, 6, 4), (1, 1, 10)]
    assert spec.layers[-1].kernel.shape == (6, 6, 4, 10)


def test_generated_biases_are_small_positive_constant():
    spec = generate_model("tiny-3conv", seed=1)
    for layer in spec.layers:
        if isinstance(layer, ConvLayer):
            assert np.all(layer.bias == BIAS_INIT)
            assert 0 < BIAS_INIT < 1


def test_unknown_arch_and_bad_seed():
    with pytest.raises(KeyError, match="tiny-2conv"):
        generate_model("nope", seed=0)
    with pytest.raises(ValueError):
        generate_model("tiny-2conv", seed=-1)


@pytest.mark.parametrize("shape", [(5, 5, -1), (-100000, -100000, 3)])
def test_nonpositive_input_dimension_rejected_before_size_guard(shape):
    with pytest.raises(ShapeError, match=rf"^bad input shape \({shape[0]}, {shape[1]}, {shape[2]}\)$"):
        generate_model("tiny-2conv", seed=0, input_shape=shape)


@pytest.mark.parametrize("shape", [(), (5, 5)], ids=["empty", "rank-2"])
def test_input_shape_of_wrong_rank_rejected(shape):
    with pytest.raises(ShapeError, match=rf"^bad input shape {re.escape(str(shape))}$"):
        generate_model("tiny-2conv", 0, input_shape=shape)


def test_generator_guards_the_padded_input_the_loader_guards():
    # conv-1's output, 2x524288x4, sits at the guard; its padded input 4x524290x3 is past it
    with pytest.raises(ShapeError, match="conv-1 padded input shape 4x524290x3 exceeds"):
        generate_model("tiny-2conv", seed=0, input_shape=(2, 524288, 3))


def test_generated_models_light_up_relus():
    # fixture guard: a seeded random input should activate >= 20% of each conv layer
    for arch in ARCHITECTURES:
        spec = generate_model(arch, seed=3)
        trace = forward(spec, random_input(spec, seed=4))
        for layer, act in zip(spec.layers, trace[1:]):
            if isinstance(layer, ConvLayer):
                assert (act > 0).mean() >= 0.20


def test_truncated_blob_is_rejected(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    path = tmp_path / "m.model"
    save_model(spec, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ModelFormatError, match="mismatch"):
        load_model(path)


def test_unsupported_version_is_rejected(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    path = tmp_path / "m.model"
    save_model(spec, path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"interactive-model/1", b"interactive-model/9", 1))
    with pytest.raises(ModelFormatError, match="format"):
        load_model(path)


def test_nan_weight_is_rejected_at_construction(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    path = tmp_path / "m.model"
    save_model(spec, path)
    raw = bytearray(path.read_bytes())
    # first blob scalar sits right after the header's closing newline
    header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1 + int(raw.split(b"\n")[1]) + 1
    raw[header_end : header_end + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="NaN"):
        load_model(path)


def test_save_to_unwritable_path(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    with pytest.raises(OSError):
        save_model(spec, tmp_path / "no" / "such" / "dir" / "m.model")


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.model")


def test_header_is_readable_text(tmp_path):
    spec = generate_model("tiny-2conv", seed=7)
    path = tmp_path / "m.model"
    save_model(spec, path)
    raw = path.read_bytes()
    assert raw.startswith(b"interactive-model/1\n")
    header_len = int(raw.split(b"\n")[1])
    start = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    header = raw[start : start + header_len].decode("utf-8")
    assert '"conv-1"' in header and '"pool"' in header


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the model at ``path``; the blob is kept."""
    magic, length, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(rest[: int(length)])
    body = json.dumps(edit(header)).encode("utf-8")
    path.write_bytes(b"\n".join([magic, str(len(body)).encode("ascii"), body]) + rest[int(length) :])


def _drop(key):
    def edit(header):
        del header["layers"][0][key]
        return header

    return edit


def _set(key, value):
    def edit(header):
        header["layers"][0][key] = value
        return header

    return edit


MALFORMED_HEADERS = {
    "layers-not-a-list": lambda header: {**header, "layers": 5},
    "entry-not-an-object": lambda header: {**header, "layers": [1]},
    "missing-stride": _drop("stride"),
    "missing-name": _drop("name"),
    "null-stride": _set("stride", None),
    "bool-padding": _set("padding", True),
    "int-relu": _set("relu", 1),
    "short-kernel-shape": _set("kernel_shape", [3, 3, 3]),
    "negative-kernel-dim": _set("kernel_shape", [-1, 3, 3, 4]),
    "float-input-shape": lambda header: {**header, "input_shape": [8.7, 8.2, 3]},
    "huge-input-shape": lambda header: {**header, "input_shape": [100000, 100000, 3]},
    # every layer output is small (3x3, 1x1, 1x1), but conv-1's zero-padded input is 200008x200008x3
    "huge-padding": lambda header: _set("stride", 100000)(_set("padding", 100000)(header)),
    # names that --layer or --layers cannot select
    "layer-named-input": _set("name", "input"),
    "empty-layer-name": _set("name", ""),
    "comma-in-layer-name": _set("name", "conv,1"),
    "space-before-layer-name": _set("name", " conv-1"),
    "space-after-layer-name": _set("name", "conv-1 "),
    "newline-in-layer-name": _set("name", "conv\n1"),  # would split a toybench report row
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_a_format_error(tmp_path, capsys, case):
    path = tmp_path / "m.model"
    save_model(generate_model("tiny-2conv", seed=7), path)
    rewrite_header(path, MALFORMED_HEADERS[case])
    with pytest.raises(ModelFormatError):
        load_model(path)
    assert main(["gradcheck", "--model", str(path), "--samples", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_zero_size_kernel_in_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "m.model"
    save_model(generate_model("tiny-2conv", seed=7), path)
    rewrite_header(path, _set("kernel_shape", [0, 0, 3, 4]))
    path.write_bytes(path.read_bytes()[: -4 * (3 * 3 * 3 * 4)])  # blob length matches the header
    assert main(["gradcheck", "--model", str(path), "--samples", "1"]) == EXIT_USAGE
    assert "(0, 0, 3, 4)" in capsys.readouterr().err
