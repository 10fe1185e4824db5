"""Property tests of the two loaders: any bytes give a value or the loader's own format error."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from interactive import NetworkSpec, RasterImage, generate_model, read_image, save_model
from interactive.image import ImageFormatError
from interactive.model_io import ModelFormatError, load_model

# Examples are capped so the whole file stays around a second or two.
FAST = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**12), 10**12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _load_or_format_error(path):
    try:
        assert isinstance(load_model(path), NetworkSpec)
    except ModelFormatError:
        pass


@FAST
@given(raw=st.binary(max_size=300) | st.binary(max_size=300).map(lambda b: b"interactive-model/1\n" + b))
@example(raw=b"interactive-model/1\n100000\n" + b"[" * 100000 + b"\n")
@example(raw=b"interactive-model/1\n5000\n" + b"1" * 5000 + b"\n")
def test_any_bytes_load_or_raise_format_error(tmp_path, raw):
    path = tmp_path / "m.model"
    path.write_bytes(raw)
    _load_or_format_error(path)


@pytest.fixture(scope="module")
def model_parts(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(generate_model("tiny-2conv", seed=7), path)
    magic, length, rest = path.read_bytes().split(b"\n", 2)
    return json.loads(rest[: int(length)]), rest[int(length) :]


@FAST
@given(
    layer=st.integers(-1, 2),
    key=st.sampled_from(["input_shape", "layers", "kind", "name", "kernel_shape", "stride", "padding",
                         "relu", "window", "mode"]),
    value=JSON_VALUES | st.integers(-3, 4) | st.lists(st.integers(-2, 10**6), min_size=3, max_size=4),
)
@example(layer=0, key="kind", value=[])
@example(layer=0, key="padding", value=10**6)
@example(layer=1, key="window", value=0)
@example(layer=2, key="name", value="conv-1")
def test_mutated_header_loads_or_raises_format_error(tmp_path, model_parts, layer, key, value):
    header, rest = model_parts
    header = json.loads(json.dumps(header))
    if layer < 0:
        header[key] = value
    else:
        header["layers"][layer][key] = value
    body = json.dumps(header).encode("utf-8")
    path = tmp_path / "m.model"
    path.write_bytes(b"interactive-model/1\n" + str(len(body)).encode("ascii") + b"\n" + body + rest)
    _load_or_format_error(path)


PNM_LIKE = st.builds(
    lambda magic, w, h, maxval, tail: b"%s\n%d %d\n%d%s" % (magic, w, h, maxval, tail),
    st.sampled_from([b"P5", b"P6"]),
    st.integers(-2, 6),
    st.integers(-2, 6),
    st.sampled_from([0, 255, 256]),
    st.binary(max_size=120),
)


@FAST
@given(raw=st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: b"P6" + b) | PNM_LIKE)
@example(raw=b"P5 1_0 1 255\n" + bytes(10))
@example(raw=b"P6\n#c\n2 1\n255 " + bytes(6))
def test_any_bytes_read_or_raise_image_format_error(tmp_path, raw):
    path = tmp_path / "img.pnm"
    path.write_bytes(raw)
    try:
        assert isinstance(read_image(path), RasterImage)
    except ImageFormatError:
        pass
