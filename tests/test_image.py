import math

import numpy as np
import numpy.testing as npt
import pytest

from interactive import RasterImage, Tensor3, resize_to_area, read_image, to_input_tensor, write_image
from interactive.image import ImageFormatError, bilinear_resize, resize_dims


def reference_dims(w, h, target_area=512 * 512, divisor=32):
    """The sizing arithmetic, written out independently."""
    s = min(1.0, math.sqrt(target_area / (w * h)))
    out_w = max(divisor, int(math.floor(s * w / divisor + 0.5)) * divisor)
    out_h = max(divisor, int(math.floor(s * h / divisor + 0.5)) * divisor)
    return out_w, out_h


def reference_bilinear(arr, out_h, out_w):
    """Scalar-loop bilinear resample with center alignment and edge clamp."""
    in_h, in_w = arr.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        for ox in range(out_w):
            sy = min(max((oy + 0.5) * in_h / out_h - 0.5, 0), in_h - 1)
            sx = min(max((ox + 0.5) * in_w / out_w - 0.5, 0), in_w - 1)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            out[oy, ox] = (
                (1 - fy) * ((1 - fx) * arr[y0, x0] + fx * arr[y0, x1])
                + fy * ((1 - fx) * arr[y1, x0] + fx * arr[y1, x1])
            )
    return out


def four_corner_bilinear(arr, out_h, out_w):
    """The resampler's former one-step form: gather the four corner arrays,
    then blend them, over (h, w, c) with a 2-D input lifted to one channel."""
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    in_h, in_w = arr.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    a00 = arr[np.ix_(y0, x0)]
    a01 = arr[np.ix_(y0, x1)]
    a10 = arr[np.ix_(y1, x0)]
    a11 = arr[np.ix_(y1, x1)]
    out = (1 - fy) * ((1 - fx) * a00 + fx * a01) + fy * ((1 - fx) * a10 + fx * a11)
    return out[:, :, 0] if squeeze else out


def gradient_image(w, h, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
    return RasterImage(pixels=px)


class TestReadWrite:
    def test_read_p5(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = read_image(path)
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        npt.assert_array_equal(img.pixels[:, :, 0], [[0, 64], [128, 255]])

    def test_read_p6_with_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6 # rgb\n# a comment line\n2 2\n# another\n255\n" + payload)
        img = read_image(path)
        assert (img.width, img.height, img.channels) == (2, 2, 3)
        assert img.pixels[0, 1, 2] == 5

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(path)

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(ImageFormatError, match="P3"):
            read_image(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval"):
            read_image(path)

    def test_write_read_round_trip(self, tmp_path):
        for channels in (1, 3):
            img = gradient_image(5, 3, channels, seed=channels)
            path = tmp_path / f"rt{channels}.pnm"
            write_image(img, path)
            back = read_image(path)
            npt.assert_array_equal(img.pixels, back.pixels)


class TestResizeProtocol:
    def test_protocol_examples(self):
        assert resize_dims(1000, 600) == (672, 384)
        assert resize_dims(512, 512) == (512, 512)
        assert resize_dims(10, 10) == (32, 32)

    def test_dims_match_reference_arithmetic(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            w = int(rng.integers(1, 4000))
            h = int(rng.integers(1, 4000))
            assert resize_dims(w, h) == reference_dims(w, h)

    def test_dims_always_divisible_and_clamped(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            w = int(rng.integers(1, 5000))
            h = int(rng.integers(1, 5000))
            ow, oh = resize_dims(w, h)
            assert ow % 32 == 0 and oh % 32 == 0
            assert ow >= 32 and oh >= 32

    def test_area_and_aspect_envelope(self):
        # downscale regime (area >= target), aspect within 1:4 .. 4:1
        rng = np.random.default_rng(22)
        target = 512 * 512
        checked = 0
        while checked < 300:
            w = int(rng.integers(256, 6000))
            h = int(rng.integers(256, 6000))
            ratio = w / h
            if w * h < target or not (0.25 <= ratio <= 4.0):
                continue
            checked += 1
            ow, oh = resize_dims(w, h)
            assert abs(ow * oh - target) <= 0.25 * target
            assert abs((ow / oh) / ratio - 1.0) <= 0.2

    def test_resize_fixed_point_is_identity(self):
        img = gradient_image(512, 512, 1, seed=5)
        out = resize_to_area(img)
        npt.assert_array_equal(out.pixels, img.pixels)

    def test_resized_image_has_protocol_dims(self):
        img = gradient_image(100, 60, 3, seed=6)
        out = resize_to_area(img)
        assert (out.width, out.height) == resize_dims(100, 60) == (96, 64)


class TestBilinear:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(30)
        for in_h, in_w, out_h, out_w in [(2, 2, 4, 4), (3, 5, 7, 2), (4, 4, 4, 4), (6, 3, 2, 9)]:
            arr = rng.uniform(0, 255, size=(in_h, in_w))
            npt.assert_allclose(
                bilinear_resize(arr, out_h, out_w), reference_bilinear(arr, out_h, out_w), atol=1e-12
            )

    @pytest.mark.parametrize("channels", [None, 1, 3], ids=["2d", "1ch", "3ch"])
    @pytest.mark.parametrize("in_hw, out_hw", [
        ((5, 9), (13, 4)),  # height up, width down
        ((17, 3), (6, 11)),  # height down, width up
        ((1, 1), (7, 5)),
        ((1, 6), (4, 1)),
        ((8, 1), (1, 9)),
        ((6, 7), (6, 7)),
        ((59, 44), (79, 23)),
    ])
    def test_equals_four_corner_formula_bit_for_bit(self, channels, in_hw, out_hw):
        rng = np.random.default_rng(sum(in_hw) * 100 + sum(out_hw))
        arr = rng.uniform(-300, 300, size=in_hw + ((channels,) if channels else ()))
        out = bilinear_resize(arr, *out_hw)
        assert out.shape == out_hw + arr.shape[2:]
        npt.assert_array_equal(out, four_corner_bilinear(arr, *out_hw))

    def test_identity_at_same_size(self):
        rng = np.random.default_rng(31)
        arr = rng.uniform(-5, 5, size=(6, 7))
        npt.assert_array_equal(bilinear_resize(arr, 6, 7), arr)

    def test_constant_stays_constant(self):
        arr = np.full((3, 3), 4.25)
        npt.assert_allclose(bilinear_resize(arr, 10, 5), 4.25, atol=1e-12)


class TestToInputTensor:
    def test_zero_mean_is_identity_with_transpose(self):
        img = gradient_image(3, 2, 1, seed=8)
        t = to_input_tensor(img.pixels, [0.0])
        assert t.shape == (3, 2, 1)
        # the transposed pixels are copied into C order: a conv without padding reads them in place
        assert t.array.flags.c_contiguous and not t.array.flags.writeable
        for w in range(3):
            for h in range(2):
                assert t.array[w, h, 0] == float(img.pixels[h, w, 0])

    def test_constant_mean_cancels(self):
        img = RasterImage(pixels=np.full((4, 4, 1), 128, dtype=np.uint8))
        t = to_input_tensor(img.pixels, [128.0])
        npt.assert_array_equal(t.array, np.zeros((4, 4, 1)))

    def test_rgb_mean_subtraction(self):
        img = RasterImage(pixels=np.array([[[10, 20, 30]]], dtype=np.uint8))
        t = to_input_tensor(img.pixels, [1.0, 2.0, 3.0])
        npt.assert_array_equal(t.array.reshape(-1), [9.0, 18.0, 27.0])

    def test_mean_length_mismatch(self):
        img = gradient_image(2, 2, 3)
        with pytest.raises(ValueError, match="means"):
            to_input_tensor(img.pixels, [0.0])
