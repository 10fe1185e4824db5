"""Binary PPM/PGM reading and writing, input sizing, mean subtraction.

Only the binary netpbm variants (P5 grayscale, P6 color, maxval 255) are
read; header comments are honored.  ``resize_to_area`` reproduces the
input-sizing protocol: scale to roughly ``TARGET_AREA`` pixels while
keeping both dimensions multiples of ``DIVISOR`` and the aspect ratio as
close to the original as the rounding allows.  Both are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor3

TARGET_AREA = 512 * 512
DIVISOR = 32


class ImageFormatError(ValueError):
    """Raised for unsupported or malformed image files."""


@dataclass(frozen=True)
class RasterImage:
    """8-bit image; ``pixels`` is (height, width, channels) row-major uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ImageFormatError(f"pixels must be (h, w) or (h, w, 1|3), got {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ImageFormatError(f"image dimensions must be positive, got {px.shape}")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last one.
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ImageFormatError("truncated header")
        c = data[i : i + 1]
        if c == b"#":
            nl = data.find(b"\n", i)
            if nl < 0:
                raise ImageFormatError("truncated header comment")
            i = nl + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
            if len(tokens) == count:
                # exactly one whitespace byte separates the header from the payload
                if i >= len(data) or not data[i : i + 1].isspace():
                    raise ImageFormatError("missing whitespace after header")
                i += 1
    return tokens, i


def read_image(path) -> RasterImage:
    """Decode a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P5", b"P6"):
        raise ImageFormatError(
            f"unsupported magic {data[:2]!r}; only binary P5/P6 are readable "
            "(convert ASCII P2/P3 files externally)"
        )
    tokens, offset = _header_tokens(data, 4)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ImageFormatError(f"non-numeric header fields {tokens[1:]}") from None
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}; only 255 is handled")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise ImageFormatError(f"truncated payload: expected {need} bytes, found {len(payload)}")
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return RasterImage(pixels=px)


def write_image(img: RasterImage, path) -> None:
    """Write a RasterImage as binary P5 (1 channel) or P6 (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.tobytes())


def _round_to_multiple(value: float) -> int:
    return max(DIVISOR, int(np.floor(value / DIVISOR + 0.5)) * DIVISOR)


def resize_dims(width: int, height: int) -> tuple[int, int]:
    """Output dimensions of the sizing protocol.

    Images larger than ``TARGET_AREA`` are scaled down to approximately
    that many pixels; smaller images keep their size.  Each axis is then
    rounded to the nearest multiple of ``DIVISOR`` (half up) and clamped
    to at least one multiple, so degenerate inputs land on DIVISOR x DIVISOR.
    """
    scale = min(1.0, np.sqrt(TARGET_AREA / (width * height)))
    return _round_to_multiple(scale * width), _round_to_multiple(scale * height)


def bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of an (h, w) or (h, w, c) float array.

    Pixel centers are aligned (source position = (i + 0.5) * in/out - 0.5)
    and coordinates are clamped at the edges; equal sizes reproduce the
    input exactly.  One 1-D pass per axis, width then height, is exact: the
    weights factor per axis, and ``(1-fy)*r0 + fy*r1`` over the width pass's rows
    ``r = (1-fx)*a0 + fx*a1`` is the four-corner formula, in the same order.
    """
    out = np.asarray(arr, dtype=np.float64)
    for axis, size in ((1, out_w), (0, out_h)):
        n = out.shape[axis]
        pos = np.clip((np.arange(size) + 0.5) * (n / size) - 0.5, 0, n - 1)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.minimum(i0 + 1, n - 1)
        f = (pos - i0).reshape((-1,) + (1,) * (out.ndim - axis - 1))
        out = (1 - f) * out.take(i0, axis) + f * out.take(i1, axis)
    return out


def resize_to_area(img: RasterImage) -> RasterImage:
    """Resize to ``resize_dims``: a pixel count near ``TARGET_AREA``, both
    dimensions multiples of ``DIVISOR``, minimal aspect distortion."""
    return resample_to(img, *resize_dims(img.width, img.height))


def resample_to(img: RasterImage, out_w: int, out_h: int) -> RasterImage:
    """Bilinear resize of an 8-bit image to exact output dimensions."""
    resized = bilinear_resize(img.pixels.astype(np.float64), out_h, out_w)
    return RasterImage(pixels=np.clip(np.floor(resized + 0.5), 0, 255).astype(np.uint8))


def to_input_tensor(img: RasterImage, mean) -> Tensor3:
    """Width x height x channels tensor of samples minus per-channel means."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    if mean.size != img.channels:
        raise ValueError(f"{mean.size} means for {img.channels} channels")
    arr = img.pixels.astype(np.float64).transpose(1, 0, 2) - mean
    return Tensor3.from_array(arr)
