"""The shape error every module raises, the finiteness check, and ``Tensor3``.

``_as_finite_f64`` is the NaN/Inf check where data enters: ``forward``
runs it on the network input, ``ConvLayer`` on its kernel and bias.
A ``Tensor3`` (what ``image.to_input_tensor`` returns) is a width x height
x depth block of finite float64 scalars, read-only.  Everything the engine
returns (every activation, score, gamma field and feature) is a plain
read-only float64 numpy array of the same layout.  The flat layout is
w-major, then h, then d, i.e. ``flat[(w * H + h) * D + d]``, which is the
C order of a ``(W, H, D)`` numpy array.  All modules share this layout;
nothing ever transposes silently.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor or layer shapes do not line up."""


def _as_finite_f64(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains NaN or Inf")
    return arr


class Tensor3:
    """Immutable W x H x D block of float64 values: the network input.

    Construct from a flat sequence (w-major order) or via ``from_array``
    with a ``(W, H, D)`` array.  NaN/Inf are rejected eagerly.
    """

    __slots__ = ("array",)

    def __init__(self, width: int, height: int, depth: int, data) -> None:
        if width < 1 or height < 1 or depth < 1:
            raise ShapeError(f"dimensions must be positive, got {width}x{height}x{depth}")
        flat = _as_finite_f64(data, "tensor data").reshape(-1)
        if flat.size != width * height * depth:
            raise ShapeError(
                f"data length {flat.size} != {width}x{height}x{depth} = {width * height * depth}"
            )
        arr = flat.reshape(width, height, depth).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_array(cls, arr) -> "Tensor3":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"expected a rank-3 array, got rank {arr.ndim}")
        return cls(arr.shape[0], arr.shape[1], arr.shape[2], arr.reshape(-1))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.array.shape

    def __repr__(self) -> str:
        return f"Tensor3({'x'.join(map(str, self.shape))})"

