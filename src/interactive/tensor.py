"""Dense rank-3 tensors and the handful of primitives everything else uses.

Every activation, gradient and weighting field in this package is a
``Tensor3``: a width x height x depth block of float64 scalars.  The flat
layout is w-major, then h, then d, i.e. ``flat[(w * H + h) * D + d]``,
which is the C order of a ``(W, H, D)`` numpy array.  All modules share
this layout; nothing ever transposes silently.
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
    """Immutable W x H x D block of float64 values.

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

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "Tensor3":
        """Take over a finite rank-3 float64 array without a copy or a NaN scan.

        For callers that own ``arr`` and have already checked it; the array
        is made read-only.
        """
        if arr.ndim != 3 or arr.dtype != np.float64:
            raise ShapeError(f"expected a rank-3 float64 array, got rank {arr.ndim} {arr.dtype}")
        arr.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "array", arr)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.array.shape

    def __getitem__(self, idx):
        return self.array[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Tensor3({'x'.join(map(str, self.shape))})"


class ChannelVector:
    """Per-channel summary of a tensor: D float64 values."""

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        vals = _as_finite_f64(values, "channel vector").reshape(-1)
        if vals.size < 1:
            raise ShapeError("channel vector must have at least one entry")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("ChannelVector is immutable")

    def __getitem__(self, idx):
        return self.values[idx]

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return isinstance(other, ChannelVector) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ChannelVector({self.values!r})"


def spatial_average(t: Tensor3) -> ChannelVector:
    """Mean response per channel over all spatial positions."""
    return ChannelVector(t.array.mean(axis=(0, 1)))


def spatial_max(t: Tensor3) -> ChannelVector:
    """Maximum response per channel over all spatial positions."""
    return ChannelVector(t.array.max(axis=(0, 1)))
