"""The shape error every module raises, the finiteness check, and ``Tensor3``.

``_as_finite_f64`` is the NaN/Inf check where data enters: ``forward``
runs it on the network input, ``ConvLayer`` on its kernel and bias.
A ``Tensor3`` (what ``image.to_input_tensor`` returns) is a read-only holder
of a width x height x (batch axes) x depth float64 array; it checks the rank
only, and leaves the NaN/Inf check to ``forward``.  Everything the engine returns
(every activation, score, gamma field and feature) is a plain read-only
float64 numpy array of the same layout.  The flat layout is w-major, then h,
then d, i.e. ``flat[(w * H + h) * D + d]``, which is the C order of a
``(W, H, D)`` numpy array.  All modules share this layout; nothing ever
transposes silently.
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
    """Immutable ``(W, H, *batch, D)`` block of float64 values: the network input.

    ``from_array`` is the one constructor: it copies a ``(W, H, *batch, D)``
    array into a read-only C-contiguous float64 array.
    """

    __slots__ = ("array",)

    @classmethod
    def from_array(cls, arr) -> "Tensor3":
        arr = np.array(arr, dtype=np.float64, order="C")
        if arr.ndim < 3:
            raise ShapeError(f"expected a rank-3 array or one with batch axes, got rank {arr.ndim}")
        arr.flags.writeable = False
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "array", arr)
        return tensor

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def __repr__(self) -> str:
        return f"Tensor3({'x'.join(map(str, self.shape))})"
