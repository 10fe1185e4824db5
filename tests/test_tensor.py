import numpy as np
import numpy.testing as npt
import pytest

from interactive import ShapeError, Tensor3


def test_flat_layout_is_w_major():
    t = Tensor3(2, 2, 2, range(8))
    for w in range(2):
        for h in range(2):
            for d in range(2):
                assert t.array[w, h, d] == (w * 2 + h) * 2 + d
    npt.assert_array_equal(t.array.reshape(-1), np.arange(8.0))


def test_construction_rejects_bad_input():
    with pytest.raises(ShapeError):
        Tensor3(2, 2, 1, [1, 2, 3])  # wrong length
    with pytest.raises(ShapeError):
        Tensor3(0, 2, 1, [])
    with pytest.raises(ValueError):
        Tensor3(1, 1, 2, [1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor3(1, 1, 2, [1.0, np.inf])


def test_tensor_is_immutable():
    t = Tensor3(1, 1, 2, [1.0, 2.0])
    with pytest.raises(AttributeError):
        t.array = np.zeros((1, 1, 2))
    with pytest.raises(ValueError):
        t.array[0, 0, 0] = 5.0
