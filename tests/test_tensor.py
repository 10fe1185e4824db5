import numpy as np
import pytest

from interactive import ShapeError, Tensor3


def test_tensor_is_immutable():
    src = np.array([[[1.0, 2.0]]])
    t = Tensor3.from_array(src)
    with pytest.raises(AttributeError):
        t.array = np.zeros((1, 1, 2))
    with pytest.raises(ValueError):
        t.array[0, 0, 0] = 5.0
    src[0, 0, 0] = 5.0  # a copy: the caller's array stays writable and apart
    assert t.array[0, 0, 0] == 1.0


def test_from_array_holds_a_batched_input_read_only_and_c_contiguous():
    src = np.arange(2 * 3 * 4 * 2, dtype=np.float64).reshape(2, 3, 4, 2).transpose(1, 0, 2, 3)  # (W, H, n, D)
    t = Tensor3.from_array(src)
    assert t.shape == (3, 2, 4, 2) and np.array_equal(t.array, src)
    assert t.array.flags.c_contiguous and not t.array.flags.writeable


def test_from_array_rejects_another_rank():
    with pytest.raises(ShapeError, match="rank-3"):
        Tensor3.from_array(np.zeros((2, 2)))
