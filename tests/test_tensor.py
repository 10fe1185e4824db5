import numpy as np
import numpy.testing as npt
import pytest

from interactive import ChannelVector, ShapeError, Tensor3, spatial_average, spatial_max


def test_flat_layout_is_w_major():
    t = Tensor3(2, 2, 2, range(8))
    for w in range(2):
        for h in range(2):
            for d in range(2):
                assert t[w, h, d] == (w * 2 + h) * 2 + d
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


def test_spatial_average_examples():
    assert spatial_average(Tensor3(2, 2, 1, [1, 2, 3, 4]))[0] == 2.5
    npt.assert_array_equal(spatial_average(Tensor3(3, 4, 2, np.zeros(24))).values, np.zeros(2))
    npt.assert_array_equal(spatial_average(Tensor3(1, 1, 3, [7.0, -2.0, 0.5])).values, [7.0, -2.0, 0.5])


def test_spatial_max_examples():
    assert spatial_max(Tensor3(2, 2, 1, [1, 2, 3, 4]))[0] == 4
    npt.assert_array_equal(spatial_max(Tensor3(3, 2, 2, np.full(12, 1.25))).values, [1.25, 1.25])
    # 2x1x2: channel 0 holds {-1, 5}, channel 1 holds {0, 0}
    t = Tensor3(2, 1, 2, [-1.0, 0.0, 5.0, 0.0])
    npt.assert_array_equal(spatial_max(t).values, [5.0, 0.0])


def test_average_times_area_equals_sum():
    rng = np.random.default_rng(42)
    for _ in range(50):
        w, h, d = rng.integers(1, 6, size=3)
        t = Tensor3.from_array(rng.uniform(-10, 10, size=(w, h, d)))
        avg = spatial_average(t).values * (w * h)
        total = t.array.sum(axis=(0, 1))
        npt.assert_allclose(avg, total, rtol=1e-12)


def test_max_dominates_average_for_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w, h, d = rng.integers(1, 6, size=3)
        t = Tensor3.from_array(rng.uniform(0, 5, size=(w, h, d)))
        assert np.all(spatial_max(t).values >= spatial_average(t).values - 1e-15)


def test_channel_vector():
    v = ChannelVector([1.0, 2.0, 3.0])
    assert len(v) == 3 and v[1] == 2.0
    with pytest.raises(ValueError):
        ChannelVector([np.nan])
    with pytest.raises(ShapeError):
        ChannelVector([])
