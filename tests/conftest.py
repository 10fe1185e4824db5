import numpy as np
import pytest

from interactive import forward, generate_model


def random_input(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(spec.input_shape)


@pytest.fixture(scope="session")
def tiny_net():
    return generate_model("tiny-2conv", seed=7)


@pytest.fixture(scope="session")
def tiny_trace(tiny_net):
    return forward(tiny_net, random_input(tiny_net, seed=11))
