import numpy as np
import pytest

from ern.compiler import compile_checkpoint, gen_random_checkpoint


@pytest.fixture(scope="session")
def erns18_manifest():
    return gen_random_checkpoint("erns18", seed=0, shared_const=0.5)


@pytest.fixture(scope="session")
def erns18_model(erns18_manifest):
    return compile_checkpoint(erns18_manifest)


@pytest.fixture(scope="session")
def erns50_model():
    return compile_checkpoint(gen_random_checkpoint("erns50", seed=0, shared_const=0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_image(rng, size=64):
    return rng.integers(0, 256, size=(3, size, size), dtype=np.uint8)
