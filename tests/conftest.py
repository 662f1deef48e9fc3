import random
import warnings

import pytest

# hypothesis imports this module (and libcst with it) to write the patch of
# a failing example; libcst's import raises a DeprecationWarning, which
# under `-W error` would end the whole run instead of failing that one test
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from avcodes.gf import Field
from avcodes.codes import preset


@pytest.fixture(scope="session")
def f8():
    return Field(2, 3, (1, 1, 0, 1))


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2, (2, 1, 1))


@pytest.fixture(scope="session")
def f4():
    return Field(2, 2, (1, 1, 1))


@pytest.fixture(scope="session")
def hermitian():
    return preset("hermitian")


@pytest.fixture(scope="session")
def hcrs():
    return preset("hcrs")


@pytest.fixture(scope="session")
def rs_like():
    return preset("rs-like")


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


def random_spectrum_values(field, indices, rng):
    return {a: rng.randrange(-1, field.q - 1) for a in indices}
