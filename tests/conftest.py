import pathlib

import pytest
from hypothesis import settings

# No per-example deadline: example run times swing with the host's load.
settings.register_profile("torpers", deadline=None, print_blob=True)
settings.load_profile("torpers")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixture_path():
    return FIXTURES


@pytest.fixture(scope="module")
def fixture_path_mod():
    return FIXTURES
