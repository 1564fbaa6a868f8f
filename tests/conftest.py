"""Fixtures the test modules share."""

import pytest

from tecsim.complexes import complex_from_json
from tecsim.tec import build_code

from reference import RING5


@pytest.fixture(scope="session")
def ring5():
    """The distance-5 code of ``tests/fixtures/ring5.json``: two chains of five faces."""
    return build_code(complex_from_json(RING5.read_text()), {"a5", "b5"})
