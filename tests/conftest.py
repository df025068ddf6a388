import pytest

import vopt.memo


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts from an empty memo, so no result depends on test order."""
    vopt.memo.clear()
