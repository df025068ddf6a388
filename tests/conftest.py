import pytest

import vopt.memo

# one paper-examples pass: the paper's three reproductions and the full
# class audit of every bundled fixture
PAPER_PASS = [["reproduce-example", e] for e in ("4.1", "5.1", "5.2")] + [
    ["classify", f"{f}.vopt", "--class", "all"] for f in ("exA", "exB", "exBprime", "exC")
]


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts from an empty memo, so no result depends on test order."""
    vopt.memo.clear()
