import pytest

from fermatsyz import bundle


@pytest.fixture(autouse=True)
def cold_block_cache():
    """Every test starts with an empty block cache, so no test sees blocks
    that another test built."""
    bundle.clear_block_cache()
    yield
    bundle.clear_block_cache()
