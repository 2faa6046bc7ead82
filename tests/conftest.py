import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from geographer.bundle_manifold import construct
from geographer.mapping_torus import bundle_wang_data

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts cold: nothing an earlier test memoized, perhaps
    from a patched handle table, is served to it."""
    construct.cache_clear()
    bundle_wang_data.cache_clear()
