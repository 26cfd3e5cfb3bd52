"""Memo effectiveness of one cold figures pass, pinned exactly.

One ``runner.run_all()`` from a cleared memo, with no store attached and
auditing off, makes a fixed set of lookups: the counts below are a property
of the memo keys and of which experiments share a priced layer, not of the
machine.  A fall in hits (a key that grew a field, a canonical fold that
stopped folding) or a rise in misses shows up here as an exact mismatch.

A change to memo keys that moves these counts on purpose must update the pin
deliberately, in the same change, the way ``make goldens`` re-pins the cycle
snapshots.
"""

import pytest

from repro import audit
from repro.harness import runner
from repro.perf.cache import CacheStats, cache_stats, clear_cache
from repro.store import attach, detach

#: hits = 1,378 exact + 9 canonical + 0 persistent.
COLD_PASS = CacheStats(
    hits=1387, misses=1405, entries=1405, canonical_hits=9, persistent_hits=0
)


@pytest.fixture
def cold_memo():
    """A cleared memo with no store attached and auditing off; restored after."""
    store = detach()
    level = audit.level()
    audit.configure("off")
    clear_cache()
    yield
    clear_cache()
    audit.configure(level)
    if store is not None:
        attach(store)


def test_cold_run_all_memo_counts(cold_memo):
    runner.run_all()
    stats = cache_stats()
    assert stats == COLD_PASS, stats
