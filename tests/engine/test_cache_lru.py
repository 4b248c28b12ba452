"""DecompositionCache LRU bound and eviction regression tests.

The original cache grew without bound: every distinct (sub-)matrix pinned its
full thin SVD (three dense arrays) for the life of the process, so a long
scenario sweep slowly ate resident memory.  These tests pin the fix: a strict
LRU bound, recency-ordered eviction, and evictions that never change results
(an evicted SVD is recomputed bit-identically).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.cache import DEFAULT_SVD_CACHE_ENTRIES, DecompositionCache


def matrices(count: int, rng: np.random.Generator):
    return [rng.standard_normal((8, 6)) for _ in range(count)]


class TestLruBound:
    def test_entry_count_never_exceeds_maxsize(self, rng):
        cache = DecompositionCache(maxsize=4)
        for matrix in matrices(20, rng):
            cache.svd(matrix)
            assert len(cache) <= 4
        assert cache.evictions == 16

    def test_least_recently_used_is_evicted_first(self, rng):
        cache = DecompositionCache(maxsize=2)
        first, second, third = matrices(3, rng)
        cache.svd(first)
        cache.svd(second)
        cache.svd(first)          # refresh: first is now most-recent
        cache.svd(third)          # evicts second, not first
        misses = cache.misses
        cache.svd(first)
        assert cache.misses == misses, "refreshed entry must survive the eviction"
        cache.svd(second)
        assert cache.misses == misses + 1, "stale entry must have been evicted"

    def test_unbounded_mode_still_available(self, rng):
        cache = DecompositionCache(maxsize=None)
        for matrix in matrices(30, rng):
            cache.svd(matrix)
        assert len(cache) == 30 and cache.evictions == 0

    def test_default_cache_is_bounded(self):
        assert DecompositionCache().maxsize == DEFAULT_SVD_CACHE_ENTRIES

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCache(maxsize=0)

    def test_eviction_does_not_change_results(self, rng):
        bounded = DecompositionCache(maxsize=1)
        unbounded = DecompositionCache(maxsize=None)
        mats = matrices(6, rng)
        for _ in range(2):  # second pass re-misses everything in the bounded cache
            for matrix in mats:
                left = bounded.decompose(matrix, 3)
                right = unbounded.decompose(matrix, 3)
                assert np.array_equal(left.left, right.left)
                assert np.array_equal(left.right, right.right)

    def test_concurrent_hits_and_evictions_do_not_race(self, rng):
        """Concurrent server jobs share the default cache, one thread each; the
        LRU bookkeeping (move_to_end racing popitem) must never raise."""
        from concurrent.futures import ThreadPoolExecutor

        cache = DecompositionCache(maxsize=2)
        mats = matrices(8, rng)

        def hammer(offset: int) -> None:
            for index in range(200):
                cache.svd(mats[(index + offset) % len(mats)])

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(hammer, worker) for worker in range(4)]:
                future.result()  # raises if any worker hit a race
        assert len(cache) <= 2

    def test_clear_resets_counters(self, rng):
        cache = DecompositionCache(maxsize=2)
        for matrix in matrices(4, rng):
            cache.svd(matrix)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == 0


class TestCacheIntrospection:
    """The counters perfbench's traced runs read."""

    def test_counters_mirror_the_attributes(self, rng):
        cache = DecompositionCache(maxsize=1)
        first, second = matrices(2, rng)
        cache.svd(first)
        cache.svd(first)
        cache.svd(second)   # evicts first
        cache.svd(first)    # recomputes first, evicts second
        assert cache.counters() == {"hits": 1, "misses": 3, "evictions": 2}
