"""Set-associative array mechanics."""

import pytest

from repro.cache.array import SetAssociativeCache
from repro.cache.entries import CacheLine
from repro.cache.replacement import LRUPolicy
from repro.common.params import CacheGeometry
from repro.common.types import MESIState


@pytest.fixture
def cache():
    return SetAssociativeCache(CacheGeometry(sets=4, ways=2), LRUPolicy())


def _entry(addr):
    return CacheLine(addr, MESIState.SHARED)


class TestLookup:
    def test_miss_returns_none(self, cache):
        assert cache.lookup(0x10) is None

    def test_insert_then_lookup(self, cache):
        cache.insert(_entry(0x10))
        found = cache.lookup(0x10)
        assert found is not None
        assert found.line_addr == 0x10

    def test_access_updates_lru(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))  # same set (4 sets)
        cache.access(0)  # line 0 becomes MRU
        victim = cache.victim_for(8)
        assert victim.line_addr == 4


class TestVictimSelection:
    def test_no_victim_with_free_way(self, cache):
        cache.insert(_entry(0))
        assert cache.victim_for(4) is None

    def test_victim_when_set_full(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(8) is not None

    def test_no_victim_when_line_resident(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(0) is None  # replaces itself

    def test_other_sets_unaffected(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.victim_for(1) is None  # different set


class TestInsertion:
    def test_insert_into_full_set_raises(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        with pytest.raises(RuntimeError, match="full set"):
            cache.insert(_entry(8))

    def test_insert_after_eviction(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        victim = cache.victim_for(8)
        cache.remove(victim.line_addr)
        cache.insert(_entry(8))
        assert cache.lookup(8) is not None
        assert len(cache) == 2

    def test_reinsert_same_line(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(0))
        assert len(cache) == 1


class TestRemoval:
    def test_remove_returns_entry(self, cache):
        cache.insert(_entry(0x20))
        removed = cache.remove(0x20)
        assert removed.line_addr == 0x20
        assert cache.lookup(0x20) is None

    def test_remove_missing_returns_none(self, cache):
        assert cache.remove(0x20) is None


class TestInspection:
    def test_iteration_covers_all(self, cache):
        for addr in (0, 1, 2, 3):
            cache.insert(_entry(addr))
        assert {entry.line_addr for entry in cache} == {0, 1, 2, 3}

    def test_utilization(self, cache):
        assert cache.utilization() == 0.0
        for addr in range(4):
            cache.insert(_entry(addr))
        assert cache.utilization() == pytest.approx(0.5)

    def test_set_occupancy(self, cache):
        cache.insert(_entry(0))
        cache.insert(_entry(4))
        assert cache.set_occupancy(0) == 2
        assert cache.set_occupancy(1) == 0

    def test_capacity_never_exceeded(self, cache):
        """Inserting with proper eviction keeps every set within ways."""
        for addr in range(64):
            victim = cache.victim_for(addr)
            if victim is not None:
                cache.remove(victim.line_addr)
            cache.insert(_entry(addr))
        assert len(cache) <= cache.geometry.lines
        for set_index in range(cache.geometry.sets):
            assert cache.set_occupancy(set_index) <= cache.geometry.ways


@pytest.mark.parametrize("shift", [0, 3])
def test_set_entries_follow_the_geometry_index(shift):
    """``set_entries`` returns exactly one set, in insertion order, under
    plain and XOR-hashed indexing."""
    geometry = CacheGeometry(sets=8, ways=16, index_shift=shift)
    cache = SetAssociativeCache(geometry, LRUPolicy())
    lines = [0, 1, 7, 8, 9, 63, 64, 72, 1000, 2**40 + 5]
    for line in lines:
        cache.insert(_entry(line))
    for line in lines:
        expected = [
            other for other in lines
            if geometry.set_index(other) == geometry.set_index(line)
        ]
        assert [entry.line_addr for entry in cache.set_entries(line)] == expected
    cache.set_entries(0).clear()  # a copy: the set itself is untouched
    assert cache.lookup(0) is not None
