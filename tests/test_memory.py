"""Unit tests for the cache hierarchy substrate."""

import pytest

from repro.memory import (
    CacheConfig,
    HierarchyConfig,
    MemoryHierarchy,
    SetAssociativeCache,
)
from repro.memory.hierarchy import ServedBy


class TestCacheConfig:
    def test_paper_default_geometry(self):
        cfg = HierarchyConfig.paper_default()
        assert cfg.l1.size_bytes == 64 * 1024
        assert cfg.l1.ways == 4
        assert cfg.l1.latency == 3
        assert cfg.l2.latency == 25
        assert cfg.memory_latency == 200

    def test_n_sets(self):
        cfg = CacheConfig("t", 64 * 1024, 4, line_bytes=64)
        assert cfg.n_sets == 256

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("t", 1000, 3, line_bytes=64)


class TestSetAssociativeCache:
    def make(self, size=1024, ways=2, line=64):
        return SetAssociativeCache(CacheConfig("t", size, ways, line_bytes=line))

    def test_miss_then_hit(self):
        c = self.make()
        assert not c.access(0x100, is_write=False)
        assert c.access(0x100, is_write=False)
        assert c.stats.read_misses == 1
        assert c.stats.read_hits == 1

    def test_same_line_hits(self):
        c = self.make()
        c.access(0x100, is_write=False)
        assert c.access(0x13F, is_write=False)  # same 64B line

    def test_lru_eviction(self):
        c = self.make(size=256, ways=2, line=64)  # 2 sets x 2 ways
        # Set 0 lines: 0, 128, 256 ... (line % 2 == 0)
        c.access(0 * 64, False)
        c.access(2 * 64, False)
        c.access(0 * 64, False)      # touch line 0 -> line 2 is LRU
        c.access(4 * 64, False)      # evicts line 2
        assert c.access(0 * 64, False) is True
        assert c.access(2 * 64, False) is False
        assert c.stats.evictions >= 1

    def test_dirty_eviction_counts_writeback(self):
        c = self.make(size=256, ways=1, line=64)  # direct mapped, 4 sets
        c.access(0, is_write=True)
        c.access(256, is_write=False)  # same set, evicts dirty line 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = self.make(size=256, ways=1, line=64)
        c.access(0, is_write=False)
        c.access(256, is_write=False)
        assert c.stats.writebacks == 0

    def test_lookup_does_not_mutate(self):
        c = self.make()
        assert not c.lookup(0x100)
        assert c.stats.accesses == 0
        assert c._sets == {}  # probing an untouched set allocates nothing
        c.invalidate(c.line_of(0x200))
        assert c._sets == {}
        c.access(0x100, False)
        assert c.lookup(0x100)
        assert c.stats.accesses == 1

    def test_invalidate(self):
        c = self.make()
        c.access(0x100, False)
        c.invalidate(c.line_of(0x100))
        assert not c.lookup(0x100)

    def test_flush(self):
        c = self.make()
        c.access(0x100, False)
        c.flush()
        assert c.occupancy == 0

    def test_hit_rate(self):
        c = self.make()
        c.access(0, False)
        c.access(0, False)
        c.access(0, False)
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_stats_reset(self):
        c = self.make()
        c.access(0, False)
        c.stats.reset()
        assert c.stats.accesses == 0


class TestMemoryHierarchy:
    def test_l1_hit_latency(self):
        h = MemoryHierarchy()
        first = h.access(0x100, False, cycle=0)
        assert first.served_by in (ServedBy.L2, ServedBy.MEMORY)
        again = h.access(0x100, False, cycle=first.complete + 1)
        assert again.served_by is ServedBy.L1
        assert again.latency == 3

    def test_cold_miss_goes_to_memory(self):
        h = MemoryHierarchy()
        r = h.access(0x100, False, cycle=0)
        assert r.served_by is ServedBy.MEMORY
        assert r.latency == 200

    def test_l2_hit_after_warm(self):
        h = MemoryHierarchy()
        h.l2.access(0x100, False)       # warm L2 only
        r = h.access(0x100, False, cycle=0)
        assert r.served_by is ServedBy.L2
        assert r.latency == 25

    def test_mshr_merges_same_line(self):
        h = MemoryHierarchy()
        a = h.access(0x100, False, cycle=0)
        b = h.access(0x104, False, cycle=1)    # same line, fill in flight
        assert b.served_by is ServedBy.MSHR
        assert b.complete <= a.complete + 3

    def test_mshr_limit_stalls(self):
        cfg = HierarchyConfig(mshr_entries=2, cache_ports=16)
        h = MemoryHierarchy(cfg)
        r1 = h.access(0 * 64, False, 0)
        r2 = h.access(10 * 64, False, 0)
        r3 = h.access(20 * 64, False, 0)  # no free MSHR: waits
        assert r3.start >= min(r1.complete, r2.complete)

    def test_port_contention_serializes_starts(self):
        cfg = HierarchyConfig(cache_ports=1)
        h = MemoryHierarchy(cfg)
        h.l1.access(0, False)
        h.l1.access(64, False)
        a = h.access(0, False, cycle=0)
        b = h.access(64, False, cycle=0)
        assert b.start > a.start

    def test_drain(self):
        h = MemoryHierarchy()
        r = h.access(0x100, False, cycle=0)
        assert h.drain(cycle=0) == r.complete
        assert h.drain(cycle=r.complete + 1) == r.complete + 1

    def test_warm_fills_both_levels(self):
        h = MemoryHierarchy()
        h.warm([0x100])
        assert h.l1.lookup(0x100)
        assert h.l2.lookup(0x100)

    def test_reset_timing_keeps_contents(self):
        h = MemoryHierarchy()
        h.access(0x100, False, 0)
        h.reset_timing()
        assert h.l1.lookup(0x100)
