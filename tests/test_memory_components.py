"""MSHR file, store buffer, DRAM and victim cache units.

The MSHR file and the store buffer hold state that the cache's and the
hierarchy's access paths update directly, so their behaviour is checked
through those paths.
"""

import pytest

from repro.core.config import cortex_a53_public_config
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import NextLinePrefetcher
from repro.memory.storebuffer import StoreBuffer
from repro.memory.victim import VictimCache


def _cache(**kwargs) -> Cache:
    """1 KiB, 2-way, 64 B lines: 8 sets, so lines 3, 11 and 19 share one."""
    defaults = dict(name="L1", size=1024, assoc=2, line_size=64,
                    hit_latency=2, mshr_entries=4)
    defaults.update(kwargs)
    return Cache(**defaults)


class TestMSHRFile:
    """Register behaviour, driven through the cache that owns the file."""

    def test_allocate_free_slot_immediate(self):
        cache = _cache(mshr_entries=2)
        # No backing level: a miss completes when it may issue, which
        # with a free register is right after the tag check.
        assert cache.access_line(1, 10) == 10 + 1

    def test_lookup_finds_inflight(self):
        dram = DramModel(latency=100, bandwidth=16)
        cache = _cache(next_level=dram)
        first = cache.access_line(3, 0)
        cache.access_line(11, 1)
        cache.access_line(19, 2)  # evicts line 3 while its fill is out
        assert not cache.contains(3)
        fills = dram.accesses
        assert cache.access_line(3, 3) == first  # merged into the fill
        assert dram.accesses == fills
        assert cache.stats.mshr_merges == 1
        cache.access_line(11, first + 10)
        cache.access_line(19, first + 20)  # evicts line 3 again
        again = cache.access_line(3, first + 30)  # fill long completed
        assert dram.accesses == fills + 1 and again > first + 30
        assert cache.stats.mshr_merges == 1

    def test_outstanding_count(self):
        """Prefetches stop once outstanding fills fill the register file."""
        narrow = _cache(next_level=DramModel(latency=100), mshr_entries=1,
                        prefetcher=NextLinePrefetcher(degree=2))
        narrow.access_line(0, 0)  # the demand miss holds the only register
        assert narrow.stats.prefetches_issued == 0
        wide = _cache(next_level=DramModel(latency=100), mshr_entries=4,
                      prefetcher=NextLinePrefetcher(degree=2))
        wide.access_line(0, 0)
        assert wide.stats.prefetches_issued == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestStoreBuffer:
    """Buffer behaviour, driven through the hierarchy's ``store``/``load``."""

    @staticmethod
    def _hierarchy(**memsys):
        config = cortex_a53_public_config().with_updates(
            {f"memsys.{key}": value for key, value in memsys.items()})
        return MemoryHierarchy(config)

    def test_full_buffer_stalls_until_drain(self):
        h = self._hierarchy(store_buffer_entries=2)
        assert h.store(0x40_0000, pc=0x1000, now=0) == 0
        assert h.store(0x50_0000, pc=0x1004, now=0) == 0
        oldest = h.store_buffer._fifo[0][1]
        assert oldest > 100  # the first drain write missed to DRAM
        assert h.store(0x60_0000, pc=0x1008, now=0) == oldest
        assert h.store_buffer.full_stalls == 1
        assert h.store_buffer.occupancy == 2

    def test_coalescing_merges_same_line(self):
        h = self._hierarchy(store_coalescing=True)
        h.store(0x40_0000, pc=0x1000, now=0)
        assert h.store(0x40_0008, pc=0x1004, now=1) == 1
        assert h.store_buffer.coalesced == 1
        assert h.store_buffer.occupancy == 1
        assert h.l1d.stats.accesses == 1  # one drain write

    def test_forwarding_misses_after_drain(self):
        h = self._hierarchy(store_forward_latency=1)
        h.store(0x40_0000, pc=0x1000, now=0)
        assert h.load(0x50_0000, pc=0x1004, now=1) > 100  # another line
        drained = h.load(0x40_0000, pc=0x1008, now=100_000)
        assert drained - 100_000 > 1  # served by the L1D, not the buffer
        assert h.store_buffer.forwards == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StoreBuffer(entries=0)


class TestVictimCache:
    def test_probe_hit_removes_line(self):
        vc = VictimCache(entries=2)
        vc.insert(5, dirty=False)
        assert vc.probe(5) is True
        assert vc.probe(5) is False

    def test_overflow_returns_oldest(self):
        vc = VictimCache(entries=2)
        assert vc.insert(1, True) == (None, False)
        vc.insert(2, False)
        evicted = vc.insert(3, False)
        assert evicted == (1, True)

    def test_reinsert_merges_dirty(self):
        vc = VictimCache(entries=2)
        vc.insert(1, False)
        vc.insert(1, True)
        vc.insert(2, False)
        evicted = vc.insert(3, False)
        assert evicted == (1, True)


class TestDram:
    def test_open_page_hit_cheaper(self):
        dram = DramModel(latency=150, page_hit_latency=90, page_policy="open")
        first = dram.access(0, 0)
        second = dram.access(1, first)  # same 2KB row
        assert first == 150
        assert second - first <= 90 + 4
        assert dram.page_hits == 1

    def test_closed_policy_never_hits(self):
        dram = DramModel(latency=150, page_hit_latency=90, page_policy="closed")
        dram.access(0, 0)
        dram.access(1, 200)
        assert dram.page_hits == 0

    def test_bandwidth_limits_concurrency(self):
        narrow = DramModel(latency=100, bandwidth=1)
        times = [narrow.access(line * 64, 0) for line in range(4)]
        assert times[-1] > 100 + 3  # channel serialisation visible
        wide = DramModel(latency=100, bandwidth=8)
        times2 = [wide.access(line * 64, 0) for line in range(4)]
        assert times2[-1] <= times[-1]

    def test_access_line_adapter(self):
        dram = DramModel(latency=100)
        assert dram.access_line(1, 0, is_write=True, is_prefetch=False) >= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            DramModel(latency=0)
        with pytest.raises(ValueError):
            DramModel(page_hit_latency=200, latency=100)
        with pytest.raises(ValueError):
            DramModel(page_policy="weird")
