"""Assembled memory hierarchy."""

import pytest

from repro.core.config import cortex_a53_public_config
from repro.hardware.effects import HardwareEffects, HardwareEffectsConfig
from repro.memory.hierarchy import MemoryHierarchy


@pytest.fixture()
def hierarchy(a53_config):
    return MemoryHierarchy(a53_config)


class TestStructure:
    def test_levels_wired(self, hierarchy):
        assert hierarchy.l1i.next_level is hierarchy.l2
        assert hierarchy.l1d.next_level is hierarchy.l2
        assert hierarchy.l2.next_level is hierarchy.dram

    def test_mismatched_line_sizes_rejected(self, a53_config):
        bad = a53_config.with_updates({"l1d.line_size": 32})
        with pytest.raises(ValueError, match="line size"):
            MemoryHierarchy(bad)


class TestAccessPaths:
    def test_load_miss_goes_through_l2_to_dram(self, hierarchy):
        done = hierarchy.load(0x40_0000, pc=0x1000, now=0)
        assert done > 100
        assert hierarchy.l1d.stats.misses == 1
        assert hierarchy.l2.stats.misses == 1
        assert hierarchy.dram.accesses == 1

    def test_load_hit_stays_in_l1(self, hierarchy):
        warm = hierarchy.load(0x40_0000, pc=0x1000, now=0)
        done = hierarchy.load(0x40_0000, pc=0x1000, now=warm)
        assert done - warm <= hierarchy.l1d.hit_latency + 1
        assert hierarchy.dram.accesses == 1

    def test_ifetch_uses_l1i(self, hierarchy):
        hierarchy.ifetch_line(0x1000 // hierarchy.line_size, 0, pc=0x1000)
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.accesses == 0

    def test_store_goes_through_store_buffer(self, hierarchy):
        issue = hierarchy.store(0x40_0000, pc=0x1000, now=0)
        assert issue == 0  # buffer empty: no stall
        assert hierarchy.store_buffer.pushes == 1

    def test_store_to_load_forwarding(self, hierarchy):
        hierarchy.store(0x40_0000, pc=0x1000, now=0)
        done = hierarchy.load(0x40_0000, pc=0x1004, now=1)
        assert done - 1 <= hierarchy.store_buffer.forward_latency
        assert hierarchy.store_buffer.forwards == 1

    def test_reset_clears_everything(self, hierarchy):
        hierarchy.load(0x40_0000, 0x1000, 0)
        hierarchy.store(0x41_0000, 0x1000, 0)
        hierarchy.reset()
        assert hierarchy.l1d.stats.accesses == 0
        assert hierarchy.dram.accesses == 0
        assert hierarchy.store_buffer.pushes == 0


class TestEffectsHooks:
    def _effects(self, **kwargs):
        defaults = dict(
            dtlb_entries=2,
            itlb_entries=2,
            tlb_walk_latency=500,
            zero_page_latency=2,
            taken_branch_bubble_period=0,
        )
        defaults.update(kwargs)
        return HardwareEffects(HardwareEffectsConfig(**defaults))

    def test_zero_page_overrides_untouched_page_loads(self, a53_config):
        effects = self._effects()
        hierarchy = MemoryHierarchy(a53_config, effects=effects)
        done = hierarchy.load(0x40_0000, pc=0x1000, now=0)
        assert done == 2  # zero-page service, no cache traffic
        assert hierarchy.l1d.stats.accesses == 0

    def test_written_page_disables_zero_page(self, a53_config):
        effects = self._effects()
        hierarchy = MemoryHierarchy(a53_config, effects=effects)
        hierarchy.store(0x40_0000, pc=0x1000, now=0)
        done = hierarchy.load(0x40_0040, pc=0x1004, now=10_000)
        assert done > 100  # real miss path plus possible TLB walk
        # Two L1D accesses: the store's drain write and this load.
        assert hierarchy.l1d.stats.accesses == 2

    def test_tlb_walk_latency_added(self, a53_config):
        effects = self._effects(zero_page_latency=-1)
        hierarchy = MemoryHierarchy(a53_config, effects=effects)
        base_config = cortex_a53_public_config()
        plain = MemoryHierarchy(base_config)
        with_tlb = hierarchy.load(0x40_0000, 0x1000, 0)
        without = plain.load(0x40_0000, 0x1000, 0)
        assert with_tlb >= without + 500
        assert effects.dtlb_misses == 1
