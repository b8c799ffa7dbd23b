"""Full memory hierarchy assembled from a :class:`SimConfig`.

L1I and L1D in front of a unified L2 backed by DRAM, plus the store
buffer. The optional ``effects`` hook is how the "real hardware" board
injects behaviours the simulator model does not have (TLB walks, OS page
warm-up) — see :mod:`repro.hardware.effects`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.prefetcher import build_prefetcher
from repro.memory.storebuffer import StoreBuffer

if TYPE_CHECKING:  # annotation-only: keeps repro.memory import-cycle-free
    from repro.core.config import SimConfig


def _build_cache(name: str, cfg, next_level) -> Cache:
    prefetcher = build_prefetcher(
        cfg.prefetcher,
        degree=cfg.prefetch_degree,
        table_entries=cfg.prefetch_table_entries,
        on_hit=cfg.prefetch_on_hit,
    )
    return Cache(
        name=name,
        size=cfg.size,
        assoc=cfg.assoc,
        line_size=cfg.line_size,
        hit_latency=cfg.hit_latency,
        serial_tag_data=cfg.serial_tag_data,
        ports=cfg.ports,
        mshr_entries=cfg.mshr_entries,
        hashing=cfg.hashing,
        replacement=cfg.replacement,
        victim_entries=cfg.victim_entries,
        prefetcher=prefetcher,
        next_level=next_level,
    )


class MemoryHierarchy:
    """L1I + L1D + unified L2 + DRAM + store buffer."""

    def __init__(self, config: SimConfig, effects=None) -> None:
        line_sizes = {config.l1i.line_size, config.l1d.line_size, config.l2.line_size}
        if len(line_sizes) != 1:
            raise ValueError(f"all cache levels must share one line size, got {line_sizes}")
        self.line_size = config.l1i.line_size
        self.effects = effects

        mem = config.memsys
        self.dram = DramModel(
            latency=mem.dram_latency,
            page_hit_latency=mem.dram_page_hit_latency,
            banks=mem.dram_banks,
            bandwidth=mem.dram_bandwidth,
            page_policy=mem.dram_page_policy,
            line_size=self.line_size,
        )
        self.l2 = _build_cache("L2", config.l2, self.dram)
        self.l1i = _build_cache("L1I", config.l1i, self.l2)
        self.l1d = _build_cache("L1D", config.l1d, self.l2)
        self.store_buffer = StoreBuffer(
            entries=mem.store_buffer_entries,
            coalescing=mem.store_coalescing,
            forward_latency=mem.store_forward_latency,
        )
        self._bind_access_paths()

    def _bind_access_paths(self) -> None:
        """Install the ``ifetch_line``/``load``/``store`` closures.

        ``ifetch_line(line_addr, now, is_write=False, is_prefetch=False,
        pc=0)`` fetches the L1I line the core already derived (all
        levels share one line size); ``load(addr, pc, now)`` returns the
        data-ready cycle and ``store(addr, pc, now)`` the cycle the core
        may move on. The ``effects`` hooks (the board's TLB walks and
        zero-page service) are bound here once; without them the
        closures test one captured ``None`` and ``ifetch_line`` *is* the
        L1I's ``access_line``. The closures capture the caches' access
        paths and the store buffer, never the hierarchy. Rebound by
        :meth:`reset`.
        """
        line_size = self.line_size
        l1i_access = self.l1i.access_line
        l1d_access = self.l1d.access_line
        sb = self.store_buffer
        forward = sb.forward
        sb_fifo = sb._fifo
        sb_by_line = sb._by_line
        sb_entries = sb.entries
        sb_coalescing = sb.coalescing
        sb_expire = sb._expire
        effects = self.effects
        if effects is None:
            ifetch_extra = load_override = load_extra = store_extra = None
        else:
            ifetch_extra = effects.ifetch_extra
            load_override = effects.load_override
            load_extra = effects.load_extra
            store_extra = effects.store_extra

        def ifetch_line(line_addr: int, now: int, is_write: bool = False,
                        is_prefetch: bool = False, pc: int = 0) -> int:
            done = l1i_access(line_addr, now, is_write, is_prefetch, pc)
            return done + ifetch_extra(pc, now)

        def load(addr: int, pc: int, now: int) -> int:
            line_addr = addr // line_size
            if sb_by_line:
                # Store-buffer snoop only when something is buffered (an
                # empty snoop map implies an empty FIFO — see forward()).
                forwarded = forward(line_addr, now)
                if forwarded >= 0:
                    return forwarded
            if load_override is None:
                return l1d_access(line_addr, now, False, False, pc)
            override = load_override(addr, now)
            if override >= 0:
                # Zero-page service: the OS backs the untouched page with
                # the shared zero page, so the access behaves like a hit.
                return now + override
            return l1d_access(line_addr, now, False, False, pc) + load_extra(addr, now)

        def store(addr: int, pc: int, now: int) -> int:
            # The store buffer's in-order drain, with the L1D write bound
            # directly.
            line_addr = addr // line_size
            sb.pushes += 1
            if sb_fifo and sb_fifo[0][1] <= now:
                sb_expire(now)
            issue = now
            if sb_coalescing and line_addr in sb_by_line:
                sb.coalesced += 1
            else:
                if len(sb_fifo) >= sb_entries:
                    # Stall until the oldest buffered store drains.
                    oldest_done = sb_fifo[0][1]
                    sb.full_stalls += 1
                    if oldest_done > issue:
                        issue = oldest_done
                    sb_expire(issue)
                last = sb._last_drain_done
                done = l1d_access(line_addr, issue if issue > last else last,
                                  True, False)
                sb._last_drain_done = done
                sb_fifo.append((line_addr, done))
                sb_by_line[line_addr] = done
            if store_extra is not None:
                issue += store_extra(addr, now)
            return issue

        self.ifetch_line = l1i_access if ifetch_extra is None else ifetch_line
        self.load = load
        self.store = store

    def reset(self) -> None:
        # Downstream first: each cache's reset rebuilds its access path,
        # and the L1 paths capture the L2's current one.
        self.dram.reset()
        self.l2.reset()
        self.l1i.reset()
        self.l1d.reset()
        self.store_buffer.reset()
        if self.effects is not None:
            self.effects.reset()
        self._bind_access_paths()
