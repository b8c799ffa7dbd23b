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
        self._l1d_write = self._make_l1d_write()
        if effects is None:
            # The pure-simulator case (every tuning trial): shadow the
            # effect-aware methods with closures that skip the hook
            # checks and bind the per-level access functions once.
            self._bind_fast_paths()

    def _make_l1d_write(self):
        l1d = self.l1d

        def write(line_addr: int, start: int) -> int:
            return l1d.access_line(line_addr, start, True, False)

        return write

    def _bind_fast_paths(self) -> None:
        """Install effect-free ``ifetch``/``load``/``store`` instance shims.

        Timing-identical to the method path with ``effects=None``; the
        closures only pre-resolve the attribute chains the hot loop would
        otherwise walk on every dynamic instruction.
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

        def ifetch(pc: int, now: int) -> int:
            return l1i_access(pc // line_size, now, False, False, pc)

        def load(addr: int, pc: int, now: int) -> int:
            line_addr = addr // line_size
            if sb_by_line:
                # Store-buffer snoop only when something is buffered (an
                # empty snoop map implies an empty FIFO — see forward()).
                forwarded = forward(line_addr, now)
                if forwarded >= 0:
                    return forwarded
            return l1d_access(line_addr, now, False, False, pc)

        def store(addr: int, pc: int, now: int) -> int:
            # Inlined StoreBuffer.push with the L1D write bound directly
            # (state-identical to push(); spares two calls per store).
            line_addr = addr // line_size
            sb.pushes += 1
            if sb_fifo and sb_fifo[0][1] <= now:
                sb_expire(now)
            if sb_coalescing and line_addr in sb_by_line:
                sb.coalesced += 1
                return now
            issue = now
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
            return issue

        self.ifetch = ifetch
        # The effect-free instruction fetch IS a plain L1I access; bind
        # it with no wrapper at all (same signature as access_line).
        self.ifetch_line = l1i_access
        self.load = load
        self.store = store

    # ------------------------------------------------------------------
    def ifetch(self, pc: int, now: int) -> int:
        """Fetch the instruction line holding ``pc``; returns ready cycle."""
        line_addr = pc // self.line_size
        done = self.l1i.access_line(line_addr, now, is_write=False, pc=pc)
        if self.effects is not None:
            done += self.effects.ifetch_extra(pc, now)
        return done

    def ifetch_line(
        self,
        line_addr: int,
        now: int,
        is_write: bool = False,
        is_prefetch: bool = False,
        pc: int = 0,
    ) -> int:
        """Like :meth:`ifetch` with the L1I line address precomputed.

        The core loops already derive the fetch line per instruction;
        this variant spares the hot path a second division and, in the
        effect-free case, binds straight to the L1I's ``access_line``
        (whose signature it mirrors — all arguments are forwarded, so
        both forms behave identically). All cache levels share one line
        size, so the caller's line is the L1I's.
        """
        done = self.l1i.access_line(line_addr, now, is_write, is_prefetch, pc)
        if self.effects is not None:
            done += self.effects.ifetch_extra(pc, now)
        return done

    def load(self, addr: int, pc: int, now: int) -> int:
        """Load from ``addr``; returns the data-ready cycle."""
        line_addr = addr // self.line_size
        forwarded = self.store_buffer.forward(line_addr, now)
        if forwarded >= 0:
            return forwarded
        if self.effects is not None:
            override = self.effects.load_override(addr, now)
            if override >= 0:
                # Zero-page service: the OS backs the untouched page with
                # the shared zero page, so the access behaves like a hit.
                return now + override
        done = self.l1d.access_line(line_addr, now, is_write=False, pc=pc)
        if self.effects is not None:
            done += self.effects.load_extra(addr, now)
        return done

    def store(self, addr: int, pc: int, now: int) -> int:
        """Issue a store; returns the cycle the core may move on."""
        line_addr = addr // self.line_size
        issue = self.store_buffer.push(line_addr, now, self._l1d_write)
        if self.effects is not None:
            issue += self.effects.store_extra(addr, now)
        return issue

    # ------------------------------------------------------------------
    def release(self) -> None:
        """Break the caches' self-references once the run is over.

        After this the hierarchy serves no further access until
        :meth:`reset`; its state is freed by refcount when dropped.
        """
        self.l1i.release()
        self.l1d.release()
        self.l2.release()

    def reset(self) -> None:
        # Downstream first: each cache's reset rebinds its fast access
        # path, and the L1 paths capture the L2's current one.
        self.dram.reset()
        self.l2.reset()
        self.l1i.reset()
        self.l1d.reset()
        self.store_buffer.reset()
        self._l1d_write = self._make_l1d_write()
        if self.effects is not None:
            self.effects.reset()
        else:
            self._bind_fast_paths()
