"""Set-associative cache timing model.

One :class:`Cache` instance models one level (L1I, L1D or L2). Timing is
timestamp-based, matching the Sniper philosophy: an access returns the
absolute cycle at which its data is available, accounting for port
bandwidth, serial vs. parallel tag/data access, MSHR occupancy and miss
merging, victim-cache probes, downstream latency, dirty writebacks and
in-flight prefetch fills.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.memory.hashing import AddressHash, MaskHash, build_hash
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import NullPrefetcher, Prefetcher
from repro.memory.replacement import LRUPolicy, ReplacementPolicy, build_replacement
from repro.memory.victim import VictimCache


class _Line:
    """Per-line metadata (tag lives as the dict key)."""

    __slots__ = ("dirty", "ready", "referenced", "prefetched")

    def __init__(self, dirty: bool = False, ready: int = 0, prefetched: bool = False) -> None:
        self.dirty = dirty
        #: Absolute cycle at which the fill completes (in-flight lines).
        self.ready = ready
        #: Reference bit for the clock pseudo-LRU policy.
        self.referenced = False
        self.prefetched = prefetched


@dataclass(slots=True)
class CacheStats:
    """Demand-access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    victim_hits: int = 0
    writebacks: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    late_prefetch_hits: int = 0
    mshr_merges: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of the cache hierarchy.

    Parameters mirror the tunable list of §IV-A: geometry (``size``,
    ``assoc``, ``line_size``), ``hit_latency``, ``serial_tag_data`` (serial
    access adds a cycle to hits but saves tag-array energy — some cores
    ship it), ``ports`` (bandwidth), ``mshr_entries``, address ``hashing``,
    ``replacement`` policy, ``victim_entries`` (0 disables the victim
    buffer) and an attached ``prefetcher``.

    ``next_level`` must expose ``access_line(line_addr, now, is_write,
    is_prefetch) -> completion_cycle`` (another Cache or the DRAM model).
    """

    __slots__ = ("name", "size", "assoc", "line_size", "n_sets", "hit_latency",
                 "serial_tag_data", "ports", "hash", "policy", "victim",
                 "prefetcher", "mshrs", "next_level", "stats", "_sets",
                 "_port_free", "access_line", "__weakref__")

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int = 64,
        hit_latency: int = 2,
        serial_tag_data: bool = False,
        ports: int = 1,
        mshr_entries: int = 4,
        hashing: str = "mask",
        replacement: str = "lru",
        victim_entries: int = 0,
        prefetcher: Prefetcher = None,
        next_level=None,
    ) -> None:
        if size <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError("size, assoc and line_size must be positive")
        if size % (assoc * line_size):
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*line_size ({assoc * line_size})"
            )
        if hit_latency <= 0 or ports <= 0:
            raise ValueError("hit_latency and ports must be positive")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self.hit_latency = hit_latency
        self.serial_tag_data = serial_tag_data
        self.ports = ports
        self.hash: AddressHash = build_hash(hashing, self.n_sets)
        self.policy: ReplacementPolicy = build_replacement(replacement)
        self.victim = VictimCache(victim_entries) if victim_entries else None
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.mshrs = MSHRFile(mshr_entries)
        self.next_level = next_level
        self.stats = CacheStats()
        # Set dicts materialise lazily (most runs touch a fraction of
        # the sets; building hundreds of dicts per run is pure overhead).
        self._sets = [None] * self.n_sets
        self._port_free = [0] * ports
        self._install_access_path()

    # ------------------------------------------------------------------
    def _install_access_path(self) -> None:
        """Build ``access_line``, one closure specialised to this cache.

        Every per-access decision that depends only on the geometry is
        made here, once: mask or ``index()`` hashing, one port or many,
        inlined LRU recency or the policy's ``on_hit``/``choose_victim``,
        the victim buffer, the prefetcher's ``observe`` and the next
        level. The access path then branches only on captured values, so
        a trivial component (no prefetcher, no victim buffer) costs one
        test. Nothing here captures ``self``: a finished cache holds no
        reference cycle and is freed by refcount. Rebuilt by
        :meth:`reset`, which replaces the bound state objects.
        """
        stats = self.stats
        sets = self._sets
        index = self.hash.index
        # Power-of-two mask indexing (the default) inlines to one AND.
        mask = -1
        if isinstance(self.hash, MaskHash) and self.hash._pow2:
            mask = self.hash._mask
        ports = self._port_free
        single_port = len(ports) == 1
        # Serial tag->data access adds one cycle to hits; the miss
        # determination needs only the tag array.
        hit_latency = self.hit_latency
        hit_time = hit_latency + (1 if self.serial_tag_data else 0)
        tag_time = 2 if self.serial_tag_data else 1
        assoc = self.assoc
        policy = self.policy
        lru = isinstance(policy, LRUPolicy)
        on_hit = policy.on_hit
        choose_victim = policy.choose_victim
        victim = self.victim
        probe = victim.probe if victim is not None else None
        victim_insert = victim.insert if victim is not None else None
        observe = (None if isinstance(self.prefetcher, NullPrefetcher)
                   else self.prefetcher.observe)
        mshrs = self.mshrs
        mshr_entries = mshrs.entries
        mshr_heap = mshrs._heap
        mshr_inflight = mshrs._inflight
        mshr_expire = mshrs._expire
        next_level = self.next_level
        next_access = next_level.access_line if next_level is not None else None
        heappush = heapq.heappush
        line_cls = _Line

        def claim_port(now: int) -> int:
            best = 0
            best_free = ports[0]
            for i in range(1, len(ports)):
                if ports[i] < best_free:
                    best_free = ports[i]
                    best = i
            start = now if now > best_free else best_free
            ports[best] = start + 1
            return start

        def writeback(line_addr: int, now: int) -> None:
            stats.writebacks += 1
            if next_access is not None:
                next_access(line_addr, now, True, False)

        def evict(entries: dict, now: int) -> None:
            """Make room in the full set ``entries``."""
            victim_tag = next(iter(entries)) if lru else choose_victim(entries)
            victim_line = entries.pop(victim_tag)
            if victim_insert is not None:
                overflow_addr, overflow_dirty = victim_insert(victim_tag, victim_line.dirty)
                if overflow_addr is not None and overflow_dirty:
                    writeback(overflow_addr, now)
            elif victim_line.dirty:
                writeback(victim_tag, now)

        def fill(line_addr: int, ready: int, dirty: bool, prefetched: bool) -> None:
            """Install ``line_addr`` (off the demand-miss path)."""
            idx = line_addr & mask if mask >= 0 else index(line_addr)
            entries = sets[idx]
            if entries is None:
                entries = sets[idx] = {}
            existing = entries.get(line_addr)
            if existing is not None:
                existing.dirty = existing.dirty or dirty
                if ready < existing.ready:
                    existing.ready = ready
                return
            if len(entries) >= assoc:
                evict(entries, ready)
            entries[line_addr] = line_cls(dirty, ready, prefetched)

        def prefetch(line_addr: int, pc: int, hit: bool, now: int) -> None:
            """Train the prefetcher on a demand access; issue its lines."""
            candidates = observe(line_addr, pc, hit)
            if not candidates:
                return
            for pf_addr in candidates:
                if pf_addr < 0:
                    continue
                pf_set = sets[pf_addr & mask if mask >= 0 else index(pf_addr)]
                if pf_set is not None and pf_addr in pf_set:
                    continue
                if mshr_inflight:
                    if mshr_heap[0][0] <= now:
                        mshr_expire(now)
                    if pf_addr in mshr_inflight:
                        continue
                if len(mshr_inflight) >= mshr_entries:
                    break  # never stall demand traffic for prefetches
                stats.prefetches_issued += 1
                done = next_access(pf_addr, now, False, True) if next_access is not None else now
                mshr_inflight[pf_addr] = done
                heappush(mshr_heap, (done, pf_addr))
                fill(pf_addr, done, False, True)

        def access_line(
            line_addr: int,
            now: int,
            is_write: bool = False,
            is_prefetch: bool = False,
            pc: int = 0,
        ) -> int:
            """Access one line; returns the absolute data-ready cycle."""
            if not is_prefetch:
                stats.accesses += 1
            if single_port:
                free = ports[0]
                start = now if now > free else free
                ports[0] = start + 1
            else:
                start = claim_port(now)

            idx = line_addr & mask if mask >= 0 else index(line_addr)
            entries = sets[idx]
            if entries is None:
                entries = sets[idx] = {}
                line = None
            else:
                line = entries.get(line_addr)

            if line is not None:
                done = start + hit_time
                if line.ready > done:
                    # In-flight line: a delayed hit. A demand fill in
                    # flight means this access merged into the miss.
                    done = line.ready
                    if not is_prefetch:
                        if line.prefetched:
                            stats.late_prefetch_hits += 1
                        else:
                            stats.mshr_merges += 1
                if not is_prefetch:
                    stats.hits += 1
                    if line.prefetched:
                        stats.prefetch_hits += 1
                        line.prefetched = False
                if lru:
                    # Inlined LRUPolicy.on_hit: move to the recency tail.
                    entries[line_addr] = entries.pop(line_addr)
                else:
                    on_hit(entries, line_addr)
                if is_write:
                    line.dirty = True
                if observe is not None and not is_prefetch:
                    prefetch(line_addr, pc, True, done)
                return done

            # -------------------------------------------------- miss path
            tag_done = start + tag_time

            if probe is not None and probe(line_addr):
                if not is_prefetch:
                    stats.hits += 1
                    stats.victim_hits += 1
                done = tag_done + hit_latency  # swap takes an extra access
                fill(line_addr, done, is_write, False)
                if observe is not None and not is_prefetch:
                    prefetch(line_addr, pc, True, done)
                return done

            if not is_prefetch:
                stats.misses += 1

            # MSHRs: one expiry sweep serves both the merge lookup and
            # the allocation (the allocation's sweep at the same cycle
            # would find nothing left to expire).
            if mshr_inflight:
                if mshr_heap[0][0] <= tag_done:
                    mshr_expire(tag_done)
                inflight = mshr_inflight.get(line_addr, -1)
                if inflight >= 0:
                    if not is_prefetch:
                        stats.mshr_merges += 1
                    if is_write:
                        fill(line_addr, inflight, True, False)
                    return tag_done if tag_done > inflight else inflight
                if len(mshr_inflight) < mshr_entries:
                    issue = tag_done
                else:
                    # Full: wait for the earliest fill to complete.
                    earliest = mshr_heap[0][0]
                    mshr_expire(earliest)
                    issue = tag_done if tag_done > earliest else earliest
            else:
                issue = tag_done

            if next_access is not None:
                done = next_access(line_addr, issue, False, is_prefetch)
            else:
                done = issue  # no backing level configured (unit tests)
            mshr_inflight[line_addr] = done
            heappush(mshr_heap, (done, line_addr))

            # The set cannot have changed since the lookup: the next
            # level never calls back into this one.
            if len(entries) >= assoc:
                evict(entries, done)
            entries[line_addr] = line_cls(is_write, done, is_prefetch)
            if observe is not None and not is_prefetch:
                prefetch(line_addr, pc, False, tag_done)
            return done

        self.access_line = access_line

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """Tag-array probe without timing side effects (for tests)."""
        entries = self._sets[self.hash.index(line_addr)]
        return entries is not None and line_addr in entries

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def reset(self) -> None:
        self._sets = [None] * self.n_sets
        self._port_free = [0] * self.ports
        self.mshrs.reset()
        self.policy.reset()
        self.prefetcher.reset()
        if self.victim is not None:
            self.victim.reset()
        self.stats = CacheStats()
        # Rebuild the access path around the fresh stats/sets/ports.
        self._install_access_path()
