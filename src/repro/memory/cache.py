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
                 "_port_free", "_hit_time", "_tag_time", "_index",
                 "_single_port", "_lru", "_no_prefetch", "access_line",
                 "__weakref__")

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
        # Effective latencies: serial tag->data access adds one cycle to
        # hits; the miss determination needs only the tag array.
        self._hit_time = hit_latency + (1 if serial_tag_data else 0)
        self._tag_time = 2 if serial_tag_data else 1
        # Hot-path shortcuts resolved once: the set-index function, the
        # common single-ported geometry, LRU recency maintenance (dict
        # pop/reinsert, inlined to skip a method call per hit) and the
        # no-op prefetcher (skips the observe call entirely).
        self._index = self.hash.index
        self._single_port = ports == 1
        self._lru = isinstance(self.policy, LRUPolicy)
        self._no_prefetch = isinstance(self.prefetcher, NullPrefetcher)
        self._install_access_path()

    # ------------------------------------------------------------------
    def _claim_port(self, now: int) -> int:
        ports = self._port_free
        best = 0
        best_free = ports[0]
        for i in range(1, len(ports)):
            if ports[i] < best_free:
                best_free = ports[i]
                best = i
        start = now if now > best_free else best_free
        ports[best] = start + 1
        return start

    def _fill(self, line_addr: int, ready: int, dirty: bool, prefetched: bool) -> None:
        """Install ``line_addr``; evict (and maybe write back) a victim."""
        idx = self._index(line_addr)
        entries = self._sets[idx]
        if entries is None:
            entries = self._sets[idx] = {}
        existing = entries.get(line_addr)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            if ready < existing.ready:
                existing.ready = ready
            return
        if len(entries) >= self.assoc:
            victim_tag = self.policy.choose_victim(entries)
            victim_line = entries.pop(victim_tag)
            self._handle_eviction(victim_tag, victim_line, ready)
        entries[line_addr] = _Line(dirty=dirty, ready=ready, prefetched=prefetched)

    def _handle_eviction(self, line_addr: int, line: _Line, now: int) -> None:
        if self.victim is not None:
            overflow_addr, overflow_dirty = self.victim.insert(line_addr, line.dirty)
            if overflow_addr is not None and overflow_dirty:
                self._writeback(overflow_addr, now)
        elif line.dirty:
            self._writeback(line_addr, now)

    def _writeback(self, line_addr: int, now: int) -> None:
        self.stats.writebacks += 1
        if self.next_level is not None:
            self.next_level.access_line(line_addr, now, True, False)

    # ------------------------------------------------------------------
    def _install_access_path(self) -> None:
        """Bind ``access_line`` to the fastest applicable implementation.

        For the common geometry — single-ported, LRU, victimless, no
        prefetcher — a monomorphic closure with every per-access
        attribute pre-resolved replaces the general method. The closure
        is timing- and stats-identical to :meth:`_access_line_general`
        (whose code paths it specialises); anything fancier falls back
        to the general method. Re-installed by :meth:`reset`, which
        replaces the bound state objects.
        """
        if not (self._single_port and self._lru and self._no_prefetch
                and self.victim is None):
            self.access_line = self._access_line_general
            return

        stats = self.stats
        sets = self._sets
        index = self._index
        # Power-of-two mask indexing (the default) inlines to one AND.
        mask = -1
        if isinstance(self.hash, MaskHash) and self.hash._pow2:
            mask = self.hash._mask
        ports = self._port_free
        hit_time = self._hit_time
        tag_time = self._tag_time
        assoc = self.assoc
        mshrs = self.mshrs
        mshr_entries = mshrs.entries
        mshr_heap = mshrs._heap
        mshr_inflight = mshrs._inflight
        mshr_expire = mshrs._expire
        fill = self._fill
        next_level = self.next_level
        next_access = next_level.access_line if next_level is not None else None
        heappush = heapq.heappush
        line_cls = _Line

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
            free = ports[0]
            start = now if now > free else free
            ports[0] = start + 1

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
                    # In-flight line: a delayed hit (merged into the
                    # outstanding miss).
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
                # Inlined LRUPolicy.on_hit: move to the recency tail.
                entries[line_addr] = entries.pop(line_addr)
                if is_write:
                    line.dirty = True
                return done

            # -------------------------------------------------- miss path
            tag_done = start + tag_time
            if not is_prefetch:
                stats.misses += 1

            # Inlined MSHRFile lookup + allocate: one expiry sweep serves
            # both (identical state evolution — lookup's sweep is what
            # allocate would repeat at the same cycle).
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
                    earliest = mshr_heap[0][0]
                    mshr_expire(earliest)
                    issue = tag_done if tag_done > earliest else earliest
            else:
                issue = tag_done

            if next_access is not None:
                done = next_access(line_addr, issue, False, is_prefetch)
            else:
                done = issue  # no backing level configured (unit tests)
            # Inlined MSHRFile.record.
            mshr_inflight[line_addr] = done
            heappush(mshr_heap, (done, line_addr))

            # Inlined _fill for the victimless-LRU fast path.
            existing = entries.get(line_addr)
            if existing is not None:
                existing.dirty = existing.dirty or is_write
                if done < existing.ready:
                    existing.ready = done
            else:
                if len(entries) >= assoc:
                    victim_tag = next(iter(entries))  # LRU victim
                    victim_line = entries.pop(victim_tag)
                    if victim_line.dirty:
                        # Inlined _writeback.
                        stats.writebacks += 1
                        if next_access is not None:
                            next_access(victim_tag, done, True, False)
                entries[line_addr] = line_cls(is_write, done, is_prefetch)
            return done

        self.access_line = access_line

    def _access_line_general(
        self,
        line_addr: int,
        now: int,
        is_write: bool = False,
        is_prefetch: bool = False,
        pc: int = 0,
    ) -> int:
        """Access one line; returns the absolute data-ready cycle."""
        stats = self.stats
        if not is_prefetch:
            stats.accesses += 1
        if self._single_port:
            # Inlined single-port claim (the overwhelmingly common
            # geometry): same arithmetic as _claim_port for one port.
            ports = self._port_free
            free = ports[0]
            start = now if now > free else free
            ports[0] = start + 1
        else:
            start = self._claim_port(now)

        idx = self._index(line_addr)
        entries = self._sets[idx]
        if entries is None:
            entries = self._sets[idx] = {}
            line = None
        else:
            line = entries.get(line_addr)

        if line is not None:
            done = start + self._hit_time
            if line.ready > done:
                # In-flight line: a delayed hit. A demand fill in flight
                # means this access merged into the outstanding miss.
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
            if self._lru:
                # Inlined LRUPolicy.on_hit: move to the recency tail.
                entries[line_addr] = entries.pop(line_addr)
            else:
                self.policy.on_hit(entries, line_addr)
            if is_write:
                line.dirty = True
            if not self._no_prefetch:
                self._maybe_prefetch(line_addr, pc, True, done, not is_prefetch)
            return done

        # ------------------------------------------------------ miss path
        tag_done = start + self._tag_time

        if self.victim is not None and self.victim.probe(line_addr):
            if not is_prefetch:
                stats.hits += 1
                stats.victim_hits += 1
            done = tag_done + self.hit_latency  # swap takes an extra access
            self._fill(line_addr, done, is_write, False)
            if not self._no_prefetch:
                self._maybe_prefetch(line_addr, pc, True, done, not is_prefetch)
            return done

        if not is_prefetch:
            stats.misses += 1

        inflight = self.mshrs.lookup(line_addr, tag_done)
        if inflight >= 0:
            if not is_prefetch:
                stats.mshr_merges += 1
            if is_write:
                self._fill(line_addr, inflight, True, False)
            return max(tag_done, inflight)

        issue = self.mshrs.allocate(line_addr, tag_done)
        if self.next_level is not None:
            done = self.next_level.access_line(line_addr, issue, False, is_prefetch)
        else:
            done = issue  # no backing level configured (unit tests)
        self.mshrs.record(line_addr, done)
        self._fill(line_addr, done, is_write, is_prefetch)
        if not self._no_prefetch:
            self._maybe_prefetch(line_addr, pc, False, tag_done, not is_prefetch)
        return done

    def _maybe_prefetch(self, line_addr: int, pc: int, hit: bool, now: int, is_demand: bool) -> None:
        if not is_demand:
            return
        candidates = self.prefetcher.observe(line_addr, pc, hit)
        if not candidates:
            return
        for pf_addr in candidates:
            if pf_addr < 0:
                continue
            pf_set = self._sets[self._index(pf_addr)]
            if pf_set is not None and pf_addr in pf_set:
                continue
            if self.mshrs.lookup(pf_addr, now) >= 0:
                continue
            if self.mshrs.outstanding >= self.mshrs.entries:
                break  # never stall demand traffic for prefetches
            self.stats.prefetches_issued += 1
            if self.next_level is not None:
                done = self.next_level.access_line(pf_addr, now, False, True)
            else:
                done = now
            self.mshrs.record(pf_addr, done)
            self._fill(pf_addr, done, dirty=False, prefetched=True)

    def release(self) -> None:
        """Unbind ``access_line`` once the cache's run is over.

        Either binding refers back to the cache (the general path is a
        bound method, the fast closure captures ``_fill``), so a bound
        cache is a reference cycle that only the cyclic GC can free,
        together with its sets, lines, MSHRs and policy. Releasing it
        lets a finished run go by refcount; :meth:`reset` rebinds.
        """
        self.access_line = None

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
        # Rebind the fast path to the fresh stats/sets/ports objects.
        self._install_access_path()
