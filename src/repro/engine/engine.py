"""The unified evaluation engine.

The paper's methodology is an experiment-execution problem: tens of
thousands of (configuration, workload) trials raced under irace, each
trial a simulator run compared against a hardware measurement. The
:class:`EvaluationEngine` is the one place those trials execute for every
layer of this reproduction — the irace tuner, the validation campaign,
the near-optimum worst-case search, and the CLI all submit work here.

It owns:

- a :class:`~repro.engine.tracestore.TraceStore`, so each workload trace
  is recorded at most once per (scale, overrides);
- a content-addressed result cache keyed by
  ``(config hash via SimConfig.flatten(), workload, scale, overrides,
  decoder)`` covering simulator runs *and* hardware ground-truth
  measurements;
- a batch API (:meth:`simulate_batch` / :meth:`evaluate_batch`) with
  pluggable executors — serial, a process pool selected by ``jobs``, or
  the distributed fabric;
- unified trial telemetry (requested vs unique trials, cache hits).

Every batch takes one path: the cache/dedup prologue, one executor
``submit``, then polls that memoise, count and write back what arrives.
The non-blocking entry points (:meth:`submit_batch` /
:meth:`poll_batch`, the async race's path) hand the polling to the
caller; :meth:`simulate_batch` drains the same polls itself through
:func:`~repro.engine.executors.drain`.

Parallel and serial execution produce bit-identical results: simulation
is pure and all randomness stays in the drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executors import drain, make_executor
from repro.engine.keys import hw_key, sim_key
from repro.engine.tracestore import TraceStore
from repro.isa.decoder import Decoder
from repro.tuning.cost import cpi_error


@dataclass
class EngineTelemetry:
    """Unified trial accounting across all engine consumers."""

    #: Trials submitted (including ones answered from the cache).
    requested_trials: int = 0
    #: Trials that actually ran the simulator (cache misses).
    unique_trials: int = 0
    #: Trials answered from the result cache (or deduplicated in-batch).
    sim_cache_hits: int = 0
    #: Hardware measurements taken / answered from the cache.
    hw_measurements: int = 0
    hw_cache_hits: int = 0
    #: Cache hits served by the persistent store (counted inside
    #: ``sim_cache_hits``/``hw_cache_hits`` as well).
    store_hits: int = 0
    #: Trials executed inside a fused multi-config batch — K candidates
    #: (a race step's alive set) run in one executor call over one
    #: trace's shared issue stream instead of K independent ones.
    batched_trials: int = 0
    #: Dynamic instructions simulated through shared passes: for each
    #: fused group of K configs over an N-instruction trace, K*N. The
    #: observable form of the batching win — without fusion this work
    #: would have been K separate trace iterations.
    shared_pass_instructions: int = 0

    def hit_rate(self) -> float:
        """Fraction of requested trials answered without simulating."""
        if not self.requested_trials:
            return 0.0
        return self.sim_cache_hits / self.requested_trials

    def summary(self) -> str:
        """One-line human-readable account (used by the CLI)."""
        text = (
            f"{self.requested_trials} trials requested, "
            f"{self.unique_trials} unique simulations "
            f"({self.hit_rate():.0%} cache hits), "
            f"{self.hw_measurements} hardware measurements"
        )
        if self.store_hits:
            text += f", {self.store_hits} store hits"
        if self.batched_trials:
            text += (
                f", {self.batched_trials} batched trials "
                f"({self.shared_pass_instructions} shared-pass instructions)"
            )
        return text


class BatchTicket:
    """In-flight state of one :meth:`EvaluationEngine.submit_batch`.

    Opaque to callers: hand it back to ``poll_batch``/``cancel_batch``.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self.ready: dict = {}            # index -> stats (cache hits)
        self.pending: dict = {}          # key -> [indices]
        self.slot_of: dict = {}          # key -> (gi, ci)
        self.key_at: dict = {}           # (gi, ci) -> key
        self.resolved: set = set()       # keys whose stats arrived
        self.cancelled: set = set()      # withdrawn pair indices
        self.cancelled_slots: set = set()
        self.handle = None               # executor handle

    def done(self) -> bool:
        """True when nothing more can arrive from a poll."""
        if self.ready:
            return False
        live = [key for key, idx_list in self.pending.items()
                if key not in self.resolved
                and any(idx not in self.cancelled for idx in idx_list)]
        return not live


class EvaluationEngine:
    """Cached, batched, optionally parallel experiment execution.

    Parameters
    ----------
    hw:
        The :class:`~repro.hardware.board.HardwareCore` providing ground
        truth (``None`` for simulate-only engines; hardware-comparing
        calls then fail).
    workloads:
        Workload objects this engine can run.
    scale:
        Trace scale applied to every recording.
    decoder:
        Decoder library for *simulator* runs (hardware measurement uses
        the board's own path). Reassignable: cache keys include the
        decoder identity, so swapping libraries never reuses stale runs.
    jobs:
        Parallelism knob: 1 = serial, N>1 = N worker processes.
    executor:
        Executor selection: ``None`` derives from ``jobs``; ``"serial"``,
        ``"process"`` or ``"fabric"`` force a kind (``"fabric"``
        dispatches batches to the distributed queue in the SQLite
        ``store`` file, executed by ``repro worker`` processes); a
        pre-built executor object speaking the executor protocol
        (``submit``/``poll``/``cancel``/``close``, see
        :mod:`repro.engine.executors`) is used as-is.
    overrides:
        Optional shared per-workload kwargs dict (e.g. step-5 fixes);
        mutating it takes effect on the next trial.
    store:
        Optional persistent :class:`~repro.store.resultstore.ResultStore`
        the engine reads/writes through. The in-memory ``_results`` dict
        stays the first-level cache; the store is the durable second
        level shared across engines, processes and sessions. The engine
        never closes a store it was given.
    trace_cache:
        Optional directory of persisted columnar trace blobs (see
        :meth:`~repro.engine.tracestore.TraceStore.columns`). When set,
        simulations attach memory-mapped columnar traces from disk
        instead of re-recording — the fabric worker points every engine
        at one directory next to the store file so each trace is
        recorded once per host, not once per worker.
    """

    def __init__(
        self,
        hw=None,
        workloads=(),
        scale: float = 1.0,
        decoder: Decoder = None,
        jobs: int = 1,
        executor: str = None,
        overrides: dict = None,
        store=None,
        trace_cache: str = None,
    ) -> None:
        self.hw = hw
        self.decoder = decoder if decoder is not None else Decoder()
        self.traces = TraceStore(workloads, scale=scale, cache_dir=trace_cache)
        self.overrides = overrides if overrides is not None else {}
        self.jobs = max(1, int(jobs))
        self.store = store
        if executor is not None and not isinstance(executor, str):
            # A pre-built executor object — the way tests and drivers
            # tune fabric poll/timeout knobs.
            self._executor = executor
        else:
            self._executor = make_executor(self.jobs, executor, store=store)
        self._results: dict = {}
        self.telemetry = EngineTelemetry()

    # ------------------------------------------------------------------
    # Keys and traces
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Trace scale every recording in this engine uses."""
        return self.traces.scale

    def _wl_overrides(self, name: str) -> dict:
        return self.overrides.get(name, {})

    def result_key(self, config, name: str) -> tuple:
        """Public cache-key view (content-addressed; see :mod:`.keys`)."""
        return sim_key(config, name, self.scale, self._wl_overrides(name), self.decoder)

    def trace(self, name: str):
        """The (memoised) trace of workload ``name`` under current overrides."""
        return self.traces.get(name, self._wl_overrides(name))

    def _sim_trace(self, name: str):
        """Trace-like object simulation groups hand the executor.

        With a trace cache configured this is the mmap-attached columnar
        form — the path that lets a fabric worker simulate without ever
        recording. Without one it is the recorded trace itself; its
        columnar form and issue stream are then built on the first
        simulation and memoised on the trace.
        """
        if self.traces.cache_dir is not None:
            return self.traces.columns(name, self.decoder, self._wl_overrides(name))
        return self.trace(name)

    # ------------------------------------------------------------------
    # Hardware ground truth
    # ------------------------------------------------------------------
    def measure_hw(self, name: str):
        """Measure ``name`` on the board once; cached thereafter."""
        if self.hw is None:
            raise RuntimeError("this engine has no hardware core attached")
        key = hw_key(self.hw.name, name, self.scale, self._wl_overrides(name))
        cached = self._results.get(key)
        if cached is not None:
            self.telemetry.hw_cache_hits += 1
            return cached
        if self.store is not None:
            stored = self.store.get_hw(key)
            if stored is not None:
                self._results[key] = stored
                self.telemetry.hw_cache_hits += 1
                self.telemetry.store_hits += 1
                return stored
        result = self.hw.measure(self.trace(name))
        self._results[key] = result
        self.telemetry.hw_measurements += 1
        if self.store is not None:
            self.store.put_hw(key, result)
        return result

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, config, name: str):
        """Simulate one (config, workload) pair; cached by content."""
        return self.simulate_batch([(config, name)])[0]

    def _prepare_batch(self, pairs):
        """The prologue both batch entry points share.

        Counts the requested trials, answers what the result cache or
        the store already holds (every key the cache misses is read
        with one ``get_sims`` — one store round trip per batch, however
        many pairs it carries), runs duplicate keys once, and groups
        the unique misses by trace so each trace crosses the executor
        boundary (at most) once per batch. It also accounts the fusion
        win: every pass the executor shares between two or more
        configs (see ``pass_sizes`` on the executors) counts toward
        ``batched_trials`` and ``shared_pass_instructions``.

        Returns ``(ready, pending, exec_groups, group_keys)``:
        ``{index: stats}`` answered without simulating, ``{key:
        [indices]}`` still to run, the executor groups ``(configs,
        trace_key, trace)``, and each group's keys aligned with its
        configs.
        """
        keys = [self.result_key(config, name) for config, name in pairs]
        stored: dict = {}
        if self.store is not None:
            missing = [key for key in dict.fromkeys(keys) if key not in self._results]
            if missing:
                stored = self.store.get_sims(missing)
        ready: dict = {}    # index -> stats
        pending: dict = {}  # key -> [indices]
        for idx, key in enumerate(keys):
            self.telemetry.requested_trials += 1
            cached = self._results.get(key)
            if cached is None and key not in pending:
                cached = stored.get(key)
                if cached is not None:
                    self._results[key] = cached
                    self.telemetry.store_hits += 1
            if cached is not None:
                self.telemetry.sim_cache_hits += 1
                ready[idx] = cached
            elif key in pending:
                self.telemetry.sim_cache_hits += 1
                pending[key].append(idx)
            else:
                pending[key] = [idx]

        groups: dict = {}  # trace_key -> (trace, [configs], [keys])
        for key, indices in pending.items():
            config, name = pairs[indices[0]]
            tkey = self.traces.key(name, self._wl_overrides(name))
            if tkey not in groups:
                groups[tkey] = (self._sim_trace(name), [], [])
            _trace, configs, keys = groups[tkey]
            configs.append(config)
            keys.append(key)
        exec_groups = [(configs, tkey, trace)
                       for tkey, (trace, configs, _keys) in groups.items()]
        group_keys = [keys for _trace, _configs, keys in groups.values()]

        for configs, _tkey, trace in exec_groups:
            for size in self._executor.pass_sizes(len(configs)):
                if size >= 2:
                    self.telemetry.batched_trials += size
                    self.telemetry.shared_pass_instructions += (
                        size * trace.instruction_count()
                    )
        return ready, pending, exec_groups, group_keys

    def simulate_batch(self, pairs) -> list:
        """Simulate ``[(config, workload), ...]``; returns aligned stats.

        Cached results are returned directly; duplicate uncached pairs
        within the batch run once; the remainder is submitted to the
        executor as one block grouped by trace and drained poll by poll.
        """
        ticket = self._submit(pairs)
        results = [None] * len(ticket.pairs)
        for got in drain(self._executor, lambda: self._poll(ticket), ticket.done):
            for idx, stats in got.items():
                results[idx] = stats
        return results

    # ------------------------------------------------------------------
    # Non-blocking simulation (the async race's engine path)
    # ------------------------------------------------------------------
    def submit_batch(self, pairs) -> "BatchTicket":
        """Start ``[(config, workload), ...]`` without waiting.

        The cache/dedup prologue is exactly :meth:`simulate_batch`'s —
        same telemetry, same store reads — and the remainder goes to the
        executor's ``submit``; the returned :class:`BatchTicket` is then
        polled by the caller instead of drained here.
        """
        return self._submit(pairs)

    def poll_batch(self, ticket: "BatchTicket") -> dict:
        """``{pair index: stats}`` completed since the previous poll."""
        return self._poll(ticket)

    def _submit(self, pairs) -> "BatchTicket":
        """:meth:`submit_batch` under a private name.

        :meth:`simulate_batch` drains through ``_submit``/``_poll``, so
        code wrapping the public entry points (a profiler, a latency
        probe) sees a blocking batch once, not also as a submit/poll
        sequence.
        """
        ticket = BatchTicket(pairs=list(pairs))
        ticket.ready, ticket.pending, exec_groups, group_keys = (
            self._prepare_batch(ticket.pairs))
        if exec_groups:
            for gi, keys in enumerate(group_keys):
                for ci, key in enumerate(keys):
                    ticket.slot_of[key] = (gi, ci)
                    ticket.key_at[(gi, ci)] = key
            ticket.handle = self._executor.submit(exec_groups, self.decoder)
        return ticket

    def _poll(self, ticket: "BatchTicket") -> dict:
        """One executor poll; memoises, counts and writes back new stats."""
        out = dict(ticket.ready)
        ticket.ready = {}
        if ticket.handle is None or ticket.resolved >= set(ticket.pending):
            return out
        got = self._executor.poll(ticket.handle)
        fresh = []
        for slot in sorted(got):
            key = ticket.key_at.get(slot)
            if key is None or key in ticket.resolved:
                continue
            stats = got[slot]
            ticket.resolved.add(key)
            if key not in self._results:
                self._results[key] = stats
                self.telemetry.unique_trials += 1
                fresh.append((key, stats))
            for idx in ticket.pending[key]:
                out[idx] = stats
        # An executor that already persisted its results (the fabric
        # workers write the shared store directly) needs no write-back
        # — rewriting N rows per batch would double the write traffic
        # on the contended multi-writer file.
        if self.store is not None and fresh and not self._executor.persists:
            self.store.put_sim_many(fresh)
        return out

    def cancel_batch(self, ticket: "BatchTicket", indices) -> None:
        """Withdraw pairs by index (best-effort; see executor ``cancel``).

        Only keys *all* of whose requesting indices are withdrawn are
        cancelled at the executor; a key some live index still wants
        keeps running.
        """
        ticket.cancelled.update(indices)
        slots = []
        for key, idx_list in ticket.pending.items():
            if key in ticket.resolved:
                continue
            if all(idx in ticket.cancelled for idx in idx_list):
                slot = ticket.slot_of.get(key)
                if slot is not None and slot not in ticket.cancelled_slots:
                    ticket.cancelled_slots.add(slot)
                    slots.append(slot)
        if slots:
            self._executor.cancel(ticket.handle, slots)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def cost_of(self, stats, name: str, cost=None) -> float:
        """Cost of already-computed ``stats`` against hardware."""
        cost_fn = cost if cost is not None else cpi_error
        return cost_fn(stats, self.measure_hw(name))

    def evaluate(self, config, name: str) -> float:
        """Cost of one pair: its absolute relative CPI error."""
        return self.evaluate_batch([(config, name)])[0]

    def evaluate_batch(self, pairs, cost=None) -> list:
        """Costs for ``[(config, workload), ...]`` against hardware.

        ``cost`` is as in :meth:`cost_of`. Costs are computed from
        cached stats, so racing the same runs under a different cost
        function (the step-5 weighted rounds) re-simulates nothing.
        """
        pairs = list(pairs)
        stats_list = self.simulate_batch(pairs)
        return [self.cost_of(stats, name, cost=cost)
                for stats, (_config, name) in zip(stats_list, pairs)]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (worker processes)."""
        self._executor.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
