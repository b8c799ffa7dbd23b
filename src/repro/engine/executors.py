"""Pluggable batch executors for the evaluation engine.

A batch is a list of *groups*, each group pairing one recorded trace
with the configurations to simulate on it. Three executors are
provided:

- :class:`SerialExecutor` — runs everything in-process, in order;
- :class:`ProcessExecutor` — fans groups out over a
  :class:`concurrent.futures.ProcessPoolExecutor`;
- :class:`FabricExecutor` — publishes groups as content-keyed tasks on
  the distributed fabric's durable queue (:mod:`repro.fabric`) and
  collects the results from the shared store as leased workers — other
  processes, other hosts — finish them.

Simulation is pure — a run is fully determined by (config, trace,
decoder library) and the driver owns all randomness — so every executor
returns bit-identical results; only wall-clock differs. The engine relies
on that to make ``jobs``/``executor`` pure throughput knobs.

Every executor speaks one protocol, and the engine drives only it:

- ``submit(groups, decoder) -> handle`` starts a batch;
- ``poll(handle) -> {(group_idx, config_idx): stats}`` returns slots
  completed since the previous poll and never sleeps;
- ``cancel(handle, slots)`` withdraws not-yet-delivered slots
  best-effort (work already executing simply completes and is ignored);
- ``close()`` releases the executor's resources;
- ``pass_sizes(n) -> [int]`` says how many configs of an ``n``-config
  group share each simulation pass, for the engine's fusion telemetry;
- ``persists`` is true when results reach the store without the engine
  (the fabric's workers write them), so the engine skips its write-back.

An in-process executor returns at least one slot per poll while work is
outstanding: the serial executor simulates the next group, the process
executor waits for its first finished future. Only the fabric executor,
whose work runs elsewhere, can answer ``{}`` mid-batch, so only it is
ever paced — :func:`drain`, the one blocking loop over ``poll``, naps
by :class:`~repro.pacing.Pacer` from its ``poll_interval`` up to its
``poll_cap``. The fabric executor maps the protocol onto one queue
enqueue per submit + streaming state polls, with queue-level ``cancel``
retracting unclaimed speculation.

A trace leaves its process in one form: the columnar blob
(:meth:`~repro.trace.columnar.ColumnarTrace.to_blob`). Fabric workers
attach it from the host's trace cache; the process executor ships it
inside every pool task, and each pool worker attaches a given (trace,
decoder library) once and keeps it for the life of the pool.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.isa.decoder import check_decoder_portable, decoder_library
from repro.pacing import Pacer
from repro.simulator.simulator import simulate_batch
from repro.trace.columnar import ColumnarTrace

#: A pool worker's attached traces by (trace key, decoder library),
#: kept for the life of the worker.
_ATTACHED: dict = {}


def _simulate_chunk(payload):
    """Worker entry point: simulate one chunk of configs on one trace.

    The chunk carries its trace as a columnar blob; only the first chunk
    of each (trace, decoder library) a worker sees attaches it.
    """
    configs, key, blob, decoder_cls = payload
    decoder = decoder_cls()
    memo = (key, decoder_library(decoder))
    trace = _ATTACHED.get(memo)
    if trace is None:
        trace = _ATTACHED[memo] = ColumnarTrace.from_blob(blob)
    return simulate_batch(trace, list(configs), decoder=decoder)


def drain(executor, poll, done):
    """Yield every non-empty ``poll()`` result until ``done()``.

    The one blocking loop over the executor protocol. In-process
    executors deliver on every poll while work is outstanding, so the
    loop never naps for them; after an empty poll (the fabric's, whose
    workers run elsewhere) it naps by :class:`~repro.pacing.Pacer` from
    ``executor.poll_interval`` up to ``executor.poll_cap``, and any
    delivery resets the pace.
    """
    pacer = None
    while not done():
        got = poll()
        if got:
            if pacer is not None:
                pacer.reset()
            yield got
            continue
        if pacer is None:
            pacer = Pacer(executor.poll_interval, executor.poll_cap)
        time.sleep(pacer.nap())


def _run_groups(executor, groups, decoder) -> list:
    """Submit ``groups`` and drain them; returns per-group stats lists.

    A convenience over the protocol, exposed as every executor's
    ``run``. The engine drains its own tickets instead; the name stays
    because ``campaignbench/layers.py`` traces ``<executor>.run``.
    """
    groups = [(list(configs), key, trace) for configs, key, trace in groups]
    handle = executor.submit(groups, decoder)
    results: dict = {}
    expected = sum(len(configs) for configs, _key, _trace in groups)
    for got in drain(executor, lambda: executor.poll(handle),
                     lambda: len(results) >= expected):
        results.update(got)
    return [[results[(gi, ci)] for ci in range(len(configs))]
            for gi, (configs, _key, _trace) in enumerate(groups)]


class SerialExecutor:
    """In-process, in-order execution (the ``jobs=1`` path).

    Each group — a race step's alive candidates over one instance — is
    *fused*: one ``simulate_batch`` call runs every config over the
    trace's one memoised issue stream.
    """

    name = "serial"
    jobs = 1
    persists = False

    @staticmethod
    def pass_sizes(n: int) -> list:
        """Configs per shared pass for an ``n``-config group: all of them."""
        return [n]

    run = _run_groups

    def submit(self, groups, decoder):
        """Start a batch; work happens lazily, one group per poll."""
        return _SerialHandle(groups=[(list(configs), key, trace)
                                     for configs, key, trace in groups],
                             decoder=decoder)

    def poll(self, handle) -> dict:
        """Complete the next unfinished group; ``{}`` once exhausted.

        Per-config stats do not depend on which configs share a pass —
        fusing a subset of a group changes nothing (see
        ``simulate_batch``) — so cancelled slots can simply be skipped.
        """
        out: dict = {}
        while handle.next_group < len(handle.groups) and not out:
            gi = handle.next_group
            handle.next_group += 1
            configs, _key, trace = handle.groups[gi]
            live = [(ci, config) for ci, config in enumerate(configs)
                    if (gi, ci) not in handle.cancelled]
            if not live:
                continue
            stats = simulate_batch(trace, [c for _ci, c in live],
                                   decoder=handle.decoder)
            for (ci, _config), s in zip(live, stats):
                out[(gi, ci)] = s
        return out

    def cancel(self, handle, slots) -> None:
        """Skip not-yet-simulated slots (work is lazy, so this is exact)."""
        handle.cancelled.update(slots)

    def close(self) -> None:
        """Nothing to release."""


class _SerialHandle:
    """In-flight state of one :meth:`SerialExecutor.submit` batch."""

    def __init__(self, groups, decoder):
        self.groups = groups
        self.decoder = decoder
        self.next_group = 0
        self.cancelled: set = set()


class ProcessExecutor:
    """Parallel execution over a process pool (the ``jobs>1`` path).

    The pool starts at the first submit and lives until :meth:`close`.
    Tasks carry their trace as a columnar blob, so workers need no
    state from the parent and start the same way under fork or spawn.
    Fork is still used where the platform has it: forked workers
    inherit whatever the parent has patched in, such as a profiler's
    wrappers.
    """

    name = "process"
    persists = False

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("ProcessExecutor needs jobs >= 2; use SerialExecutor")
        self.jobs = jobs
        self._pool = None

    def pass_sizes(self, n: int) -> list:
        """Configs per shared pass for an ``n``-config group.

        The group is split into ``min(jobs, n)`` near-equal chunks, one
        pool task each; a chunk's configs share that task's pass.
        """
        chunks = min(self.jobs, n)
        base, extra = divmod(n, chunks)
        return [base + (1 if i < extra else 0) for i in range(chunks)]

    run = _run_groups

    def submit(self, groups, decoder) -> list:
        """Fan chunks over the pool; results stream back via :meth:`poll`.

        Every chunk of a group carries the group's trace key and its
        columnar blob for ``decoder``. The handle is a list of
        ``[future, gi, [ci...], done]`` entries.
        """
        check_decoder_portable(decoder)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods()
                    else None))
        entries = []
        for gi, (configs, key, trace) in enumerate(groups):
            configs = list(configs)
            blob = trace.columns_with(decoder).to_blob()
            start = 0
            for size in self.pass_sizes(len(configs)):
                chunk = configs[start:start + size]
                slots = list(range(start, start + size))
                start += size
                payload = (chunk, key, blob, type(decoder))
                entries.append([self._pool.submit(_simulate_chunk, payload),
                                gi, slots, False])
        return entries

    def poll(self, handle) -> dict:
        """Slots of every future finished since the previous poll.

        While futures are outstanding and none has finished, waits for
        the first to finish, so such a poll always delivers.
        """
        waiting = [future for future, _gi, _slots, done in handle if not done]
        if waiting:
            wait(waiting, return_when=FIRST_COMPLETED)
        out: dict = {}
        for entry in handle:
            future, gi, slots, done = entry
            if done or not future.done():
                continue
            entry[3] = True
            if future.cancelled():
                continue
            for ci, stats in zip(slots, future.result()):
                out[(gi, ci)] = stats
        return out

    def cancel(self, handle, slots) -> None:
        """Cancel futures whose slots are all withdrawn (best-effort).

        A future already running cannot be cancelled; its results are
        delivered and the caller ignores them.
        """
        drop = set(slots)
        for entry in handle:
            future, gi, chunk_slots, done = entry
            if done:
                continue
            if all((gi, ci) in drop for ci in chunk_slots):
                if future.cancel():
                    entry[3] = True

    def close(self) -> None:
        """Shut the pool down; a later submit starts a new one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # best-effort; engines call close() explicitly
        try:
            self.close()
        except Exception:
            pass


class FabricExecutor:
    """Distributed execution over the fabric's durable job queue.

    ``submit`` turns a batch into content-keyed tasks and enqueues all
    of them in one queue call. The engine has already answered every
    key its cache or the store holds, and the queue's enqueue is
    insert-or-revive: keys already queued, leased or done (by another
    driver, or an overlapping speculative batch of this one) are left
    alone, and dead-lettered keys get a fresh claim budget, since a
    resubmission is fresh intent. ``poll`` reads back, from the store,
    the stats of every key the queue reports ``done``. Concurrency
    lives entirely outside this process: throughput is however many
    ``repro worker`` processes share the store file. So this is the
    one executor whose polls come back empty mid-batch, and the only
    one :func:`drain` paces: ``poll`` itself never sleeps.

    Parameters
    ----------
    store:
        The engine's :class:`~repro.store.resultstore.ResultStore`;
        SQLite-backed (the queue shares its file) or HTTP-backed (the
        queue speaks the same experiment service, see
        :mod:`repro.service`).
    poll:
        Seconds of the first nap after an empty poll
        (``poll_interval``); naps then stretch up to ``poll_cap``.
    timeout:
        Optional cap on the seconds one batch may wait before a
        ``TimeoutError`` (``None`` waits indefinitely — matching a
        durable queue whose workers may come and go).
    queue:
        Optional pre-built :class:`~repro.fabric.api.TaskQueue`
        (testing); by default one is opened on the store's address.
    """

    name = "fabric"
    #: Driver-side parallelism is meaningless here; workers decide.
    jobs = 1
    #: Results land in the store on the worker side; the engine must
    #: not write them back a second time.
    persists = True

    def __init__(self, store, poll: float = 0.05, timeout: float = None,
                 queue=None) -> None:
        if queue is None:
            backend = getattr(store, "backend", None)
            if getattr(backend, "kind", None) not in ("sqlite", "http"):
                raise ValueError(
                    "the fabric executor needs a SQLite-backed store "
                    "(EvaluationEngine(store=...) with a file path) or an "
                    "experiment-service URL — the job queue lives with the "
                    "results workers share"
                )
            from repro.fabric.queue import open_queue

            queue = open_queue(backend.path, token=backend.token)
        self.queue = queue
        self.store = store
        self.poll_interval = float(poll)
        #: Ceiling for the adaptive poll pacing of :func:`drain`:
        #: consecutive empty polls stretch the nap from
        #: ``poll_interval`` up to here (:class:`~repro.pacing.Pacer`),
        #: so an idle driver stops hammering the queue/server; any
        #: delivered result resets the pace to ``poll_interval``.
        self.poll_cap = max(self.poll_interval, 1.0)
        self.timeout = timeout

    @staticmethod
    def pass_sizes(n: int) -> list:
        """Configs per shared pass: one each, every task runs alone."""
        return [1] * n

    run = _run_groups

    def submit(self, groups, decoder):
        """Plan a batch and enqueue every planned key in one queue call."""
        from repro.fabric.scheduler import plan_groups

        check_decoder_portable(decoder)
        groups = [(list(configs), tkey, trace) for configs, tkey, trace in groups]
        plan = plan_groups(groups, decoder)
        self.queue.enqueue(plan.tasks, submitted_by="engine")
        # plan_groups flattens groups in order, so its per-item keys
        # line up with the (group, config) slots.
        slots = [(gi, ci) for gi, (configs, _tkey, _trace) in enumerate(groups)
                 for ci in range(len(configs))]
        return _FabricHandle(
            slot_key=dict(zip(slots, plan.item_keys)),
            outstanding=set(plan.keys),
            deadline=(None if self.timeout is None
                      else time.monotonic() + self.timeout),
        )

    def poll(self, handle) -> dict:
        """One queue-state pass; never sleeps (:func:`drain` paces polls).

        Result read-backs are batched through ``get_sims`` — one store
        query (one HTTP request on the wire transport) per poll however
        many keys finished, instead of one per key.
        """
        if handle.outstanding:
            states = self.queue.states(handle.outstanding)
            finished = [key for key in handle.outstanding
                        if states.get(key) == "done"]
            fetched = self.store.get_sims(finished) if finished else {}
            for key in finished:
                stats = fetched.get(key)
                if stats is None:
                    raise RuntimeError(
                        f"fabric task {key!r} is marked done but its result "
                        "is missing from the store; the queue and store "
                        "files have diverged"
                    )
                handle.results[key] = stats
                handle.outstanding.discard(key)
            dead = [key for key in handle.outstanding
                    if states.get(key) == "dead"]
            if dead:
                details = "; ".join(
                    f"{key}: {self.queue.errors(key)}" for key in dead[:3]
                )
                raise RuntimeError(
                    f"{len(dead)} fabric task(s) dead-lettered after retries "
                    f"— {details}"
                )
            if handle.outstanding and handle.deadline is not None \
                    and time.monotonic() > handle.deadline:
                counts = self.queue.counts()
                raise TimeoutError(
                    f"fabric batch incomplete after {self.timeout:.0f}s "
                    f"({len(handle.outstanding)} tasks outstanding, "
                    f"queue={counts}); are any `repro worker` processes "
                    "running against this store?"
                )

        out: dict = {}
        for slot, key in handle.slot_key.items():
            if slot not in handle.delivered and key in handle.results:
                out[slot] = handle.results[key]
                handle.delivered.add(slot)
        return out

    def cancel(self, handle, slots) -> None:
        """Retract unclaimed queue rows for fully-withdrawn keys.

        Only keys none of whose remaining slots are wanted are
        cancelled; the queue deletes rows still ``queued``, and a later
        submit that wants such a key enqueues it again. Leased/done
        keys simply complete into the store (content-addressed, so
        never wasted twice).
        """
        drop = set(slots)
        wanted: set = set()
        for slot, key in handle.slot_key.items():
            if slot not in drop and slot not in handle.delivered:
                wanted.add(key)
        targets = sorted({handle.slot_key[slot] for slot in drop
                          if slot in handle.slot_key}
                         - wanted - set(handle.results))
        handle.delivered.update(drop)
        if not targets:
            return
        self.queue.cancel(targets)
        # Stop watching the keys either way: a still-leased task
        # finishes into the store on its own (or dies unobserved — its
        # row is revived by the enqueue of any batch that wants it).
        handle.outstanding.difference_update(targets)

    def close(self) -> None:
        """Close the queue connection (the store belongs to the engine)."""
        self.queue.close()


class _FabricHandle:
    """In-flight state of one :meth:`FabricExecutor.submit` batch."""

    def __init__(self, slot_key, outstanding, deadline):
        self.slot_key = slot_key      # (gi, ci) -> content key
        self.outstanding = outstanding  # keys awaited from the queue
        self.deadline = deadline
        self.results: dict = {}       # key -> stats
        self.delivered: set = set()   # slots already returned/cancelled


def make_executor(jobs: int = 1, kind: str = None, store=None):
    """Executor factory: ``kind`` overrides the jobs-derived default."""
    if kind is None:
        kind = "serial" if jobs <= 1 else "process"
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessExecutor(jobs)  # raises for jobs < 2
    if kind == "fabric":
        return FabricExecutor(store)  # raises without a sqlite/http store
    raise ValueError(
        f"unknown executor kind {kind!r}; use 'serial', 'process' or 'fabric'"
    )
