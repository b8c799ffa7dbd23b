"""The three workloads: one round each of set-up, timed work and checks.

A round is one closed loop from the benchmark process. Every round sets
up from scratch (fresh board, traces re-recorded, fresh store, service
and worker processes), so ``setup_s`` can be sampled once per round.
Between ``run`` calls the caller reads the clock; everything in
``finish`` — stopping workers, the held-out evaluation and the
correctness checks — is outside the timed window.

Why these three (also recorded in ``BENCHMARK.json``):

- ``campaign-local`` is the paper's workflow on one machine: the
  simulator kernels of both cores, engine caching, tuning and the
  lmbench step, with no fabric, service or store in the path.
- ``campaign-fleet`` runs the same a53 campaign and seed through the
  fabric on a shared SQLite store with async racing, so its difference
  from ``campaign-local`` is what the race scheduler, worker pipeline,
  leases and queue add or save.
- ``sweep-http`` submits one large grid through the HTTP service, where
  per-task dispatch dominates and the kernel is small.
"""

from __future__ import annotations

import hashlib
import os
import random
import secrets
import tempfile
import time
from dataclasses import dataclass, field

from repro.core.config import cortex_a53_public_config
from repro.engine import EvaluationEngine
from repro.engine.executors import FabricExecutor
from repro.engine.tracestore import TraceStore
from repro.fabric.queue import JobQueue
from repro.hardware.board import FireflyRK3399
from repro.isa.decoder import Decoder
from repro.service.server import ExperimentService
from repro.simulator import simulate
from repro.store import open_store
from repro.store.serialize import stats_to_payload
from repro.tuning.cost import cpi_error
from repro.tuning.sampling import ConfigSampler
from repro.validation.campaign import BudgetProfile, ValidationCampaign
from repro.validation.steps import param_space_for
from repro.workloads.microbench import ALL_MICROBENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS

from fleet import Fleet

#: Step-5 fixes the campaign applies to the suite; a long-lived fleet has
#: their traces in its per-host cache too.
FIXED_KERNELS = {"MM": {"initialized": True}, "M_Dyn": {"initialized": True}}


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    profile: object          # campaign budget profile (name or BudgetProfile)
    suite: tuple             # micro-benchmarks the campaigns tune on
    sweep_configs: int       # configurations in the sweep grid
    sweep_scale: float       # trace scale of the sweep
    check_samples: int       # sweep results re-simulated in-process


FULL = Size("fast", tuple(ALL_MICROBENCHMARKS), 16, 0.25, 16)
TINY = Size(BudgetProfile("tiny", 40, 40, first_test=3, n_elites=2),
            tuple(ALL_MICROBENCHMARKS[::4]), 3, 0.1, 6)


@dataclass
class RoundResult:
    """What one round measured and checked."""

    trials: int = 0
    latencies_ms: list = field(default_factory=list)
    tuned: dict = field(default_factory=dict)     # core -> mean CPI error
    heldout: dict = field(default_factory=dict)   # core -> mean CPI error
    outputs: object = None                         # compared traced vs untraced
    checks: int = 0
    mismatches: list = field(default_factory=list)
    failed_ops: int = 0
    counts: dict = field(default_factory=dict)     # inputs of the layer metrics


def reset_trace_memos() -> None:
    """Drop every recorded trace, so a round records its own (as a new
    process would) and its set-up time includes recording."""
    for workload in (*ALL_MICROBENCHMARKS, *SPEC_BENCHMARKS):
        workload._trace_cache.clear()


#: Trace scale of the held-out SPEC proxies (a quarter keeps the
#: evaluation well under a second per core).
HELDOUT_SCALE = 0.25


def heldout_error(board, core: str, config, decoder) -> float:
    """Mean CPI error of ``config`` on the SPEC proxies (never tuned on)."""
    with EvaluationEngine(hw=board.core(core), workloads=SPEC_BENCHMARKS,
                          scale=HELDOUT_SCALE, decoder=decoder) as engine:
        errors = engine.evaluate_batch([(config, wl.name) for wl in SPEC_BENCHMARKS])
    return sum(errors) / len(errors)


def reevaluate(board, campaign, config) -> dict:
    """The campaign's suite errors for ``config``, recomputed serially."""
    with EvaluationEngine(hw=board.core(campaign.core_name),
                          workloads=campaign.workloads,
                          decoder=campaign.decoder,
                          overrides=dict(campaign.workload_overrides)) as engine:
        names = [wl.name for wl in campaign.workloads]
        return dict(zip(names, engine.evaluate_batch([(config, n) for n in names])))


def fill_trace_cache(cache_dir: str, suite, scale: float, fixes: dict) -> None:
    """Record and persist columnar traces where fleet workers attach them."""
    traces = TraceStore(suite, scale=scale, cache_dir=cache_dir)
    decoder = Decoder()
    for wl in suite:
        traces.columns(wl.name, decoder)
        if wl.name in fixes:
            traces.columns(wl.name, decoder, fixes[wl.name])


def engine_counts(*engines) -> dict:
    """EngineTelemetry fields summed over ``engines``."""
    total: dict = {}
    for engine in engines:
        for name, value in vars(engine.telemetry).items():
            total[name] = total.get(name, 0) + value
    return total


def _compare(label: str, got, want, result: RoundResult) -> None:
    result.checks += 1
    if got != want:
        result.mismatches.append(label)


class CampaignLocal:
    """Fast-profile 2-stage campaigns on a53 then a72, process executor
    at ``jobs = nproc``, synchronous racing (the CLI defaults)."""

    name = "campaign-local"
    cores = ("a53", "a72")

    def __init__(self, bench) -> None:
        self.bench = bench

    def setup(self, seed: int, round_dir: str) -> None:
        reset_trace_memos()
        size = self.bench.size
        self.board = FireflyRK3399()
        self.campaigns = [
            ValidationCampaign(self.board, core=core, profile=size.profile,
                               seed=seed, jobs=self.bench.nproc,
                               workloads=size.suite)
            for core in self.cores
        ]
        for campaign in self.campaigns:
            for wl in campaign.workloads:
                campaign.engine.trace(wl.name)

    def run(self) -> None:
        self.results = [campaign.run(stages=2) for campaign in self.campaigns]

    def finish(self, result: RoundResult) -> None:
        for campaign in self.campaigns:
            campaign.close()
        outputs = {}
        for core, campaign, res in zip(self.cores, self.campaigns, self.results):
            result.tuned[core] = res.tuned_mean_error
            result.heldout[core] = heldout_error(self.board, core, res.final_config,
                                                 campaign.decoder)
            outputs[core] = res.final_errors
            _compare(f"{core}: serial re-evaluation of the tuned config",
                     reevaluate(self.board, campaign, res.final_config),
                     res.final_errors, result)
        result.outputs = outputs
        result.counts["engine"] = engine_counts(*(c.engine for c in self.campaigns))

    def abort(self) -> None:
        for campaign in getattr(self, "campaigns", ()):
            campaign.close()


class CampaignFleet:
    """The a53 campaign of ``campaign-local``, same seed, through the
    fabric executor on a shared SQLite store drained by ``nproc`` worker
    processes, with async racing."""

    name = "campaign-fleet"

    def __init__(self, bench) -> None:
        self.bench = bench
        self.fleet = None
        self.first_round = True

    def setup(self, seed: int, round_dir: str) -> None:
        reset_trace_memos()
        bench, size = self.bench, self.bench.size
        self.seed = seed
        path = os.path.join(round_dir, "fleet.sqlite")
        self.store = open_store(path)
        self.queue = JobQueue(path)
        self.fleet = Fleet(path, bench.nproc, env=bench.worker_env(),
                           log_dir=round_dir, tag=os.path.basename(round_dir),
                           trace_dir=bench.trace_dir)
        self.fleet.start()
        # Workers keep their per-host trace cache next to the store file.
        fill_trace_cache(path + ".traces", size.suite, 1.0, FIXED_KERNELS)
        self.board = FireflyRK3399()
        self.campaign = ValidationCampaign(
            self.board, core="a53", profile=size.profile, seed=seed,
            executor="fabric", store=self.store, race_mode="async",
            workloads=size.suite)
        for wl in self.campaign.workloads:
            self.campaign.engine.trace(wl.name)
        self.fleet.wait_registered(self.queue)

    def run(self) -> None:
        self.result = self.campaign.run(stages=2)

    def finish(self, result: RoundResult) -> None:
        self.campaign.close()
        self.fleet.stop()
        res = self.result
        result.tuned["a53"] = res.tuned_mean_error
        result.heldout["a53"] = heldout_error(self.board, "a53", res.final_config,
                                              self.campaign.decoder)
        result.outputs = {"a53": res.final_errors}
        retried, dead = self.queue.retries(), len(self.queue.dead())
        result.failed_ops += retried + dead + self.fleet.failures
        result.counts.update(engine=engine_counts(self.campaign.engine),
                             retried=retried, dead=dead)
        self.queue.close()
        self.store.close()
        _compare("a53: serial re-evaluation of the tuned config",
                 reevaluate(self.board, self.campaign, res.final_config),
                 res.final_errors, result)
        if not self.first_round:
            return
        # The byte-identity invariant, once per run: the same campaign on
        # one machine (campaign-local's a53 path) reaches identical
        # per-workload errors.
        self.first_round = False
        size = self.bench.size
        reference = ValidationCampaign(
            FireflyRK3399(), core="a53", profile=size.profile, seed=self.seed,
            jobs=self.bench.nproc, workloads=size.suite)
        try:
            expected = reference.run(stages=2).final_errors
        finally:
            reference.close()
        _compare("a53: fleet errors equal the local campaign's",
                 res.final_errors, expected, result)

    def abort(self) -> None:
        if self.fleet is not None:
            self.fleet.stop(timeout=10.0)


class SweepHttp:
    """One grid — every suite kernel x configurations sampled from the
    seed, small trace scale — submitted at once through the engine and
    the fabric executor to an in-process experiment service, drained by
    ``nproc - 1`` worker processes (the service is the other busy one).
    Half the grid is in the store before timing starts; latency is taken
    over the other half, the results the fleet computes. As a brute-force
    tuner, its tuned error is the best grid configuration's mean CPI
    error on the a53, and its held-out error that configuration's on
    the SPEC proxies."""

    name = "sweep-http"

    def __init__(self, bench) -> None:
        self.bench = bench
        self.fleet = None
        self.service = None

    def _grid(self, seed: int) -> list:
        size = self.bench.size
        base = cortex_a53_public_config()
        sampler = ConfigSampler(param_space_for(base.core_type, stage=1), seed=seed)
        configs = [base.with_updates(sampler.sample_config())
                   for _ in range(size.sweep_configs)]
        return configs, [(config, wl.name) for config in configs for wl in size.suite]

    def setup(self, seed: int, round_dir: str) -> None:
        reset_trace_memos()
        bench, size = self.bench, self.bench.size
        self.seed = seed
        path = os.path.join(round_dir, "sweep.sqlite")
        token = secrets.token_hex(16)
        self.service = ExperimentService(path, token=token).start()
        url = self.service.url
        self.fleet = Fleet(url, max(1, bench.nproc - 1),
                           env=bench.worker_env(REPRO_TOKEN=token),
                           log_dir=round_dir, tag=os.path.basename(round_dir),
                           trace_dir=bench.trace_dir)
        self.fleet.start()
        # URL-mode workers keep their trace cache under the temp dir,
        # keyed by the service URL (FabricWorker's per-host cache rule).
        digest = hashlib.sha1(url.encode("utf-8")).hexdigest()[:12]
        fill_trace_cache(os.path.join(tempfile.gettempdir(), f"repro-traces-{digest}"),
                         size.suite, size.sweep_scale, {})

        self.configs, self.pairs = self._grid(seed)
        rng = random.Random(seed)
        half = sorted(rng.sample(range(len(self.pairs)), len(self.pairs) // 2))
        with EvaluationEngine(workloads=size.suite, scale=size.sweep_scale) as local:
            keys = [local.result_key(*pair) for pair in self.pairs]
            stats = local.simulate_batch([self.pairs[i] for i in half])
        stored = {keys[i] for i in half}
        with open_store(path) as direct:
            direct.put_sim_many([(keys[i], s) for i, s in zip(half, stats)])
        # Latency is sampled on the results the fleet computes: the stored
        # half all arrive with the first poll, and with exactly half of
        # the grid in that group the median would sit on its edge.
        self.computed = [key not in stored for key in keys]
        self.tasks = len(set(keys) - stored)
        self.check_at = sorted(rng.sample(range(len(self.pairs)), size.check_samples))

        self.store = open_store(url, token=token)
        self.executor = FabricExecutor(self.store)
        self.engine = EvaluationEngine(workloads=size.suite, scale=size.sweep_scale,
                                       executor=self.executor, store=self.store)
        for wl in size.suite:
            self.engine.trace(wl.name)
        self.fleet.wait_registered(self.service.queue)

    def run(self) -> None:
        start = time.perf_counter()
        ticket = self.engine.submit_batch(self.pairs)
        self.stats, self.latencies = {}, []
        pace = self.executor.poll_interval
        while len(self.stats) < len(self.pairs):
            got = self.engine.poll_batch(ticket)
            now = time.perf_counter()
            for idx, stats in got.items():
                self.stats[idx] = stats
                if self.computed[idx]:
                    self.latencies.append((now - start) * 1e3)
            # Paced like FabricExecutor.run: each poll asks the service
            # about every outstanding key, so empty polls back off.
            if got:
                pace = self.executor.poll_interval
            else:
                time.sleep(pace)
                pace = min(pace * 2, self.executor.poll_cap)

    def finish(self, result: RoundResult) -> None:
        self.fleet.stop()
        result.trials = len(self.pairs)
        result.latencies_ms = self.latencies
        wire = self.fleet.wire_totals()
        for client in (self.store.backend.client, self.executor.queue.client):
            for name, value in client.telemetry().items():
                wire[name] = wire.get(name, 0) + value
        queue = self.service.queue
        retried, dead = queue.retries(), len(queue.dead())
        result.failed_ops += (retried + dead + self.fleet.failures
                              + wire.get("wire_retries", 0))
        result.counts.update(engine=engine_counts(self.engine), retried=retried,
                             dead=dead, wire=wire, tasks=self.tasks)
        result.outputs = [stats_to_payload(self.stats[i]) for i in range(len(self.pairs))]
        self.engine.close()
        self.store.close()
        self.service.stop()
        self.service.close()
        self.service = None

        size = self.bench.size
        board = FireflyRK3399()
        with EvaluationEngine(hw=board.core("a53"), workloads=size.suite,
                              scale=size.sweep_scale) as reference:
            errors = [cpi_error(self.stats[i], reference.measure_hw(name))
                      for i, (_config, name) in enumerate(self.pairs)]
        n = len(size.suite)
        means = [sum(errors[k:k + n]) / n for k in range(0, len(errors), n)]
        best = min(range(len(means)), key=means.__getitem__)
        result.tuned["a53"] = means[best]
        result.heldout["a53"] = heldout_error(board, "a53", self.configs[best], Decoder())
        decoder = Decoder()
        for i in self.check_at:
            config, name = self.pairs[i]
            wl = next(w for w in self.bench.size.suite if w.name == name)
            want = simulate(config, wl.trace(scale=self.bench.size.sweep_scale), decoder)
            _compare(f"sweep result {i} ({name}) equals in-process simulate",
                     stats_to_payload(self.stats[i]), stats_to_payload(want), result)

    def abort(self) -> None:
        if self.fleet is not None:
            self.fleet.stop(timeout=10.0)
        if self.service is not None:
            self.service.stop()
            self.service.close()


WORKLOADS = {cls.name: cls for cls in (CampaignLocal, CampaignFleet, SweepHttp)}
