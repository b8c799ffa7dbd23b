"""The Firefly RK3399 board substitute.

One board object exposes two measurable cores — the in-order little
cluster ("a53") and the out-of-order big cluster ("a72"). Traces are
recorded by :func:`repro.frontend.interpreter.trace_program` (the
on-board DynamoRIO step); they are micro-architecture independent, so
one recording serves both clusters.

Measurements are produced by running the ground-truth configuration of
the requested core, with the hardware-only effects attached, and then
perturbing the cycle count with deterministic per-workload measurement
noise. Results are cached per workload name: like the paper's flow, each
micro-benchmark is measured on hardware once and reused for every tuning
trial.
"""

from __future__ import annotations

import math
import random
import zlib

from repro.core.config import SimConfig
from repro.hardware.effects import HardwareEffects, HardwareEffectsConfig
from repro.hardware.groundtruth import (
    cortex_a53_effects,
    cortex_a53_ground_truth,
    cortex_a72_effects,
    cortex_a72_ground_truth,
)
from repro.hardware.perf import PerfResult
from repro.simulator.simulator import SnipeSim
from repro.trace.record import Trace


class HardwareCore:
    """One measurable core cluster of the board."""

    def __init__(
        self,
        name: str,
        truth: SimConfig,
        effects_config: HardwareEffectsConfig,
        noise_sigma: float = 0.01,
    ) -> None:
        self.name = name
        self.frequency_ghz = truth.frequency_ghz
        self.noise_sigma = noise_sigma
        self._truth = truth
        self._effects_config = effects_config
        self._cache: dict = {}

    # ------------------------------------------------------------------
    def measure(self, trace: Trace) -> PerfResult:
        """Run ``trace`` "on the silicon" and read the perf counters.

        Deterministic: the same workload name always yields the same
        measurement (results are cached, and the noise seed derives from
        the workload name), matching the measure-once workflow.
        """
        cached = self._cache.get(trace.name)
        if cached is not None:
            return cached

        effects = HardwareEffects(self._effects_config)
        sim = SnipeSim(self._truth, effects=effects)
        stats = sim.run(trace)

        noisy_cycles = self._noise_cycles(trace.name, stats.cycles)
        counters = {
            "cycles": noisy_cycles,
            "instructions": stats.instructions,
            "branches": stats.branch.branches,
            "branch-misses": stats.branch.mispredicts,
            "L1-dcache-loads": stats.l1d.accesses,
            "L1-dcache-load-misses": stats.l1d.misses,
            "L1-icache-load-misses": stats.l1i.misses,
            "l2-accesses": stats.l2.accesses,
            "l2-misses": stats.l2.misses,
        }
        result = PerfResult(workload=trace.name, core=self.name, counters=counters)
        self._cache[trace.name] = result
        return result

    def _noise_cycles(self, workload: str, cycles: int) -> int:
        if self.noise_sigma <= 0:
            return cycles
        seed = zlib.crc32(f"{self.name}:{workload}:perf".encode("utf-8"))
        rng = random.Random(seed)
        factor = math.exp(rng.gauss(0.0, self.noise_sigma))
        return max(1, round(cycles * factor))


class FireflyRK3399:
    """The validation board: one big and one little cluster."""

    def __init__(self, noise_sigma: float = 0.01) -> None:
        self.a53 = HardwareCore(
            "cortex-a53", cortex_a53_ground_truth(), cortex_a53_effects(), noise_sigma
        )
        self.a72 = HardwareCore(
            "cortex-a72", cortex_a72_ground_truth(), cortex_a72_effects(), noise_sigma
        )

    def core(self, name: str) -> HardwareCore:
        """Look up a cluster by name ("a53"/"cortex-a53"/"a72"/...)."""
        key = name.lower().replace("cortex-", "")
        if key == "a53":
            return self.a53
        if key == "a72":
            return self.a72
        raise ValueError(f"unknown core {name!r}; the board has 'a53' and 'a72'")
