"""What both core timing models share: construction and the stats record.

A core owns a memory hierarchy, a contention model and a branch unit,
all built from one :class:`~repro.core.config.SimConfig`; its
``run_stream`` kernel replays a flattened issue stream through them and
hands the final cycle count to :meth:`CoreModel._stats`. Only the
kernels differ between :class:`~repro.core.inorder.InOrderCore` and
:class:`~repro.core.ooo.OutOfOrderCore`.
"""

from __future__ import annotations

from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchUnit, build_direction_predictor, build_indirect_predictor
from repro.core.config import SimConfig
from repro.core.contention import ContentionModel
from repro.core.stats import SimStats
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.record import Trace


class CoreModel:
    """Base of the core timing models; subclasses add ``run_stream``."""

    #: The ``SimConfig.core_type`` this model simulates.
    core_type = "abstract"

    def __init__(self, config: SimConfig, effects=None) -> None:
        if config.core_type != self.core_type:
            raise ValueError(
                f"{type(self).__name__} requires core_type="
                f"{self.core_type!r}, got {config.core_type!r}"
            )
        self.config = config
        self.effects = effects
        self.hierarchy = MemoryHierarchy(config, effects=effects)
        self.contention = ContentionModel(config.execute)
        b = config.branch
        self.branch_unit = BranchUnit(
            direction=build_direction_predictor(b.predictor, b.predictor_bits),
            btb=BranchTargetBuffer(entries=b.btb_entries, assoc=b.btb_assoc),
            ras=ReturnAddressStack(entries=b.ras_entries),
            indirect=build_indirect_predictor(
                b.indirect, b.indirect_entries, b.indirect_history_bits
            ),
        )

    def _stats(self, trace: Trace, cycles: int) -> SimStats:
        hierarchy = self.hierarchy
        return SimStats(
            config_name=self.config.name,
            workload=trace.name,
            instructions=len(trace),
            cycles=cycles,
            branch=self.branch_unit.stats,
            l1i=hierarchy.l1i.stats,
            l1d=hierarchy.l1d.stats,
            l2=hierarchy.l2.stats,
            store_buffer_full_stalls=hierarchy.store_buffer.full_stalls,
            store_forwards=hierarchy.store_buffer.forwards,
            dram_accesses=hierarchy.dram.accesses,
        )
