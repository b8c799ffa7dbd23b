"""Out-of-order core timing model (Cortex-A72-like).

A timestamp ROB model in the interval-simulation spirit: each dynamic
instruction gets fetch, dispatch, issue, complete and retire timestamps
computed in one program-order pass. Out-of-order overlap comes from the
fact that issue waits only on *data* dependences, unit contention and
window occupancy — not on the issue times of earlier instructions —
while the ROB, issue-queue, load/store-queue and commit-width constraints
bound how far the core can run ahead. Memory-level parallelism emerges
naturally: independent loads issue at overlapping times and the L1D MSHR
file bounds how many misses proceed concurrently.
"""

from __future__ import annotations

from repro.branch.unit import REDIRECT_BTB, REDIRECT_MISPREDICT
from repro.core.base import CoreModel
from repro.core.stats import SimStats
from repro.isa.registers import TOTAL_REG_COUNT, ZERO_REG
from repro.trace.record import Trace


class OutOfOrderCore(CoreModel):
    """ROB-based out-of-order pipeline model."""

    core_type = "ooo"

    def run_stream(self, trace: Trace, stream: list) -> SimStats:
        """Replay the flattened ``stream`` of ``trace`` and account cycles."""
        cfg = self.config
        pipeline = cfg.pipeline
        fetch_width = pipeline.fetch_width
        commit_width = pipeline.commit_width
        frontend_depth = pipeline.frontend_depth
        rob_size = pipeline.rob_size
        iq_size = pipeline.iq_size
        ldq_entries = pipeline.ldq_entries
        stq_entries = pipeline.stq_entries
        mispredict_penalty = cfg.branch.mispredict_penalty
        btb_miss_penalty = cfg.branch.btb_miss_penalty
        agu_latency = cfg.execute.agu_latency

        hierarchy = self.hierarchy
        load = hierarchy.load
        store = hierarchy.store
        ifetch_line = hierarchy.ifetch_line
        line_size = hierarchy.line_size
        l1i_hit = hierarchy.l1i.hit_latency + (1 if hierarchy.l1i.serial_tag_data else 0)
        # Contention dispatch inlined below (see ContentionModel._fast):
        # entries are (next-free list | None, latency, occupancy, units).
        contention_fast = self.contention._fast
        branch_access = self.branch_unit.access
        effects = self.effects
        branch_extra = effects.branch_extra if effects is not None else None

        reg_ready = [0] * (TOTAL_REG_COUNT + 1)

        # Ring buffers for window constraints.
        retire_ring = [0] * rob_size
        issue_ring = [0] * iq_size
        ld_ring = [0] * ldq_entries
        st_ring = [0] * stq_entries
        # Wrapping ring cursors (avoid a modulo per instruction).
        rob_slot = -1
        iq_slot = -1
        ld_slot = 0
        st_slot = 0

        fetch_cycle = 0
        fetch_slots = 0
        frontend_ready = 0
        retire_cycle = 0
        retire_slots = 0
        prev_retire = 0
        current_line = -1

        for opclass, kind, dst, src1, src2, pc, addr, taken, target in stream:
            # ---------------------------------------------- fetch
            f = fetch_cycle
            if frontend_ready > f:
                f = frontend_ready
            pc_line = pc // line_size
            if pc_line != current_line:
                done = ifetch_line(pc_line, f, False, False, pc)
                extra = done - f - l1i_hit
                if extra > 0:
                    f += extra
                    frontend_ready = f
                current_line = pc_line
            if f == fetch_cycle:
                fetch_slots += 1
                if fetch_slots >= fetch_width:
                    fetch_cycle += 1
                    fetch_slots = 0
            else:
                fetch_cycle = f
                fetch_slots = 1

            # ---------------------------------------------- dispatch
            d = f + frontend_depth
            rob_slot += 1
            if rob_slot == rob_size:
                rob_slot = 0
            ring_free = retire_ring[rob_slot]
            if ring_free > d:  # ROB full: wait for head retire
                d = ring_free
            iq_slot += 1
            if iq_slot == iq_size:
                iq_slot = 0
            ring_free = issue_ring[iq_slot]
            if ring_free > d:  # IQ full: wait for an issue
                d = ring_free
            if kind & 3:  # KF_LOAD | KF_STORE
                ring_free = ld_ring[ld_slot] if kind & 1 else st_ring[st_slot]
                if ring_free > d:
                    d = ring_free

            # ---------------------------------------------- issue
            t = d
            # NO_REG (-1) aliases the always-zero pad slot, so source
            # reads need no bounds check.
            rr = reg_ready[src1]
            if rr > t:
                t = rr
            rr = reg_ready[src2]
            if rr > t:
                t = rr
            # Inlined ContentionModel.probe: wait for a free unit.
            cfree, latency, occupancy, nunits = contention_fast[opclass]
            if cfree is not None:
                # bi = the least-loaded unit, reused by the commit
                # below (no pool changes between probe and commit).
                if nunits == 1:
                    bi = 0
                    best = cfree[0]
                elif nunits == 2:
                    b = cfree[1]
                    best = cfree[0]
                    if b < best:
                        best = b
                        bi = 1
                    else:
                        bi = 0
                else:
                    best = min(cfree)
                if best > t:
                    t = best
            issue_ring[iq_slot] = t

            # ---------------------------------------------- execute
            # Inlined ContentionModel.commit: book the least-loaded
            # unit up front (a NOP's pool is None, so it books nothing;
            # pools are independent of the memory system, so booking
            # before the per-kind work matches the original per-branch
            # commit calls). Each arm then sets its completion time.
            if cfree is not None:
                if nunits <= 2:
                    cfree[bi] = t + occupancy
                else:
                    best = 0
                    best_free = cfree[0]
                    for u in range(1, nunits):
                        if cfree[u] < best_free:
                            best_free = cfree[u]
                            best = u
                    cfree[best] = t + occupancy

            if not kind & 15:  # plain register op (incl. MUL/FP classes)
                done = t + latency
                if dst >= 0 and dst != ZERO_REG:
                    reg_ready[dst] = done
            elif kind & 8:  # KF_NOP
                done = t
            elif kind & 4:  # KF_BRANCH
                done = t + latency
                redirect = branch_access(opclass, pc, taken, target)
                if redirect == REDIRECT_MISPREDICT:
                    # Wrong-path flush: fetch restarts after resolution.
                    restart = done + mispredict_penalty
                    if restart > frontend_ready:
                        frontend_ready = restart
                    current_line = -1
                elif redirect == REDIRECT_BTB:
                    restart = f + btb_miss_penalty
                    if restart > frontend_ready:
                        frontend_ready = restart
                    current_line = -1
                elif taken:
                    current_line = -1
                    if branch_extra is not None:
                        bubble = f + branch_extra()
                        if bubble > frontend_ready:
                            frontend_ready = bubble
            else:  # KF_LOAD / KF_STORE share the LS pipes
                if kind & 1:  # KF_LOAD
                    done = load(addr, pc, t + agu_latency)
                    if dst >= 0 and dst != ZERO_REG:
                        reg_ready[dst] = done
                        if kind & 64 and dst + 1 < TOTAL_REG_COUNT:  # KF_PAIR
                            reg_ready[dst + 1] = done + 1
                    ld_ring[ld_slot] = done
                    ld_slot += 1
                    if ld_slot == ldq_entries:
                        ld_slot = 0
                else:  # KF_STORE
                    # The store's data leaves the STQ when it drains to
                    # the store buffer at retire; the slot frees then.
                    done = t + agu_latency

            # ---------------------------------------------- retire
            # In-order retirement, commit_width slots per cycle.
            # prev_retire >= retire_cycle is a loop invariant, so
            # r >= retire_cycle always holds here.
            r = done if done > prev_retire else prev_retire
            if r == retire_cycle and retire_slots >= commit_width:
                r += 1
            if r > retire_cycle:
                retire_cycle = r
                retire_slots = 0
            retire_slots += 1
            prev_retire = r
            retire_ring[rob_slot] = r

            if kind & 2:  # KF_STORE
                # Stores write the memory system post-retire.
                drained = store(addr, pc, r)
                st_ring[st_slot] = drained
                st_slot += 1
                if st_slot == stq_entries:
                    st_slot = 0

        total_cycles = prev_retire + frontend_depth
        return self._stats(trace, total_cycles)
