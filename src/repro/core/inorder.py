"""In-order core timing model (Cortex-A53-like).

A one-pass timestamp scoreboard in the Sniper high-abstraction style:
instructions are processed in program order; for each one we compute the
earliest cycle it can issue given front-end availability (I-cache, branch
redirects), register dependences, dual-issue slot/pairing limits and
functional-unit contention, then account its completion. No structure is
simulated cycle-by-cycle, which is what makes thousands of tuning runs
affordable — the paper's core argument for using Sniper.
"""

from __future__ import annotations

from repro.branch.unit import REDIRECT_BTB, REDIRECT_MISPREDICT
from repro.core.base import CoreModel
from repro.core.stats import SimStats
from repro.isa.registers import INT_REG_COUNT, TOTAL_REG_COUNT, ZERO_REG
from repro.trace.record import Trace


class InOrderCore(CoreModel):
    """Dual-issue in-order pipeline model."""

    core_type = "inorder"

    def run_stream(self, trace: Trace, stream: list) -> SimStats:
        """Replay the flattened ``stream`` of ``trace`` and account cycles."""
        cfg = self.config
        pipeline = cfg.pipeline
        issue_width = pipeline.issue_width
        dual_rules = pipeline.dual_issue_rules
        stall_on_use = pipeline.stall_on_use
        frontend_depth = pipeline.frontend_depth
        mispredict_penalty = cfg.branch.mispredict_penalty
        btb_miss_penalty = cfg.branch.btb_miss_penalty
        agu_latency = cfg.execute.agu_latency

        hierarchy = self.hierarchy
        load = hierarchy.load
        store = hierarchy.store
        ifetch_line = hierarchy.ifetch_line
        line_size = hierarchy.line_size
        l1i_hit = hierarchy.l1i.hit_latency + (1 if hierarchy.l1i.serial_tag_data else 0)
        # Contention dispatch inlined below: one dense-table fetch per
        # instruction replaces the probe() + commit() call pair (the
        # single hottest call overhead of the loop). Entries are
        # (unit next-free list | None, latency, occupancy, unit count).
        contention_fast = self.contention._fast
        branch_access = self.branch_unit.access
        effects = self.effects
        branch_extra = effects.branch_extra if effects is not None else None

        reg_ready = [0] * (TOTAL_REG_COUNT + 1)  # slot -1 aliases the pad
        cycle = frontend_depth  # pipeline fill
        slots_used = 0
        issued_mul = False
        issued_fp = False
        frontend_ready = frontend_depth
        stall_until = 0
        current_line = -1
        max_done = 0

        for opclass, kind, dst, src1, src2, pc, addr, taken, target in stream:
            cfree, latency, occupancy, nunits = contention_fast[opclass]

            # ---------------------------------------------- front end
            pc_line = pc // line_size
            if pc_line != current_line:
                fetch_base = cycle if cycle > frontend_ready else frontend_ready
                done = ifetch_line(pc_line, fetch_base, False, False, pc)
                extra = done - fetch_base - l1i_hit
                if extra > 0:
                    # Hits are pipelined and hidden; only the miss stalls.
                    frontend_ready = fetch_base + extra
                current_line = pc_line

            # ---------------------------------------------- issue time
            t = cycle
            if frontend_ready > t:
                t = frontend_ready
            if stall_until > t:
                t = stall_until
            # NO_REG (-1) aliases the always-zero pad slot, so source
            # reads need no bounds check.
            rr = reg_ready[src1]
            if rr > t:
                t = rr
            rr = reg_ready[src2]
            if rr > t:
                t = rr

            if t == cycle:
                # Inlined ContentionModel.pairing_conflict (A53 dual-issue
                # rules): MUL-class and FP-class ops never pair.
                if slots_used >= issue_width:
                    t = cycle + 1
                elif dual_rules and kind & 48:  # KF_MUL | KF_FP
                    if kind & 16:
                        if issued_fp:
                            t = cycle + 1
                    elif issued_mul:
                        t = cycle + 1

            # Inlined ContentionModel.probe: wait for a free unit.
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

            if t == cycle:
                slots_used += 1
            else:
                cycle = t
                slots_used = 1
                issued_mul = False
                issued_fp = False
            if kind & 48:
                if kind & 16:
                    issued_mul = True
                else:
                    issued_fp = True

            # ---------------------------------------------- execute
            if kind & 8:  # KF_NOP
                continue

            # Inlined ContentionModel.commit: book the least-loaded unit
            # and compute the completion cycle. Pools are untouched by
            # the memory system, so booking before the hierarchy calls
            # is order-equivalent to the per-branch commit() calls.
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
            done = t + latency

            if not kind & 15:  # plain register op (incl. MUL/FP classes)
                if dst >= 0 and not (dst == ZERO_REG and dst < INT_REG_COUNT):
                    reg_ready[dst] = done
                if done > max_done:
                    max_done = done
            elif kind & 4:  # KF_BRANCH
                redirect = branch_access(opclass, pc, taken, target)
                if redirect == REDIRECT_MISPREDICT:
                    frontend_ready = t + mispredict_penalty
                    current_line = -1
                elif redirect == REDIRECT_BTB:
                    frontend_ready = t + btb_miss_penalty
                    current_line = -1
                elif taken:
                    # Correct taken prediction still restarts the fetch
                    # line; hardware-only extra bubbles hook in here.
                    current_line = -1
                    if branch_extra is not None:
                        frontend_ready = t + branch_extra()
            elif kind & 1:  # KF_LOAD
                data = load(addr, pc, t + agu_latency)
                if dst >= 0 and dst != ZERO_REG:
                    reg_ready[dst] = data
                    if kind & 64 and dst + 1 < TOTAL_REG_COUNT:  # KF_PAIR
                        reg_ready[dst + 1] = data + 1
                if not stall_on_use:
                    stall_until = data
                if data > max_done:
                    max_done = data
            else:  # KF_STORE
                ok = store(addr, pc, t + agu_latency)
                if ok > t + agu_latency:
                    stall_until = ok

        total_cycles = max(cycle, max_done)
        return self._stats(trace, total_cycles)
