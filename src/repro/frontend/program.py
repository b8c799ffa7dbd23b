"""Static program representation with behavioural patterns.

A :class:`Program` is a list of :class:`StaticInst` — an encoded
instruction word plus the *behavioural annotations* the interpreter needs
to produce a dynamic trace without a full dataflow interpreter:

- memory instructions carry an :class:`AddrPattern` yielding effective
  addresses (sequential, random-in-window, pointer-chase, ...);
- conditional branches carry a :class:`BranchPattern` yielding outcomes;
- indirect branches carry a :class:`TargetPattern` yielding targets.

Patterns are restartable (``reset``) so the same program can be traced
multiple times deterministically.
"""

from __future__ import annotations

import random

from repro.isa.registers import NO_REG


class AddrPattern:
    """Yields the effective address for successive executions."""

    def reset(self) -> None:
        """Restart the pattern for a fresh trace."""

    def next_addr(self) -> int:
        raise NotImplementedError


class FixedAddr(AddrPattern):
    """Every execution touches the same address."""

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def next_addr(self) -> int:
        return self.addr


class SequentialAddr(AddrPattern):
    """Strided walk over a window, wrapping at the end.

    This is the streaming-array access of bandwidth and cache-sweep
    kernels: ``base, base+stride, ...`` wrapping modulo ``window``.
    """

    def __init__(self, base: int, stride: int, window: int) -> None:
        if stride == 0:
            raise ValueError("stride must be non-zero")
        if window <= 0:
            raise ValueError("window must be positive")
        self.base = base
        self.stride = stride
        self.window = window
        self._offset = 0

    def reset(self) -> None:
        self._offset = 0

    def next_addr(self) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.window
        return addr


class RandomAddr(AddrPattern):
    """Uniformly random aligned addresses within a window."""

    def __init__(self, base: int, window: int, seed: int, align: int = 8) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.base = base
        self.window = window
        self.seed = seed
        self.align = align
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def next_addr(self) -> int:
        slots = max(1, self.window // self.align)
        return self.base + self._rng.randrange(slots) * self.align


class ChaseAddr(AddrPattern):
    """Pointer-chase over a random permutation of cache lines.

    The lmbench ``lat_mem_rd`` access pattern: each access depends on the
    previous one (enforced in programs via a register dependence) and the
    permutation defeats prefetching, exposing raw load-to-use latency.
    """

    def __init__(self, base: int, lines: int, seed: int, line_size: int = 64) -> None:
        if lines <= 0:
            raise ValueError("lines must be positive")
        self.base = base
        self.lines = lines
        self.line_size = line_size
        rng = random.Random(seed)
        order = list(range(lines))
        rng.shuffle(order)
        self._order = order
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def next_addr(self) -> int:
        line = self._order[self._pos]
        self._pos = (self._pos + 1) % self.lines
        return self.base + line * self.line_size


class ListAddr(AddrPattern):
    """Cycles through an explicit address list (conflict-miss kernels)."""

    def __init__(self, addrs) -> None:
        addrs = list(addrs)
        if not addrs:
            raise ValueError("address list must be non-empty")
        self.addrs = addrs
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def next_addr(self) -> int:
        addr = self.addrs[self._pos]
        self._pos = (self._pos + 1) % len(self.addrs)
        return addr


class BranchPattern:
    """Yields taken/not-taken outcomes for successive executions."""

    def reset(self) -> None:
        """Restart the pattern for a fresh trace."""

    def next_taken(self) -> bool:
        raise NotImplementedError


class AlwaysTaken(BranchPattern):
    def next_taken(self) -> bool:
        return True


class NeverTaken(BranchPattern):
    def next_taken(self) -> bool:
        return False


class PatternTaken(BranchPattern):
    """Cycles a fixed outcome string, e.g. ``"TTNT"`` (easy to predict)."""

    def __init__(self, pattern: str) -> None:
        if not pattern or set(pattern) - {"T", "N"}:
            raise ValueError("pattern must be a non-empty string of 'T'/'N'")
        self.pattern = pattern
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def next_taken(self) -> bool:
        taken = self.pattern[self._pos] == "T"
        self._pos = (self._pos + 1) % len(self.pattern)
        return taken


class RandomTaken(BranchPattern):
    """Bernoulli outcomes — the hard-to-predict case."""

    def __init__(self, taken_prob: float, seed: int) -> None:
        if not 0.0 <= taken_prob <= 1.0:
            raise ValueError("taken_prob must be in [0, 1]")
        self.taken_prob = taken_prob
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def next_taken(self) -> bool:
        return self._rng.random() < self.taken_prob


class TargetPattern:
    """Yields static-index targets for indirect branches."""

    def reset(self) -> None:
        """Restart the pattern for a fresh trace."""

    def next_target(self) -> int:
        raise NotImplementedError


class CycleTargets(TargetPattern):
    """Round-robins a target list (regular switch dispatch)."""

    def __init__(self, targets) -> None:
        targets = list(targets)
        if not targets:
            raise ValueError("target list must be non-empty")
        self.targets = targets
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def next_target(self) -> int:
        target = self.targets[self._pos]
        self._pos = (self._pos + 1) % len(self.targets)
        return target


class RandomTargets(TargetPattern):
    """Uniformly random choice among targets (data-dependent dispatch)."""

    def __init__(self, targets, seed: int) -> None:
        targets = list(targets)
        if not targets:
            raise ValueError("target list must be non-empty")
        self.targets = targets
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def next_target(self) -> int:
        return self._rng.choice(self.targets)


class StaticInst:
    """One static instruction: encoding plus behavioural annotations."""

    __slots__ = ("word", "addr_pattern", "branch_pattern", "branch_target", "target_pattern")

    def __init__(
        self,
        word: int,
        addr_pattern: AddrPattern = None,
        branch_pattern: BranchPattern = None,
        branch_target: int = NO_REG,
        target_pattern: TargetPattern = None,
    ) -> None:
        self.word = word
        self.addr_pattern = addr_pattern
        self.branch_pattern = branch_pattern
        #: Static index of the direct-branch target within the program.
        self.branch_target = branch_target
        self.target_pattern = target_pattern


class Program:
    """A static instruction sequence placed at ``base_pc``.

    By default ``pc`` of static index ``i`` is ``base_pc + 4 * i``; an
    explicit ``pcs`` list overrides the layout so kernels can place code
    blocks far apart (instruction-cache capacity/conflict stress).
    Execution starts at index 0; falling off the end completes one
    *iteration* and restarts at index 0 (the implicit outer loop every
    kernel has).
    """

    def __init__(
        self,
        insts: list,
        name: str = "program",
        base_pc: int = 0x40_0000,
        pcs: list = None,
    ) -> None:
        if not insts:
            raise ValueError("program must contain at least one instruction")
        self.insts = insts
        self.name = name
        self.base_pc = base_pc
        if pcs is None:
            pcs = [base_pc + 4 * i for i in range(len(insts))]
        else:
            if len(pcs) != len(insts):
                raise ValueError("pcs must parallel insts")
            if any(b <= a for a, b in zip(pcs, pcs[1:])):
                raise ValueError("pcs must be strictly increasing")
        self.pcs = pcs
        self._validate_targets()

    def _validate_targets(self) -> None:
        n = len(self.insts)
        for idx, inst in enumerate(self.insts):
            if inst.branch_target != NO_REG and not 0 <= inst.branch_target < n:
                raise ValueError(
                    f"instruction {idx}: branch target {inst.branch_target} outside program"
                )
            if inst.target_pattern is not None:
                for t in getattr(inst.target_pattern, "targets", []):
                    if not 0 <= t < n:
                        raise ValueError(
                            f"instruction {idx}: indirect target {t} outside program"
                        )

    def reset_patterns(self) -> None:
        for inst in self.insts:
            if inst.addr_pattern is not None:
                inst.addr_pattern.reset()
            if inst.branch_pattern is not None:
                inst.branch_pattern.reset()
            if inst.target_pattern is not None:
                inst.target_pattern.reset()

    def __len__(self) -> int:
        return len(self.insts)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, {len(self.insts)} static instructions)"
