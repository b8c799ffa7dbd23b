"""Dynamic instruction records and in-memory traces."""

from __future__ import annotations

from repro.isa.decoder import Decoder, decoder_library
from repro.isa.opclasses import OpClass

#: Kind-flag bits carried in issue streams: one precomputed bitmask per
#: instruction replaces the repeated opclass range comparisons the core
#: timing loops would otherwise evaluate per dynamic instruction.
KF_LOAD = 1     #: LOAD / LDP
KF_STORE = 2    #: STORE / STP
KF_BRANCH = 4   #: any control-flow class
KF_NOP = 8      #: NOP
KF_MUL = 16     #: IMUL / IDIV (dual-issue pairing class)
KF_FP = 32      #: FPALU..SIMD_MUL (dual-issue pairing class)
KF_PAIR = 64    #: LDP / STP (writes/reads a register pair)


def _kind_flags(opclass: int) -> int:
    flags = 0
    if opclass == int(OpClass.NOP):
        flags |= KF_NOP
    if opclass in (int(OpClass.LOAD), int(OpClass.LDP)):
        flags |= KF_LOAD
    if opclass in (int(OpClass.STORE), int(OpClass.STP)):
        flags |= KF_STORE
    if int(OpClass.BRANCH) <= opclass <= int(OpClass.RET):
        flags |= KF_BRANCH
    if opclass in (int(OpClass.IMUL), int(OpClass.IDIV)):
        flags |= KF_MUL
    if int(OpClass.FPALU) <= opclass <= int(OpClass.SIMD_MUL):
        flags |= KF_FP
    if opclass in (int(OpClass.LDP), int(OpClass.STP)):
        flags |= KF_PAIR
    return flags


#: opclass int -> kind bitmask, built once at import.
KIND_FLAGS = tuple(_kind_flags(int(op)) for op in OpClass)


class DynInst:
    """One dynamically executed instruction, as recorded by the front-end.

    This is the SIFT record: the program counter, the raw instruction
    word (decoded lazily by the back-end's decoder library), the effective
    memory address for loads/stores, and the control-flow outcome for
    branches. Timing state lives in the core models, never here, so one
    trace can be replayed concurrently against many configurations.
    """

    __slots__ = ("pc", "word", "addr", "taken", "target")

    def __init__(self, pc: int, word: int, addr: int = 0, taken: bool = False, target: int = 0) -> None:
        self.pc = pc
        self.word = word
        #: Effective byte address for memory operations (0 otherwise).
        self.addr = addr
        #: Branch outcome (False for non-branches and not-taken branches).
        self.taken = taken
        #: Next program counter for taken branches (0 otherwise).
        self.target = target

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynInst):
            return NotImplemented
        return (
            self.pc == other.pc
            and self.word == other.word
            and self.addr == other.addr
            and self.taken == other.taken
            and self.target == other.target
        )

    def __repr__(self) -> str:
        flags = " taken" if self.taken else ""
        return f"DynInst(pc={self.pc:#x}, word={self.word:#010x}, addr={self.addr:#x}{flags})"


class Trace:
    """A dynamic instruction stream plus its decode cache.

    ``decoded_with`` pre-decodes every record with a given decoder library
    and memoises the result per decoder *library* (class identity, not
    instance id — decoding is pure per class, instances are
    interchangeable, and id-keying could silently alias a freed decoder
    with a newly allocated one at the same address); replaying the same
    trace under many configurations (the tuning loop) then pays decode
    cost once.
    """

    def __init__(self, records: list, name: str = "anonymous") -> None:
        self.records = records
        self.name = name
        self._decoded_cache: dict = {}
        self._columnar_cache: dict = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def decoded_with(self, decoder: Decoder) -> list:
        """Return per-record :class:`DecodedInst` list for ``decoder``."""
        key = decoder_library(decoder)
        cached = self._decoded_cache.get(key)
        if cached is None:
            decode = decoder.decode
            cached = [decode(rec.word) for rec in self.records]
            self._decoded_cache[key] = cached
        return cached

    def stream_with(self, decoder: Decoder) -> list:
        """Flat per-record issue tuples for ``decoder`` (memoised).

        The stream is the hot-path representation the timing cores
        iterate. It is the memoised
        :meth:`~repro.trace.columnar.ColumnarTrace.stream` of
        :meth:`columns_with`, so a trace has one columnar form and one
        tuple list per decoder *library*, and the thousands of
        configurations a tuning campaign replays over it flatten it
        exactly once.
        """
        return self.columns_with(decoder).stream()

    def columns_with(self, decoder: Decoder):
        """Columnar form of this trace for ``decoder`` (memoised).

        Returns a :class:`repro.trace.columnar.ColumnarTrace` — one
        compact array per issue-tuple field — built once per decoder
        *library* like the other caches. This is the shareable form:
        its blob serialisation is what the trace store persists and
        fabric workers memory-map instead of re-recording.
        """
        from repro.trace.columnar import ColumnarTrace

        key = decoder_library(decoder)
        cached = self._columnar_cache.get(key)
        if cached is None:
            cached = ColumnarTrace.build(
                self.records, self.decoded_with(decoder), self.name,
                tuple(str(part) for part in key),
            )
            self._columnar_cache[key] = cached
        return cached

    def instruction_count(self) -> int:
        """Number of dynamically executed instructions."""
        return len(self.records)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.records)} instructions)"
