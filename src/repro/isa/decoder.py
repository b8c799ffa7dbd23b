"""Decoder library — the reproduction's Capstone stand-in.

Sniper-ARM replaced the x86 XED libraries with Capstone to decode AArch64
words for the timing back-end. Our :class:`Decoder` plays that role for the
synthetic encoding. Decoded instructions are interned per word, because a
trace contains the same static word many times and the timing models decode
on every dynamic occurrence.

The paper reports (§IV-B) that validation uncovered *bugs in the Capstone
decoder library that led to errors in modelling dependencies across
instructions*. :class:`BuggyDecoder` reproduces that failure mode: for
floating-point operations it drops the second source register, silently
breaking dependence chains exactly the way a register-extraction bug would.
Benchmarks use it to show the CPI error signature such a bug produces and
how the micro-benchmark suite isolates it.
"""

from __future__ import annotations

from repro.isa.encoding import decode_fields
from repro.isa.instruction import DecodedInst
from repro.isa.opclasses import FP_CLASSES
from repro.isa.registers import NO_REG


def decoder_library(decoder) -> tuple:
    """Identity of a decoder *library*: class plus reported ``name``.

    Decoding is pure per class, so all instances of one decoder class
    are interchangeable. This single identity rule backs both the trace
    decode cache and the evaluation engine's result-cache keys.

    Contract for subclasses: any constructor parameter that changes
    decoding behaviour MUST be reflected in the instance's ``name`` —
    that is what separates the cached decode streams and simulation
    results of two differently-parameterised instances.
    """
    cls = type(decoder)
    return (cls.__module__, cls.__qualname__, getattr(decoder, "name", cls.__name__))


def check_decoder_portable(decoder) -> None:
    """Fail loudly when a decoder cannot cross a process boundary.

    Pool and fabric workers rebuild the decoder as ``type(decoder)()``.
    A stateful or parameterised decoder would silently diverge from the
    submitting process, so prove here that rebuilding it yields the
    same library.
    """
    cls = type(decoder)
    try:
        portable = decoder_library(cls()) == decoder_library(decoder)
    except TypeError:
        portable = False
    if not portable:
        raise ValueError(
            f"{cls.__name__} is not reconstructible as {cls.__name__}(); "
            "work that leaves this process needs stateless per-class "
            "decoders — use the serial executor (jobs=1)"
        )


class Decoder:
    """Decodes 32-bit words into interned :class:`DecodedInst` objects."""

    #: Human-readable library identity (appears in simulator stats).
    name = "capstone-like"

    def __init__(self) -> None:
        self._cache: dict = {}

    def decode(self, word: int) -> DecodedInst:
        """Decode ``word``; results are cached per unique word."""
        inst = self._cache.get(word)
        if inst is None:
            inst = self._decode_uncached(word)
            self._cache[word] = inst
        return inst

    def decode_many(self, words) -> list:
        """Decode an iterable of words (convenience for trace pre-decode)."""
        decode = self.decode
        return [decode(w) for w in words]

    def cache_size(self) -> int:
        """Number of unique words decoded so far."""
        return len(self._cache)

    def _decode_uncached(self, word: int) -> DecodedInst:
        opclass, dst, src1, src2, imm = decode_fields(word)
        return DecodedInst(word, opclass, dst, src1, src2, imm)


class BuggyDecoder(Decoder):
    """Decoder with a deliberate FP source-register extraction bug.

    Mirrors the Capstone bugs found during the paper's validation: the
    second source operand of floating-point/SIMD instructions is lost, so
    the timing model misses RAW dependencies through that operand and
    under-predicts the CPI of dependence-chain-bound FP kernels.
    """

    name = "capstone-like (buggy FP sources)"

    def _decode_uncached(self, word: int) -> DecodedInst:
        opclass, dst, src1, src2, imm = decode_fields(word)
        if int(opclass) in FP_CLASSES:
            src2 = NO_REG
        return DecodedInst(word, opclass, dst, src1, src2, imm)
