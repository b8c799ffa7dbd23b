"""Instruction traces, recorded once and replayed many times.

The paper's workflow records each workload once on the ARM board (via
DynamoRIO) into the Sniper Instruction Trace Format (SIFT), then replays
the trace against every candidate simulator configuration on x86 servers.
This package provides the equivalent decoupling: :class:`Trace` is the
in-memory dynamic instruction stream, and its columnar form
(:mod:`repro.trace.columnar`) is the one form a trace takes outside its
process. That ``RCOL`` blob is what the trace cache persists, what fabric
workers memory-map and what the process pool ships, so a trace is
produced once and replayed for thousands of tuning simulations.
"""

from repro.trace.record import DynInst, Trace
from repro.trace.stats import TraceStats, compute_trace_stats

__all__ = [
    "DynInst",
    "Trace",
    "TraceStats",
    "compute_trace_stats",
]
