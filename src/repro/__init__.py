"""repro — full Python reproduction of *Racing to Hardware-Validated
Simulation* (Adileh et al., ISPASS 2019).

The package implements the paper's entire experimental apparatus:

- a Sniper-style trace-driven cycle-accounting simulator with in-order
  (Cortex-A53-like) and out-of-order (Cortex-A72-like) core models
  (:mod:`repro.core`, :mod:`repro.memory`, :mod:`repro.branch`,
  :mod:`repro.simulator`);
- a synthetic AArch64-like ISA, decoder library, trace recorder and
  the columnar trace blob that stands in for SIFT (:mod:`repro.isa`,
  :mod:`repro.frontend`, :mod:`repro.trace`);
- a simulated "real hardware" board with hidden ground-truth
  configurations and perf-counter measurement (:mod:`repro.hardware`);
- the 40-kernel targeted micro-benchmark suite and SPEC CPU2017 proxy
  workloads (:mod:`repro.workloads`);
- a unified evaluation engine — memoised traces, a content-addressed
  result cache and batched serial/parallel trial execution shared by
  every layer (:mod:`repro.engine`);
- a persistent experiment store — durable content-addressed results
  (SQLite/WAL), a run registry with provenance, and stage-granular
  checkpoints that make campaigns resumable (:mod:`repro.store`);
- an iterated-racing parameter tuner (:mod:`repro.tuning`) and the
  validation methodology built on it (:mod:`repro.validation`);
- analysis/reporting helpers (:mod:`repro.analysis`).

Quickstart::

    from repro.simulator import SnipeSim
    from repro.core.config import cortex_a53_public_config
    from repro.workloads.microbench import get_microbenchmark

    trace = get_microbenchmark("MM").trace()
    stats = SnipeSim(cortex_a53_public_config()).run(trace)
    print(stats.cpi)
"""

__version__ = "1.1.0"
