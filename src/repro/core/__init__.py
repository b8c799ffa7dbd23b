"""Core timing models (the Sniper back-end stand-in).

- :mod:`repro.core.config` — the full configuration tree, including the
  ~hundred parameters that define a simulated processor and dotted-path
  access used by the tuner;
- :mod:`repro.core.contention` — functional-unit contention and
  dual-issue pairing rules (§IV-A "contention model");
- :mod:`repro.core.base` — the construction and stats record both core
  models share;
- :mod:`repro.core.inorder` — Cortex-A53-like in-order scoreboard model;
- :mod:`repro.core.ooo` — Cortex-A72-like out-of-order ROB model;
- :mod:`repro.core.stats` — the stats record a simulation produces.
"""

from repro.core.config import (
    BranchConfig,
    CacheConfig,
    ExecConfig,
    MemSysConfig,
    PipelineConfig,
    SimConfig,
    cortex_a53_public_config,
    cortex_a72_public_config,
)
from repro.core.contention import ContentionModel
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.core.stats import SimStats

__all__ = [
    "CacheConfig",
    "BranchConfig",
    "ExecConfig",
    "PipelineConfig",
    "MemSysConfig",
    "SimConfig",
    "cortex_a53_public_config",
    "cortex_a72_public_config",
    "ContentionModel",
    "InOrderCore",
    "OutOfOrderCore",
    "SimStats",
]
