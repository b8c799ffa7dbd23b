"""Golden ``SimStats`` for the configurations the race actually runs.

``golden_stats.json`` pins the two public configurations, whose caches
are single-ported, LRU, victimless and prefetcher-free. A tuning race
runs sampled stage-2 candidates instead: prefetchers, victim buffers,
non-LRU replacement and other set-index hashes. ``sampled_stats.json``
pins full ``SimStats`` payloads for such candidates on a few Table-I
kernels: seeded stage-2 samples per core, plus hand-built configs for
the component kinds and cache shapes the samples miss.

Each entry stores its config as dotted-path overrides of the public
config, so a change to the tuning space cannot silently change what is
pinned. Regenerate (only on purpose, from code whose output is the
reference) with::

    PYTHONPATH=src python tests/test_sampled_golden.py
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict

import pytest

from repro.components import REGISTRY
from repro.core.config import cortex_a53_public_config, cortex_a72_public_config
from repro.simulator import simulate
from repro.validation.steps import param_space_for
from repro.workloads.microbench import MICROBENCHMARKS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "sampled_stats.json")

PUBLIC = {"a53": cortex_a53_public_config, "a72": cortex_a72_public_config}
CORE_TYPE = {"a53": "inorder", "a72": "ooo"}

KERNELS = ("MC", "MCS", "MD", "MI", "ML2_BWldst", "ML2_st", "CCa", "DP1f", "STL2b")
SEEDS = range(6)

#: Component kinds and cache shapes no seed in :data:`SEEDS` reaches:
#: ``srrip``, ``skew`` and ``stream`` are outside the stage-2 space, and
#: port counts are not tuned at all.
HAND_BUILT = {
    "a53-srrip-skew-stream-2port": ("a53", {
        "l1d.replacement": "srrip", "l1d.hashing": "skew",
        "l1d.prefetcher": "stream", "l1d.ports": 2, "l1d.victim_entries": 4,
        "l2.replacement": "srrip", "l2.hashing": "skew",
    }),
    "a72-stream-2port-serial": ("a72", {
        "l1d.prefetcher": "stream", "l1d.prefetch_on_hit": True,
        "l1d.ports": 2, "l1d.serial_tag_data": True, "l1d.mshr_entries": 2,
        "l1i.ports": 2, "l2.prefetcher": "stream", "l2.hashing": "skew",
        "l2.replacement": "srrip",
    }),
}


def _sampled_updates(core: str, seed: int) -> dict:
    """One stage-2 tuning candidate (the race's sampling recipe)."""
    rng = random.Random(seed)
    return {p.name: rng.choice(p.values) for p in param_space_for(CORE_TYPE[core], 2)}


def _configs() -> dict:
    configs = {f"{core}-seed{seed}": (core, _sampled_updates(core, seed))
               for core in ("a53", "a72") for seed in SEEDS}
    configs.update(HAND_BUILT)
    return configs


def _build(core: str, updates: dict):
    return PUBLIC[core]().with_updates(updates)


def capture() -> dict:
    """Simulate every config on every kernel; the golden file's payload."""
    configs = _configs()
    entries = []
    for name, (core, updates) in configs.items():
        config = _build(core, updates)
        for kernel in KERNELS:
            stats = simulate(config, MICROBENCHMARKS[kernel].trace())
            entries.append({"config": name, "workload": kernel,
                            "stats": asdict(stats)})
    return {"configs": {name: {"core": core, "updates": updates}
                        for name, (core, updates) in configs.items()},
            "sim": entries}


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


#: Empty when run as the regeneration script, which writes the file.
GOLDEN = _golden() if __name__ != "__main__" else {"configs": {}, "sim": []}


def _config_of(entry: dict):
    spec = GOLDEN["configs"][entry["config"]]
    return _build(spec["core"], spec["updates"])


@pytest.mark.parametrize("entry", GOLDEN["sim"],
                         ids=[f"{e['config']}-{e['workload']}" for e in GOLDEN["sim"]])
def test_sampled_stats_match_golden(entry):
    stats = simulate(_config_of(entry), MICROBENCHMARKS[entry["workload"]].trace())
    assert asdict(stats) == entry["stats"]


def test_golden_covers_every_cache_branch():
    """Every registered component kind and cache shape is pinned, so a
    re-seed cannot drop a branch of the access path silently."""
    seen = {"replacement": set(), "hashing": set(), "prefetcher": set()}
    victim = serial = multiport = False
    for spec in GOLDEN["configs"].values():
        config = _build(spec["core"], spec["updates"])
        for level in (config.l1i, config.l1d, config.l2):
            for slot, kinds in seen.items():
                kinds.add(getattr(level, slot))
            victim |= level.victim_entries > 0
            serial |= level.serial_tag_data
            multiport |= level.ports > 1
    for slot, kinds in seen.items():
        assert kinds == set(REGISTRY.slot(slot).names()), slot
    assert victim and serial and multiport


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, sort_keys=True)
        fh.write("\n")
