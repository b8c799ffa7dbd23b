"""Process footprint: what loading the program costs every process.

A campaign process, ``repro serve`` and each ``repro worker`` import
the same entry modules; none of them may pull in numpy or scipy (the
race statistics are stdlib, see :mod:`repro.tuning.stats`). A finished
simulation must also free its state by refcount: a reference cycle
through a run's caches would keep sets, lines and MSHRs alive until
the cyclic GC runs, and its pauses land in the middle of fleet work.
The access-path closures therefore never capture their cache or
hierarchy.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref

import pytest

from repro.bench.scenarios import sampled_config
from repro.core.config import cortex_a53_public_config
from repro.hardware.board import FireflyRK3399
from repro.hardware.effects import HardwareEffects, HardwareEffectsConfig
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulator.simulator import SnipeSim
from repro.workloads.microbench import MICROBENCHMARKS

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

ENTRY_MODULES = ("repro.fabric", "repro.validation.campaign",
                 "repro.service.server", "repro.cli")


def test_entry_modules_import_without_numpy_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    __import__(name)\n"
        "heavy = sorted(m for m in sys.modules\n"
        "               if m.partition('.')[0] in ('numpy', 'scipy'))\n"
        "print(' '.join(heavy))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"imported: {proc.stdout.strip()}"


def _sampled_a72_config(seed: int):
    """One stage-2 tuning candidate: prefetchers, victim buffers and
    non-LRU policies, not the public config's plain caches."""
    return sampled_config("a72", seed)


@pytest.fixture(scope="module")
def trace():
    return MICROBENCHMARKS["MD"].trace()


#: One simulation each; the board is fresh per call because a board
#: answers a repeated measurement from its cache without simulating.
RUNS = {
    "a53-public": lambda t: SnipeSim(cortex_a53_public_config()).run(t),
    "a72-sampled": lambda t: SnipeSim(_sampled_a72_config(1009)).run(t),
    "hw-measure": lambda t: FireflyRK3399().core("a72").measure(t),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_finished_run_leaves_no_cyclic_garbage(trace, name):
    run = RUNS[name]
    run(trace)  # warm the trace's memoised stream outside the check
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(trace)
        found = gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0, f"{found} objects only the cyclic GC could free: {kinds}"


@pytest.mark.parametrize("config", [cortex_a53_public_config, lambda: _sampled_a72_config(3)],
                         ids=["a53-public", "a72-sampled"])
def test_caches_die_with_their_core(trace, monkeypatch, config):
    caches = []
    build = SnipeSim._build_core

    def tracking_build(sim):
        core = build(sim)
        h = core.hierarchy
        caches.extend(weakref.ref(c) for c in (h.l1i, h.l1d, h.l2))
        return core

    monkeypatch.setattr(SnipeSim, "_build_core", tracking_build)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        stats = SnipeSim(config()).run(trace)
        alive = [ref().name for ref in caches if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert stats.instructions > 0
    assert len(caches) == 3
    assert alive == [], f"caches kept alive after the run: {alive}"


def _captured(func, seen=None):
    """Every object reachable through ``func``'s closure cells, following
    nested closures (bound methods are reported, not entered)."""
    seen = set() if seen is None else seen
    found = []
    for cell in getattr(func, "__closure__", None) or ():
        value = cell.cell_contents
        if id(value) in seen:
            continue
        seen.add(id(value))
        found.append(value)
        if callable(value) and getattr(value, "__closure__", None):
            found.extend(_captured(value, seen))
    return found


@pytest.mark.parametrize("effects", [False, True], ids=["sim", "board"])
@pytest.mark.parametrize("seed", [3, 1009])
def test_access_paths_capture_no_cache_or_hierarchy(effects, seed):
    """What makes a finished run free by refcount: no access path
    refers back to the object that holds it."""
    config = _sampled_a72_config(seed)
    hooks = HardwareEffects(HardwareEffectsConfig()) if effects else None
    h = MemoryHierarchy(config, effects=hooks)
    paths = [h.l1i.access_line, h.l1d.access_line, h.l2.access_line,
             h.ifetch_line, h.load, h.store]
    for path in paths:
        owners = [type(obj).__name__ for obj in [path, *_captured(path)]
                  if isinstance(obj, (Cache, MemoryHierarchy))
                  or isinstance(getattr(obj, "__self__", None), (Cache, MemoryHierarchy))]
        assert owners == [], f"{path.__qualname__} captures {owners}"
