"""The campaign benchmark's traced entry points exist where it wraps them.

``campaignbench/layers.py`` ``TARGETS`` names every ``repro`` function
and method a traced benchmark run (``--trace 1``) wraps, and
``spans.Patches.wrap`` refuses an attribute that its owner only
inherits. A refactor that renames a traced entry point, or moves it to
a base class, therefore breaks traced runs; this test notices without
running the benchmark. The benchmark's files are only read: no bytecode
is written next to them.
"""

import importlib
import importlib.util
import os
import sys

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "campaignbench")


def _load_targets(monkeypatch) -> list:
    """``TARGETS`` from ``campaignbench/layers.py``, imported read-only."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    had_spans = "spans" in sys.modules
    spec = importlib.util.spec_from_file_location(
        "campaignbench_layers", os.path.join(BENCH_DIR, "layers.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if not had_spans:
            sys.modules.pop("spans", None)
    return module.TARGETS


def test_every_traced_entry_point_is_its_owners_own(monkeypatch):
    targets = _load_targets(monkeypatch)
    assert targets
    missing = []
    for module_name, class_name, attrs, _layer, _extractors in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        missing += [f"{module_name}:{class_name or ''}.{attr}"
                    for attr in attrs if attr not in vars(owner)]
    assert missing == []
