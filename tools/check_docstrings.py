#!/usr/bin/env python
"""Docstring guard for the public entry points.

A grep/pydocstyle substitute with zero extra dependencies: imports the
modules behind the public API (``simulate``, ``EvaluationEngine`` and
its trial evaluators, ``ResultStore``, ``ValidationCampaign``,
``IraceTuner``, ``race``, the bench layer and the CLI) and fails if any
public module, class, method or function they define lacks a docstring.

Run from the repository root::

    PYTHONPATH=src python tools/check_docstrings.py

CI runs this in the docs job; ``tests/test_docstrings.py`` runs it in
the tier-1 gate.
"""

from __future__ import annotations

import importlib
import inspect
import sys

#: Modules whose public surface must be fully documented.
TARGET_MODULES = [
    "repro.simulator.simulator",
    "repro.engine.engine",
    "repro.engine.executors",
    "repro.engine.evaluator",
    "repro.store.resultstore",
    "repro.fabric.api",
    "repro.fabric.queue",
    "repro.fabric.scheduler",
    "repro.fabric.tasks",
    "repro.fabric.worker",
    "repro.fabric.status",
    "repro.pacing",
    "repro.service.protocol",
    "repro.service.server",
    "repro.service.client",
    "repro.validation.campaign",
    "repro.tuning.irace",
    "repro.tuning.race",
    "repro.tuning.stats",
    "repro.bench.scenarios",
    "repro.bench.harness",
    "repro.trace.record",
    "repro.trace.columnar",
    "repro.engine.tracestore",
    "repro.core.inorder",
    "repro.core.ooo",
]


def _missing_in_class(cls, module_name: str) -> list:
    out = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            func = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            func = member.__func__
        elif inspect.isfunction(member):
            func = member
        else:
            continue
        if not inspect.getdoc(func):
            out.append(f"{module_name}.{cls.__name__}.{name}")
    return out


def check_module(module_name: str) -> list:
    """Return the list of undocumented public objects in ``module_name``."""
    module = importlib.import_module(module_name)
    missing = []
    if not inspect.getdoc(module):
        missing.append(f"{module_name} (module docstring)")
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        defined_here = getattr(member, "__module__", None) == module_name
        if not defined_here:
            continue
        if inspect.isclass(member):
            if not inspect.getdoc(member):
                missing.append(f"{module_name}.{name}")
            missing.extend(_missing_in_class(member, module_name))
        elif inspect.isfunction(member):
            if not inspect.getdoc(member):
                missing.append(f"{module_name}.{name}")
    return missing


def main() -> int:
    """Check every target module; print failures; return an exit code."""
    missing = []
    for module_name in TARGET_MODULES:
        missing.extend(check_module(module_name))
    if missing:
        print("undocumented public entry points:")
        for item in missing:
            print(f"  - {item}")
        return 1
    print(f"docstring guard: {len(TARGET_MODULES)} modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
