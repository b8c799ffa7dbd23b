"""Task specifications: content-keyed, self-contained, JSON-portable.

A fabric task must carry everything a worker on another host needs to
reproduce the experiment bit-identically — and nothing tied to the
submitting process. For a simulation task that is:

- the configuration as its :meth:`~repro.core.config.SimConfig.flatten`
  dict (``flatten``/``with_updates`` round-trip exactly, and
  ``core_type`` is part of the flat dict, so the worker rebuilds the
  config from the matching public base);
- the workload *name* (workload generators are deterministic, so the
  worker re-records the trace rather than shipping it);
- the trace scale and per-workload overrides;
- the decoder library as an importable ``module:qualname`` spec
  (decoders must be stateless per class; see
  :func:`~repro.isa.decoder.check_decoder_portable`).

The task **key** is the engine's own
:func:`~repro.engine.keys.sim_key` rendered to text — the same address
the result will live under in the
:class:`~repro.store.resultstore.ResultStore`. That single decision is
what makes the whole fabric exactly-once-per-key: enqueue deduplicates
on it, workers write results under it, drivers read results back by it.

A second kind, ``sleep``, exists for tests and benchmarks: it holds a
lease for a controlled duration without touching the simulator, which
is how crash-recovery tests SIGKILL a worker deterministically
mid-task.
"""

from __future__ import annotations

import importlib

from repro.core.config import (
    SimConfig,
    cortex_a53_public_config,
    cortex_a72_public_config,
)
from repro.engine.keys import sim_key
from repro.isa.decoder import Decoder
from repro.store.serialize import encode_key

#: Simulation task: run one (config, workload) pair, write the stats.
KIND_SIMULATE = "simulate"

#: Test/bench task: hold the lease for ``seconds`` doing nothing.
KIND_SLEEP = "sleep"

TASK_KINDS = (KIND_SIMULATE, KIND_SLEEP)


def decoder_spec(decoder) -> str:
    """Importable ``module:qualname`` identity of a decoder's class."""
    cls = type(decoder)
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve_decoder(spec: str) -> Decoder:
    """Instantiate the decoder class behind a ``module:qualname`` spec."""
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not (isinstance(obj, type) and issubclass(obj, Decoder)):
        raise TypeError(f"decoder spec {spec!r} does not name a Decoder class")
    return obj()


def sim_task(config: SimConfig, workload: str, scale: float,
             overrides: dict, decoder) -> tuple:
    """Build one simulation task; returns ``(key_text, payload)``.

    The key is exactly the store address the result will occupy.
    """
    key = encode_key(sim_key(config, workload, scale, overrides, decoder))
    payload = {
        "workload": workload,
        "scale": scale,
        "overrides": dict(overrides or {}),
        "config": config.flatten(),
        "decoder": decoder_spec(decoder),
    }
    return key, payload


def rebuild_config(flat: dict) -> SimConfig:
    """A task payload's flat config dict back into a :class:`SimConfig`.

    The flat dict includes ``core_type``, which selects the public base
    whose structure matches; ``with_updates`` then restores every
    parameter, so the rebuilt config flattens identically — and
    therefore keys identically — to the submitted one.
    """
    base = (cortex_a53_public_config() if flat.get("core_type") == "inorder"
            else cortex_a72_public_config())
    return base.with_updates(flat)
