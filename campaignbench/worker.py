"""Run one fabric worker for the benchmark.

Usage (the benchmark starts these itself)::

    python3 campaignbench/worker.py SPEC WORKER_ID [--trace-dir DIR]

``SPEC`` is a shared store file or an experiment-service URL, exactly
as for ``repro worker`` (a service token comes from ``REPRO_TOKEN``).
The worker runs until its standard input is closed, then stops
through :meth:`FabricWorker.stop`, so prefetched leases are released
and buffered completions flushed. On exit it
prints one JSON line: the worker's stats and engine/wire telemetry.

With ``--trace-dir`` the same span wrappers as the benchmark's are
installed before the worker starts, and the spans are written to
``DIR/<pid>.json`` when it stops.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from layers import install_tracing
from spans import Patches, Recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("worker_id")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir:
        recorder = Recorder(args.trace_dir)
        install_tracing(recorder, Patches())
        recorder.enabled = True

    from repro.fabric import FabricWorker

    worker = FabricWorker(args.spec, worker_id=args.worker_id)

    def stop_on_eof() -> None:
        sys.stdin.read()
        worker.stop()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    stats = worker.run()
    if recorder is not None:
        recorder.enabled = False
        recorder.dump(role="worker")
    print(json.dumps({
        "worker_id": worker.worker_id,
        "claimed": stats.claimed,
        "completed": stats.completed,
        "failed": stats.failed,
        "lost_leases": stats.lost_leases,
        "telemetry": stats.telemetry,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
