"""Distributed execution: a campaign fanned out over fabric workers.

The paper's tuning rounds are embarrassingly parallel — every irace
iteration races dozens of independent candidate configurations. This
example runs a small validation campaign twice: serially, then
distributed over two in-process fabric workers sharing one SQLite
store file — and shows the results are identical.

In real use the workers are separate ``repro worker`` processes (any
count, any host sharing the store file)::

    python -m repro worker --store fab.sqlite --max-idle 120 &
    python -m repro worker --store fab.sqlite --max-idle 120 &
    python -m repro validate --core a53 --profile fast \\
        --executor fabric --store fab.sqlite

Run from the repository root::

    PYTHONPATH=src python examples/distributed_campaign.py
"""

import os
import tempfile
import threading

from repro.engine.executors import FabricExecutor
from repro.fabric import FabricWorker, status_snapshot
from repro.hardware.board import FireflyRK3399
from repro.store import open_store
from repro.validation.campaign import BudgetProfile, ValidationCampaign
from repro.workloads.microbench import get_microbenchmark

# A small-but-real campaign: 8 kernels, tiny tuning budget.
PROFILE = BudgetProfile("example", 120, 120, first_test=4, n_elites=2,
                        microbench_scale=0.5)
WORKLOADS = [get_microbenchmark(n)
             for n in ("ED1", "EM1", "MD", "ML2", "CCh", "CS1", "STc", "DPT")]


def serial_run(board):
    campaign = ValidationCampaign(board, core="a53", profile=PROFILE,
                                  seed=3, workloads=WORKLOADS)
    try:
        return campaign.run(stages=1)
    finally:
        campaign.close()


def fabric_run(board, store_path):
    # Two workers drain the queue while the campaign drives it. In
    # production these are separate processes; threads keep the example
    # self-contained (each worker still talks to the file like a
    # stranger — own connections, leases, heartbeats).
    workers = [FabricWorker(store_path, lease=10.0, poll=0.02, max_idle=60)
               for _ in range(2)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()

    store = open_store(store_path)
    campaign = ValidationCampaign(
        board, core="a53", profile=PROFILE, seed=3, workloads=WORKLOADS,
        store=store, executor="fabric",
    )
    try:
        result = campaign.run(stages=1)
    finally:
        campaign.close()
        for w in workers:
            w.stop()
        for t in threads:
            t.join(timeout=10)
        store.close()
    return result


def main():
    board = FireflyRK3399()
    print("serial campaign ...")
    serial = serial_run(board)
    print(f"  final mean CPI error: {serial.tuned_mean_error:.2%}")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "fab.sqlite")
        print("distributed campaign (2 workers) ...")
        fabric = fabric_run(board, store_path)
        print(f"  final mean CPI error: {fabric.tuned_mean_error:.2%}")

        assert fabric.final_errors == serial.final_errors, "runs diverged!"
        print("distributed == serial, per-workload errors identical")

        snap = status_snapshot(store_path)
        print(f"queue after the run: {snap['queue']}")
        for worker in snap["workers"]:
            print(f"  {worker['worker_id']}: {worker['tasks_done']} tasks, "
                  f"{worker['unique_trials']} unique trials, "
                  f"{worker['store_hits']} store hits")


if __name__ == "__main__":
    main()
