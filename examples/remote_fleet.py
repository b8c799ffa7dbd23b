"""Remote fleet: the same distributed campaign, but over HTTP.

``distributed_campaign.py`` fans a campaign out over workers that share
a SQLite store *file*. This example removes the shared filesystem: an
``ExperimentService`` fronts the store over HTTP, and the workers talk
to it by URL — exactly what ``repro worker --url`` does from another
host. The results are still byte-identical to a serial run, because
every task is keyed by the content hash the store itself uses.

In real use the pieces are separate processes on separate machines::

    export REPRO_TOKEN=$(python -c 'import secrets; print(secrets.token_hex(16))')
    python -m repro serve --store fleet.sqlite --host 0.0.0.0 &
    # on each worker host:
    python -m repro worker --url http://fleet-host:8537 --max-idle 120 &
    # on the driver host:
    python -m repro validate --core a53 --profile fast \\
        --executor fabric --store fleet.sqlite

Run from the repository root::

    PYTHONPATH=src python examples/remote_fleet.py
"""

import os
import tempfile
import threading

from repro.fabric import FabricWorker
from repro.hardware.board import FireflyRK3399
from repro.service.client import fetch_status
from repro.service.server import ExperimentService
from repro.store import open_store
from repro.validation.campaign import BudgetProfile, ValidationCampaign
from repro.workloads.microbench import get_microbenchmark

TOKEN = "example-fleet-token"

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


def fleet_run(board, store_path):
    # The service owns the store file; everyone else talks HTTP. Port 0
    # picks a free ephemeral port — ``service.url`` is the address.
    service = ExperimentService(store_path, token=TOKEN, port=0)
    service.start()
    print(f"  service listening at {service.url}")

    # Two workers connected purely by URL: no shared filesystem, traces
    # cached per-host under $TMPDIR. In production these are separate
    # ``repro worker --url`` processes on other machines.
    workers = [FabricWorker(service.url, token=TOKEN, lease=10.0,
                            poll=0.02, max_idle=60)
               for _ in range(2)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()

    # The driver, too, can live on another host: open_store() accepts
    # the service URL and reads/writes through the same wire.
    store = open_store(service.url, token=TOKEN)
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
        snap = fetch_status(service.url, token=TOKEN)
        store.close()
        service.stop()
        service.close()
    return result, snap


def main():
    board = FireflyRK3399()
    print("serial campaign ...")
    serial = serial_run(board)
    print(f"  final mean CPI error: {serial.tuned_mean_error:.2%}")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "fleet.sqlite")
        print("remote-fleet campaign (serve + 2 workers over HTTP) ...")
        fleet, snap = fleet_run(board, store_path)
        print(f"  final mean CPI error: {fleet.tuned_mean_error:.2%}")

        assert fleet.final_errors == serial.final_errors, "runs diverged!"
        print("remote fleet == serial, per-workload errors identical")

        print(f"queue after the run: {snap['queue']}")
        for worker in snap["workers"]:
            print(f"  {worker['worker_id']}: {worker['tasks_done']} tasks, "
                  f"{worker['unique_trials']} unique trials, "
                  f"{worker['store_hits']} store hits")


if __name__ == "__main__":
    main()
