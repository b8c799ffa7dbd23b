"""Remote-fleet crash tolerance: the acceptance proof over HTTP.

The local fabric's byte-identity guarantee
(``tests/test_fabric_recovery.py``) re-proven with every hop over the
wire: a ``repro serve`` subprocess fronts the store, two ``repro
worker --url`` subprocesses execute, and the campaign output must be
byte-identical to a serial run even when

- one worker is SIGKILLed mid-stage (its lease expires server-side and
  the survivor reclaims the task), and
- the *server itself* is SIGKILLed and restarted mid-campaign (all
  state is in the SQLite file; clients ride out the gap in their
  connection-retry loop).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.service.client import HttpQueue, ServiceError

TOKEN = "recovery-test-secret"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TOKEN"] = TOKEN
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_serve(store_path, port):
    """A real ``repro serve`` subprocess on a fixed port."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_path),
         "--port", str(port)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def spawn_worker(url, *extra):
    """A real ``repro worker --url`` subprocess (token via REPRO_TOKEN)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--url", url,
         "--poll", "0.05", *extra],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_until_serving(url, timeout=20.0):
    queue = HttpQueue(url, token=TOKEN, max_retries=0)
    assert wait_for(lambda: _pings(queue), timeout=timeout), \
        f"service at {url} never came up"


def _pings(queue) -> bool:
    try:
        queue.counts()
        return True
    except ServiceError:
        return False


#: Tiny-but-real campaign settings (mirrors test_fabric_recovery).
CAMPAIGN_ARGS = ["--core", "a53", "--profile", "fast", "--stages", "1",
                 "--seed", "7"]


def run_validate(tmp_path, out_name, *extra):
    out = tmp_path / out_name
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "validate", *CAMPAIGN_ARGS,
         "--out", str(out), *extra],
        env=_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out.read_bytes()


class TestPipelinedWorkerSigkill:
    """A worker dying with a stocked prefetch pipeline strands nothing.

    The pipelined worker holds several leases at once — the task it is
    executing plus ``PREFETCH_DEPTH`` prefetched-but-unstarted ones.
    SIGKILL it mid-stock: every held lease must expire cleanly, a
    survivor must drain the whole plan within the attempt budget, and
    the results must be identical to a serial engine's.

    The plan is led by a short sleep task, so the victim is provably
    mid-task (and has prefetched behind it) when it is killed, rather
    than racing to drain all 16 simulations first.
    """

    LEAD = "chaos-lead-sleep"

    def test_sigkill_with_prefetched_tasks_still_matches_serial(
            self, tmp_path):
        from repro.core.config import cortex_a53_public_config
        from repro.engine import EvaluationEngine
        from repro.fabric import KIND_SLEEP, expand_grid, plan_simulations
        from repro.store import open_store
        from repro.store.serialize import stats_to_payload
        from repro.workloads.microbench import MICROBENCHMARKS

        scale = 0.5
        names = ["CCa", "ED1", "MD", "STc"]
        grid = {"l1d.size": [16384, 32768], "branch.btb_entries": [256, 512]}
        items = expand_grid(cortex_a53_public_config(), grid, names,
                            scale=scale)
        plan = plan_simulations(items)

        # Serial reference, fully in-process.
        workloads = [MICROBENCHMARKS[n] for n in names]
        with EvaluationEngine(workloads=workloads, scale=scale) as engine:
            serial = engine.simulate_batch(
                [(config, workload) for config, workload, *_rest in items])

        store_path = tmp_path / "svc.sqlite"
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        server = spawn_serve(store_path, port)
        victim = survivor = None
        try:
            wait_until_serving(url)
            queue = HttpQueue(url, token=TOKEN)
            # Enqueued first, so claimed first: the victim sleeps in it
            # while the simulations claimed with it wait behind it.
            queue.enqueue([(self.LEAD, KIND_SLEEP, {"seconds": 3.0})],
                          submitted_by="chaos")
            queue.enqueue(plan.tasks, submitted_by="chaos")

            # Short lease: the stranded prefetch leases expire fast.
            victim = spawn_worker(url, "--lease", "2", "--max-idle", "60")
            assert wait_for(
                lambda: queue.counts()["leased"] >= 2
                and queue.states([self.LEAD])[self.LEAD] == "leased",
                timeout=60), "victim never stocked its prefetch pipeline"
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            survivor = spawn_worker(url, "--lease", "5", "--max-idle", "120")
            assert wait_for(
                lambda: queue.counts()["done"] == len(plan.tasks) + 1,
                timeout=180), f"queue never drained: {queue.counts()}"

            counts = queue.counts()
            assert counts["dead"] == 0, \
                "expired prefetch leases burned the attempt budget"
            assert counts["queued"] == 0 and counts["leased"] == 0

            remote_store = open_store(url, token=TOKEN)
            remote = remote_store.get_sims(plan.keys)
            remote_store.close()
            assert [stats_to_payload(remote[key]) for key in plan.keys] \
                == [stats_to_payload(stats) for stats in serial], \
                "post-crash fleet results diverged from serial"
        finally:
            for proc in (victim, survivor, server):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                if proc is not None:
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        pass


class TestRemoteFleetByteIdentity:
    def test_http_campaign_with_sigkill_and_server_restart_matches_serial(
            self, tmp_path):
        serial = run_validate(tmp_path, "serial.json")

        store_path = tmp_path / "svc.sqlite"
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        server = spawn_serve(store_path, port)
        workers = []
        try:
            wait_until_serving(url)
            workers = [spawn_worker(url, "--lease", "5", "--max-idle", "120")
                       for _ in range(2)]
            victim = workers[0]
            monitor = HttpQueue(url, token=TOKEN, max_retries=2)
            flags = {"killed_worker": False, "restarted_server": False}

            def chaos():
                """SIGKILL a worker at first lease; then bounce the server."""
                deadline = time.monotonic() + 180
                while time.monotonic() < deadline:
                    try:
                        counts = monitor.counts()
                    except ServiceError:
                        counts = None
                    if counts is not None:
                        if (not flags["killed_worker"]
                                and counts["leased"] >= 1):
                            victim.send_signal(signal.SIGKILL)
                            flags["killed_worker"] = True
                        elif (flags["killed_worker"]
                                and not flags["restarted_server"]
                                and counts["done"] >= 5):
                            server.send_signal(signal.SIGKILL)
                            server.wait(timeout=10)
                            replacement = spawn_serve(store_path, port)
                            servers.append(replacement)
                            flags["restarted_server"] = True
                            return
                    time.sleep(0.2)

            servers = [server]
            thread = threading.Thread(target=chaos, daemon=True)
            thread.start()
            fabric = run_validate(tmp_path, "fabric.json",
                                  "--executor", "fabric",
                                  "--store", str(store_path))
            thread.join(timeout=10)
            assert flags["killed_worker"], "victim worker was never killed"
            assert flags["restarted_server"], "server was never restarted"
            assert victim.poll() is not None
            server = servers[-1]

            assert fabric == serial, \
                "remote-fleet campaign JSON diverged from serial"
            payload = json.loads(serial)
            assert payload["core"] == "a53" and payload["final_errors"]

            # Queue fully drained through every failure: nothing dead,
            # nothing outstanding.
            wait_until_serving(url)
            final = HttpQueue(url, token=TOKEN)
            counts = final.counts()
            assert counts["dead"] == 0
            assert counts["queued"] == 0 and counts["leased"] == 0
        finally:
            for proc in [*workers, server]:
                if proc.poll() is None:
                    proc.kill()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
