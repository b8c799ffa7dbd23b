"""Worker processes and the experiment service for the fleet workloads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")


class Fleet:
    """``n`` worker processes draining one store spec.

    Each worker is ``worker.py`` in its own process; closing its
    standard input asks it to stop (see that file). A service token
    travels in ``env`` as ``REPRO_TOKEN``, never on a command line.
    """

    def __init__(self, spec: str, n: int, env: dict, log_dir: str,
                 tag: str, trace_dir: str = None) -> None:
        self.spec = spec
        self.ids = [f"{tag}-w{i}" for i in range(n)]
        self.env = env
        self.log_dir = log_dir
        self.trace_dir = trace_dir
        self.procs: list = []
        self.results: list = []
        #: Workers that had to be killed or exited badly.
        self.failures = 0

    def start(self) -> None:
        """Launch every worker process (does not wait for them)."""
        for worker_id in self.ids:
            cmd = [sys.executable, WORKER, self.spec, worker_id]
            if self.trace_dir:
                cmd += ["--trace-dir", self.trace_dir]
            log = open(os.path.join(self.log_dir, f"{worker_id}.log"), "wb")
            try:
                proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, stderr=log,
                                        env=self.env)
            finally:
                log.close()
            self.procs.append(proc)

    def wait_registered(self, queue, timeout: float = 120.0) -> None:
        """Block until every worker has its row in the queue."""
        deadline = time.monotonic() + timeout
        wanted = set(self.ids)
        while True:
            seen = {row["worker_id"] for row in queue.workers()}
            if wanted <= seen:
                return
            dead = [p.args[3] for p in self.procs if p.poll() is not None]
            if dead:
                raise RuntimeError(f"fleet workers exited during start: {dead}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"workers not registered: {sorted(wanted - seen)}")
            time.sleep(0.02)

    def stop(self, timeout: float = 60.0) -> list:
        """Stop every worker cleanly and collect their JSON reports."""
        for proc in self.procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for proc in self.procs:
            # A worker writes one short line, so waiting before reading
            # cannot block on a full pipe.
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.failures += 1
            lines = proc.stdout.read().decode("utf-8", "replace").splitlines()
            proc.stdout.close()
            if proc.returncode != 0 or not lines:
                self.failures += 1
                continue
            self.results.append(json.loads(lines[-1]))
        self.procs = []
        return self.results

    def wire_totals(self) -> dict:
        """Wire counters summed over every stopped worker."""
        total: dict = {}
        for report in self.results:
            for name, value in (report.get("telemetry") or {}).items():
                if name.startswith("wire_"):
                    total[name] = total.get(name, 0) + value
        return total
