"""Experiment service: auth, versioning, backpressure, retries, stores.

Everything here runs against a real in-process
:class:`~repro.service.server.ExperimentService` — no mocked HTTP —
because the wire behaviours under test (status codes, headers, retry
timing) only exist on a real socket.
"""

import collections
import contextlib
import http.client
import http.server
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro.service.client import (
    HttpBackend,
    HttpQueue,
    ServiceClient,
    ServiceError,
    fetch_status,
)
from repro.service.protocol import (
    API_PREFIX,
    MAX_BODY,
    MAX_CLAIM_COUNT,
    TOKEN_ENV,
    WIRE_HEADER,
    WIRE_VERSION,
    redact,
    resolve_token,
)
from repro.service.server import ExperimentService

TOKEN = "unit-test-secret"


@pytest.fixture()
def service(tmp_path):
    svc = ExperimentService(tmp_path / "svc.sqlite", token=TOKEN, port=0).start()
    yield svc
    svc.stop()
    svc.close()


def _raw_request(url, token=TOKEN, wire=str(WIRE_VERSION), method="GET",
                 endpoint="handshake", body=None):
    """A hand-built request, bypassing ServiceClient's conveniences."""
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    if wire is not None:
        headers[WIRE_HEADER] = wire
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(f"{url}{API_PREFIX}/{endpoint}",
                                     data=data, headers=headers, method=method)
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode())


class TestHandshakeAndVersioning:
    def test_handshake_reports_versions(self, service):
        status, card = _raw_request(service.url)
        assert status == 200
        assert card["service"] == "repro-serve"
        assert card["wire_version"] == WIRE_VERSION
        assert card["fabric_schema_version"] >= 1
        assert card["store_schema_version"] >= 1

    def test_wrong_wire_version_is_426(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, wire="999", method="GET",
                         endpoint="queue/counts")
        assert err.value.code == 426

    def test_handshake_is_version_exempt(self, service):
        # An old client must be able to *ask* what the server speaks.
        status, _card = _raw_request(service.url, wire=None)
        assert status == 200

    def test_client_rejects_version_skew(self, service, monkeypatch):
        import repro.service.client as client_mod

        monkeypatch.setattr(client_mod, "WIRE_VERSION", 999)
        client = ServiceClient(service.url, token=TOKEN, max_retries=0)
        with pytest.raises(ServiceError, match="wire version mismatch"):
            client.handshake()

    def test_a_v4_peer_fails_the_handshake(self, service, monkeypatch):
        """v5 changed the claim: a v4 client is refused on either side."""
        import repro.service.client as client_mod

        assert WIRE_VERSION == 5
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, wire="4", method="POST",
                         endpoint="queue/claim", body={"worker": "w", "count": 1})
        assert err.value.code == 426
        monkeypatch.setattr(client_mod, "WIRE_VERSION", 4)
        client = ServiceClient(service.url, token=TOKEN, max_retries=0)
        with pytest.raises(ServiceError, match="server .* speaks v5, this "
                                               "client v4"):
            client.handshake()


class TestAuth:
    def test_missing_token_is_401(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, token=None)
        assert err.value.code == 401

    def test_wrong_token_is_401(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, token="wrong")
        assert err.value.code == 401

    def test_client_does_not_retry_401(self, service):
        client = ServiceClient(service.url, token="wrong", max_retries=5)
        start = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.handshake()
        assert err.value.status == 401
        assert time.monotonic() - start < 1.0  # no backoff loop

    def test_server_refuses_to_start_without_token(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV, raising=False)
        with pytest.raises(ValueError, match="token"):
            ExperimentService(tmp_path / "x.sqlite")

    def test_token_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV, "from-env")
        svc = ExperimentService(tmp_path / "x.sqlite", port=0).start()
        try:
            assert svc.token == "from-env"
            # client side resolves the same variable
            queue = HttpQueue(svc.url)
            assert queue.enqueue([("k", "sleep", {})]) == 1
        finally:
            svc.stop()
            svc.close()

    def test_resolve_token_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV, "from-env")
        assert resolve_token("explicit") == "explicit"
        assert resolve_token(None) == "from-env"
        monkeypatch.delenv(TOKEN_ENV)
        assert resolve_token(None) is None


class TestRedaction:
    def test_redact(self):
        assert redact("boom secret boom", "secret") == "boom [redacted] boom"
        assert redact("text", None) == "text"
        assert redact(None, "secret") is None

    def test_status_snapshot_never_contains_token(self, service):
        snap = fetch_status(service.url, token=TOKEN)
        assert TOKEN not in json.dumps(snap)

    def test_server_log_lines_are_redacted(self, tmp_path):
        lines = []
        svc = ExperimentService(tmp_path / "log.sqlite", token=TOKEN,
                                port=0, progress=lines.append).start()
        try:
            fetch_status(svc.url, token=TOKEN)
        finally:
            svc.stop()
            svc.close()
        assert lines  # request logging happened
        assert all(TOKEN not in line for line in lines)

    def test_http_queue_fail_redacts_error_text(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        queue.enqueue([("k", "sleep", {})])
        task = queue.claim("w1")
        queue.fail(task.key, "w1", f"exploded with {TOKEN} in the message")
        assert TOKEN not in queue.errors("k")


class TestBackpressure:
    def test_enqueue_429_with_retry_after_when_full(self, tmp_path):
        svc = ExperimentService(tmp_path / "bp.sqlite", token=TOKEN,
                                port=0, max_depth=2).start()
        try:
            queue = HttpQueue(svc.url, token=TOKEN)
            assert queue.enqueue([("a", "sleep", {}), ("b", "sleep", {})]) == 2
            with pytest.raises(urllib.error.HTTPError) as err:
                _raw_request(svc.url, method="POST", endpoint="queue/enqueue",
                             body={"tasks": [["c", "sleep", {}]]})
            assert err.value.code == 429
            assert float(err.value.headers["Retry-After"]) > 0
            # Draining makes room again.
            task = queue.claim("w1")
            queue.complete(task.key, "w1")
            assert queue.enqueue([("c", "sleep", {})]) == 1
        finally:
            svc.stop()
            svc.close()

    def test_client_retries_through_backpressure(self, tmp_path):
        svc = ExperimentService(tmp_path / "bp2.sqlite", token=TOKEN,
                                port=0, max_depth=1).start()
        try:
            queue = HttpQueue(svc.url, token=TOKEN, max_retries=20)
            assert queue.enqueue([("a", "sleep", {})]) == 1

            def drain():
                time.sleep(0.3)
                local = HttpQueue(svc.url, token=TOKEN)
                task = local.claim("drainer")
                local.complete(task.key, "drainer")

            thread = threading.Thread(target=drain)
            thread.start()
            # Blocks in the 429 retry loop until the drainer makes room.
            assert queue.enqueue([("b", "sleep", {})]) == 1
            thread.join()
        finally:
            svc.stop()
            svc.close()


class TestRetries:
    def test_connection_refused_retries_until_server_up(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        box = {}

        def start_late():
            time.sleep(0.5)
            box["svc"] = ExperimentService(tmp_path / "late.sqlite",
                                           token=TOKEN, port=port).start()

        thread = threading.Thread(target=start_late)
        thread.start()
        try:
            # Connects before the server exists; backoff bridges the gap.
            queue = HttpQueue(url, token=TOKEN, max_retries=12)
            assert queue.enqueue([("k", "sleep", {})]) == 1
        finally:
            thread.join()
            box["svc"].stop()
            box["svc"].close()

    def test_transient_500_is_retried(self, service, monkeypatch):
        real_counts = service.queue.counts
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient wobble")
            return real_counts()

        monkeypatch.setattr(service.queue, "counts", flaky)
        queue = HttpQueue(service.url, token=TOKEN, max_retries=4)
        assert queue.counts() == {"queued": 0, "leased": 0,
                                  "done": 0, "dead": 0}
        assert calls["n"] == 2

    def test_retry_budget_exhausts_into_service_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", token=TOKEN,
                               max_retries=1, backoff=0.01)
        with pytest.raises(ServiceError, match="after 2 attempts"):
            client.handshake()


class TestHttpStore:
    def test_open_store_url_roundtrip(self, service):
        from repro.core.stats import SimStats
        from repro.store import open_store
        from repro.store.serialize import stats_to_payload

        remote = open_store(service.url, token=TOKEN)
        assert remote.backend.kind == "http"
        # Write through HTTP, read back through the server's own store.
        local_stats = service.store.stats()
        assert local_stats["sim_results"] == 0
        remote.backend.put("sim_results", "k1", '{"p":1}')
        assert service.store.backend.get("sim_results", "k1") == '{"p":1}'
        assert remote.backend.count("sim_results") == 1
        remote.close()

    def test_registry_and_checkpoints_pass_through(self, service):
        from repro.store import open_store

        remote = open_store(service.url, token=TOKEN)
        record = remote.registry.create("validate", core="a53",
                                        params={"profile": "fast"})
        remote.put_checkpoint(record.run_id, "stage-1", {"alive": [1, 2]})
        assert remote.get_checkpoint(record.run_id, "stage-1") == {
            "alive": [1, 2]}
        # Visible from the server's local handle: same rows, one file.
        assert service.store.registry.get(record.run_id).core == "a53"
        remote.close()

    def test_restart_preserves_state(self, tmp_path):
        path = tmp_path / "durable.sqlite"
        svc = ExperimentService(path, token=TOKEN, port=0).start()
        queue = HttpQueue(svc.url, token=TOKEN)
        queue.enqueue([(f"k{i}", "sleep", {}) for i in range(3)])
        port = svc.port
        svc.stop()
        svc.close()
        svc2 = ExperimentService(path, token=TOKEN, port=port).start()
        try:
            queue2 = HttpQueue(svc2.url, token=TOKEN)
            assert queue2.depth() == 3
        finally:
            svc2.stop()
            svc2.close()


class TestWireEfficiency:
    """Wire-speed machinery: compression, fused endpoints, telemetry."""

    def test_large_bodies_compress_and_round_trip(self, service):
        from repro.service.protocol import COMPRESS_THRESHOLD

        backend = HttpBackend(service.url, token=TOKEN)
        try:
            # Values well past the threshold in both directions.
            big = json.dumps({"blob": "x" * (4 * COMPRESS_THRESHOLD)})
            items = [(f"big-{i}", big) for i in range(4)]
            backend.put_many("sim_results", items)
            values = backend.get_many("sim_results",
                                      [key for key, _v in items] + ["nope"])
            assert all(values[key] == big for key, _v in items)
            assert values["nope"] is None
            tel = backend.client.telemetry()
            # Request body (put_many) and response body (get_many) both
            # crossed compressed.
            assert tel["wire_compressed_bodies"] >= 2
            # ... and the wire carried fewer bytes than the payload.
            assert tel["wire_bytes_out"] < sum(len(v) for _k, v in items)
        finally:
            backend.close()

    def test_small_bodies_stay_uncompressed(self, service):
        backend = HttpBackend(service.url, token=TOKEN)
        try:
            backend.put("sim_results", "small", '{"p":1}')
            assert backend.get("sim_results", "small") == '{"p":1}'
            assert backend.client.telemetry()["wire_compressed_bodies"] == 0
        finally:
            backend.close()

    def test_telemetry_counts_requests_and_bytes(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([("k1", "sleep", {})])
            queue.depth()
            tel = queue.client.telemetry()
            assert tel["wire_requests"] >= 2
            assert tel["wire_bytes_out"] > 0 and tel["wire_bytes_in"] > 0
            assert tel["wire_retries"] == 0
        finally:
            queue.close()

    def test_claim_many_prechecked_piggybacks_store_rows(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([("pk-0", "sleep", {}), ("pk-1", "sleep", {})])
            # One of the two keys already has a stored result.
            service.store.backend.put("sim_results", "pk-0", '{"done":1}')
            tasks, rows = queue.claim_many_prechecked("w1", 2)
            assert [t.key for t in tasks] == ["pk-0", "pk-1"]
            assert rows == {"pk-0": '{"done":1}', "pk-1": None}
        finally:
            queue.close()

    def test_claim_many_prechecked_empty_queue(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            assert queue.claim_many_prechecked("w1", 4) == ([], {})
        finally:
            queue.close()

    def test_complete_with_results_persists_rows_before_ack(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([("fc-0", "sleep", {})])
            task = queue.claim("w1")
            oks = queue.complete_many_with_results(
                [(task.key, "w1")], [("res-key", '{"ipc":2}')])
            assert oks == [True]
            assert queue.states(["fc-0"]) == {"fc-0": "done"}
            # The fused request wrote the store row on the server.
            assert service.store.backend.get("sim_results", "res-key") \
                == '{"ipc":2}'
        finally:
            queue.close()

    def test_complete_with_results_rows_survive_lost_lease(self, service):
        """Result rows land even when every ack is rejected (idempotent,
        content-addressed writes are never wasted)."""
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([("ll-0", "sleep", {})])
            task = queue.claim("w1", lease_seconds=0.01)
            time.sleep(0.05)
            assert queue.claim("w2") is not None  # steals the lease
            oks = queue.complete_many_with_results(
                [(task.key, "w1")], [("ll-res", '{"ipc":1}')])
            assert oks == [False]
            assert service.store.backend.get("sim_results", "ll-res") \
                == '{"ipc":1}'
        finally:
            queue.close()


class TestFusedClaim:
    """``queue/claim`` carries result rows and acks, written before it
    claims, and a sent request's reply is read later."""

    def test_acks_commit_before_the_claim_parks(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        watcher = HttpQueue(service.url, token=TOKEN)
        backend = HttpBackend(service.url, token=TOKEN)
        keys = ["fa-0", "fa-1"]
        rows = {"fa-res-0": '{"ipc":1}', "fa-res-1": '{"ipc":2}'}
        try:
            queue.enqueue([(key, "sleep", {}) for key in keys])
            tasks = queue.claim_many("w1", 2)
            start = time.monotonic()
            sent = queue.send_claim(
                "w1", 4, wait=2.0, completions=[(t.key, "w1") for t in tasks],
                results=list(rows.items()))
            while watcher.states(keys) != dict.fromkeys(keys, "done"):
                assert time.monotonic() - start < 1.0, "acks waited for the claim"
                time.sleep(0.01)
            seen = time.monotonic() - start
            assert backend.get_many("sim_results", list(rows)) == rows
            # The claim itself parked on the empty queue.
            assert queue.claim_many_prechecked("w1", 4, sent=sent) == ([], {})
            assert queue.complete_many_with_results([], (), sent=sent) == [
                True, True]
            assert time.monotonic() - start >= 1.9 > seen + 0.9
        finally:
            backend.close()
            watcher.close()
            queue.close()

    def test_fused_claim_acks_and_claims_in_one_request(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([(f"fc-{i}", "sleep", {}) for i in range(3)])
            (task,) = queue.claim_many("w1", 1)
            before = queue.client.telemetry()["wire_requests"]
            sent = queue.send_claim("w1", 2, completions=[(task.key, "w1"),
                                                          ("fc-2", "w1")])
            tasks, rows = queue.claim_many_prechecked("w1", 2, sent=sent)
            # fc-2 was not leased to w1 when the acks landed.
            assert queue.complete_many_with_results(
                [], (), sent=sent) == [True, False]
            assert queue.client.telemetry()["wire_requests"] == before + 1
            assert [t.key for t in tasks] == ["fc-1", "fc-2"]
            assert rows == {"fc-1": None, "fc-2": None}
            assert queue.states(["fc-0"]) == {"fc-0": "done"}
        finally:
            queue.close()

    def test_another_call_reads_the_unread_reply_first(self, service):
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([("ur-0", "sleep", {})])
            sent = queue.send_claim("w1", 1)
            # Same thread, same connection: the claim's reply is read
            # (and kept) before this request goes out.
            assert queue.states(["ur-0"]) == {"ur-0": "leased"}
            assert [t.key for t in queue.claim_many_prechecked(
                "w1", 1, sent=sent)[0]] == ["ur-0"]
        finally:
            queue.close()

    def test_a_failed_read_sends_the_request_again(self, service):
        """A reply lost with its connection is a failed attempt: the
        request goes out again on a fresh one."""
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            keys = ["fr-0", "fr-1"]
            queue.enqueue([(key, "sleep", {}) for key in keys])
            queue.counts()  # opens this thread's connection
            sent = queue.send_claim("w1", 1)
            sent.written[0].sock.close()  # the reply can no longer be read
            tasks, _rows = queue.claim_many_prechecked("w1", 1, sent=sent)
            # Both requests reached the server: each leased one task.
            assert len(tasks) == 1
            assert queue.states(keys) == dict.fromkeys(keys, "leased")
            assert queue.client.telemetry()["wire_retries"] == 1
        finally:
            queue.close()


class TestAdaptivePollBackoff:
    """Idle result loops must stop hammering the queue/server."""

    def test_pace_resets_after_a_delivery(self, monkeypatch):
        from repro.engine.executors import FabricExecutor, drain

        ex = FabricExecutor.__new__(FabricExecutor)
        ex.poll_interval = 0.01
        ex.poll_cap = 1.0
        sleeps = []
        monkeypatch.setattr("repro.engine.executors.time.sleep", sleeps.append)
        script = iter([{}] * 6 + [{(0, 0): "a"}, {}, {(0, 1): "b"}])
        results = {}
        for got in drain(ex, lambda: next(script), lambda: len(results) >= 2):
            results.update(got)
        assert results == {(0, 0): "a", (0, 1): "b"}
        # The idle pace had climbed; the first delivery reset it.
        assert sleeps[-1] == ex.poll_interval < sleeps[-2]


class TestWorkerOverHttp:
    @staticmethod
    def _drain_two_simulations(service):
        """Enqueue two simulations; one remote worker drains them."""
        from repro.core.config import cortex_a53_public_config
        from repro.fabric import FabricWorker, plan_simulations

        from repro.isa.decoder import Decoder

        config = cortex_a53_public_config()
        decoder = Decoder()
        items = [(config, "CCa", 0.25, {}, decoder),
                 (config, "ED1", 0.25, {}, decoder)]
        plan = plan_simulations(items)
        queue = HttpQueue(service.url, token=TOKEN)
        queue.enqueue(plan.tasks, submitted_by="test")
        queue.close()

        worker = FabricWorker(service.url, drain=True, token=TOKEN)
        assert worker.remote
        return plan, worker.run()

    def test_worker_drains_simulations_remotely(self, service):
        from repro.store import open_store

        plan, stats = self._drain_two_simulations(service)
        assert stats.completed == 2 and stats.failed == 0

        assert HttpQueue(service.url, token=TOKEN).counts()["done"] == 2
        remote = open_store(service.url, token=TOKEN)
        for key in plan.keys:
            assert remote.get_sim(key) is not None
        remote.close()

    def test_every_claim_carries_its_store_precheck(self, service, monkeypatch):
        """A drained worker never reads the store on its own: each claim,
        prefetch or idle, answers "already computed?" in its reply."""
        requests = collections.Counter()
        send = ServiceClient.send  # every request is written here

        def counting_send(client, method, endpoint, *args, **kwargs):
            requests[endpoint] += 1
            return send(client, method, endpoint, *args, **kwargs)

        monkeypatch.setattr(ServiceClient, "send", counting_send)
        _plan, stats = self._drain_two_simulations(service)
        assert stats.completed == 2 and stats.failed == 0
        assert requests["queue/claim"] >= 1
        assert requests["store/get-many"] == 0, dict(requests)


class TestExecutorOverHttp:
    def test_fabric_executor_against_service_url(self, service):
        """The driver itself can point at the service: engine store and
        executor queue both speak HTTP while a worker drains."""
        from repro.core.config import cortex_a53_public_config
        from repro.engine import EvaluationEngine
        from repro.engine.executors import FabricExecutor
        from repro.fabric import FabricWorker
        from repro.store import open_store
        from repro.workloads.microbench import MICROBENCHMARKS

        store = open_store(service.url, token=TOKEN)
        engine = EvaluationEngine(
            workloads=[MICROBENCHMARKS["CCa"]], scale=0.25,
            store=store, executor=FabricExecutor(store),
        )
        config = cortex_a53_public_config()

        done = threading.Event()

        def drain_loop():
            deadline = time.monotonic() + 30
            while not done.is_set() and time.monotonic() < deadline:
                FabricWorker(service.url, drain=True, token=TOKEN).run()
                time.sleep(0.05)

        thread = threading.Thread(target=drain_loop)
        thread.start()
        try:
            stats = engine.simulate(config, "CCa")
            assert stats.instructions > 0
        finally:
            done.set()
            thread.join()
            engine.close()
            store.close()

    @staticmethod
    def _submit_requests(tmp_path, n, stats):
        """Driver wire requests one ``submit_batch`` of ``n`` pairs costs,
        with every other pair's result already in the store."""
        from repro.core.config import cortex_a53_public_config
        from repro.engine import EvaluationEngine
        from repro.engine.executors import FabricExecutor
        from repro.store import open_store
        from repro.workloads.microbench import MICROBENCHMARKS

        svc = ExperimentService(tmp_path / f"n{n}.sqlite", token=TOKEN,
                                port=0).start()
        store = open_store(svc.url, token=TOKEN)
        executor = FabricExecutor(store)
        engine = EvaluationEngine(workloads=[MICROBENCHMARKS["CCa"]], scale=0.25,
                                  store=store, executor=executor)
        try:
            base = cortex_a53_public_config()
            pairs = [(base.with_updates({"l1d.hit_latency": i + 1}), "CCa")
                     for i in range(n)]
            store.put_sim_many([(engine.result_key(*pair), stats)
                                for pair in pairs[::2]])
            clients = (store.backend.client, executor.queue.client)
            before = sum(c.telemetry()["wire_requests"] for c in clients)
            ticket = engine.submit_batch(pairs)
            after = sum(c.telemetry()["wire_requests"] for c in clients)
            assert sorted(ticket.ready) == list(range(0, n, 2))
            assert len(ticket.pending) == n // 2
            return after - before
        finally:
            engine.close()
            store.close()
            svc.stop()
            svc.close()

    def test_submit_round_trips_do_not_grow_with_the_batch(self, tmp_path):
        """Store prechecks are one bulk read per batch, so the driver's
        request count for a submit is independent of its size."""
        from repro.core.config import cortex_a53_public_config
        from repro.engine import EvaluationEngine
        from repro.workloads.microbench import MICROBENCHMARKS

        with EvaluationEngine(workloads=[MICROBENCHMARKS["CCa"]],
                              scale=0.25) as local:
            stats = local.simulate(cortex_a53_public_config(), "CCa")
        small = self._submit_requests(tmp_path, 8, stats)
        large = self._submit_requests(tmp_path, 32, stats)
        assert small == large, (small, large)

    def test_submit_is_two_round_trips(self, tmp_path):
        """Once handshaken, a driver's ``submit_batch`` is one store
        read and one enqueue on the wire, however many pairs it has."""
        from repro.core.config import cortex_a53_public_config
        from repro.engine import EvaluationEngine
        from repro.engine.executors import FabricExecutor
        from repro.store import open_store
        from repro.workloads.microbench import MICROBENCHMARKS

        svc = ExperimentService(tmp_path / "two.sqlite", token=TOKEN,
                                port=0).start()
        store = open_store(svc.url, token=TOKEN)
        executor = FabricExecutor(store)
        engine = EvaluationEngine(workloads=[MICROBENCHMARKS["CCa"]], scale=0.25,
                                  store=store, executor=executor)
        clients = (store.backend.client, executor.queue.client)
        base = cortex_a53_public_config()
        try:
            requests = []
            for first in (1, 101):  # the first batch also pays the handshake
                pairs = [(base.with_updates({"l1d.hit_latency": first + i}), "CCa")
                         for i in range(16)]
                before = sum(c.telemetry()["wire_requests"] for c in clients)
                ticket = engine.submit_batch(pairs)
                requests.append(
                    sum(c.telemetry()["wire_requests"] for c in clients) - before)
                assert len(ticket.pending) == 16
            assert requests[1] == 2, requests
        finally:
            engine.close()
            store.close()
            svc.stop()
            svc.close()

    def test_unknown_backend_kind_rejected(self):
        from repro.engine.executors import FabricExecutor
        from repro.store import open_store

        with pytest.raises(ValueError, match="fabric executor"):
            FabricExecutor(open_store("memory"))


class TestBadRequests:
    def test_unknown_endpoint_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, endpoint="queue/nonsense")
        assert err.value.code == 404

    def test_malformed_json_400(self, service):
        request = urllib.request.Request(
            f"{service.url}{API_PREFIX}/queue/states",
            data=b"not json{", method="POST",
            headers={"Authorization": f"Bearer {TOKEN}",
                     WIRE_HEADER: str(WIRE_VERSION)},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_store_table_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, method="POST", endpoint="store/get-many",
                         body={"table": "nope; DROP TABLE", "keys": ["k"]})
        assert err.value.code == 400

    @pytest.mark.parametrize("body", [
        {"worker": "w", "count": "x"},
        {"count": 2},
        {"worker": 7, "count": 1},
        {"worker": "w"},
        {"worker": "w", "count": 0},
        {"worker": "w", "count": 1.0},
        {"worker": "w", "count": True},
        {"worker": "w", "count": MAX_CLAIM_COUNT + 1},
        {"worker": "w", "count": 10 ** 6},
        {"worker": "w", "count": 1, "wait": -1},
        {"worker": "w", "count": 1, "wait": "soon"},
        {"worker": "w", "count": 1, "wait": None},
    ])
    def test_malformed_claim_is_400_and_leases_nothing(self, service, body):
        service.queue.enqueue([("bad-claim", "sleep", {})])
        with pytest.raises(urllib.error.HTTPError) as err:
            _raw_request(service.url, method="POST", endpoint="queue/claim",
                         body=body)
        assert err.value.code == 400
        assert service.queue.counts()["queued"] == 1

    @pytest.mark.parametrize("field, value", [
        ("completions", {"key": "a-held", "worker": "w"}),
        ("completions", ["a-held"]),
        ("completions", [{"key": "a-held"}]),
        ("completions", [{"key": 3, "worker": "w"}]),
        ("completions", [{"key": "a-held", "worker": None}]),
        ("completions", None),
        ("results", {"res": "{}"}),
        ("results", [["res"]]),
        ("results", [["res", "{}", "x"]]),
        ("results", [["res", 1]]),
        ("results", ["res"]),
        ("results", None),
    ])
    def test_malformed_claim_acks_are_400_and_change_nothing(
            self, service, field, value):
        """A claim carrying malformed finished work is refused whole,
        with a 400 naming the field and no retry: nothing is written,
        acked or leased."""
        service.queue.enqueue([("a-held", "sleep", {}), ("b-queued", "sleep", {})])
        assert [t.key for t in service.queue.claim_many("w", 1)] == ["a-held"]
        body = {"worker": "w", "count": 1,
                "completions": [{"key": "a-held", "worker": "w"}],
                "results": [["res", "{}"]], field: value}
        client = ServiceClient(service.url, token=TOKEN, backoff=0.01)
        with pytest.raises(ServiceError) as err:
            client.call("POST", "queue/claim", body)
        assert err.value.status == 400
        assert f"'{field}'" in str(err.value)
        assert client.telemetry()["wire_retries"] == 0
        assert service.queue.states(["a-held", "b-queued"]) == {
            "a-held": "leased", "b-queued": "queued"}
        assert service.store.backend.get("sim_results", "res") is None

    def test_http_claim_asks_for_at_most_the_cap(self, service):
        """An oversized batch leases up to the cap instead of a 400."""
        queue = HttpQueue(service.url, token=TOKEN)
        try:
            queue.enqueue([(f"cap-{i:03d}", "sleep", {})
                           for i in range(MAX_CLAIM_COUNT + 2)])
            assert len(queue.claim_many("w1", 10 ** 6)) == MAX_CLAIM_COUNT
            assert len(queue.claim_many("w1", 10 ** 6)) == 2
        finally:
            queue.close()

    def test_client_does_not_retry_a_malformed_claim(self, service):
        client = ServiceClient(service.url, token=TOKEN, backoff=0.01)
        with pytest.raises(ServiceError) as err:
            client.call("POST", "queue/claim", {"count": 2})
        assert err.value.status == 400
        assert client.telemetry()["wire_retries"] == 0

    @pytest.mark.parametrize("length", ["-1", "-5", "abc", "1_0", "+3"])
    def test_malformed_content_length_is_400_and_closes(self, service, length):
        """A bad length is refused before any read, without a token.

        ``-1`` used to block the handler in ``rfile.read(-1)`` until the
        client hung up; ``abc`` and ``-5`` used to be 500s.
        """
        host, port = service.url[len("http://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.settimeout(1.0)
            sock.sendall(
                f"POST {API_PREFIX}/queue/states HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Length: {length}\r\n\r\n".encode())
            reply = b""
            while True:  # the server closes the connection after replying
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        status_line = reply.split(b"\r\n", 1)[0]
        assert status_line.split()[1] == b"400", reply
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]
        # The server is still serving well-formed requests.
        status, card = _raw_request(service.url)
        assert status == 200 and card["service"] == "repro-serve"


def _replies_until_eof(url, request: bytes, timeout=2.0):
    """Send raw ``request`` bytes; returns every reply received, whether
    the server then closed the connection within ``timeout`` seconds of
    quiet, and how long the exchange took."""
    host, port = url[len("http://"):].rsplit(":", 1)
    start = time.monotonic()
    reply, closed = b"", False
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    closed = True
                    break
                reply += chunk
        except socket.timeout:
            pass  # still open: the server is waiting for another request
    return reply, closed, time.monotonic() - start


def _status_codes(reply: bytes) -> list:
    """Status of every reply in ``reply`` (a reply may follow the
    previous one's body on the same line)."""
    return [int(code) for code in re.findall(rb"HTTP/1\.[01] (\d{3}) ", reply)]


def _deflate_bomb(size=64 << 20) -> bytes:
    """``size`` zero bytes, deflated (about a thousandth of the size)."""
    deflater = zlib.compressobj()
    chunk = bytes(1 << 20)
    return b"".join(deflater.compress(chunk) for _ in range(size >> 20)) + deflater.flush()


class TestBodyFraming:
    """No reply goes out while a request body is unread and the
    connection stays open, and no body exceeds ``MAX_BODY``."""

    @pytest.mark.parametrize("token", [TOKEN, None], ids=["authed", "anonymous"])
    def test_unread_body_is_never_parsed_as_a_request(self, service, token):
        smuggled = (f"GET {API_PREFIX}/handshake HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n").encode()
        auth = f"Authorization: Bearer {token}\r\n" if token else ""
        request = (f"POST /nope HTTP/1.1\r\nHost: x\r\n{auth}"
                   f"Content-Length: {len(smuggled)}\r\n\r\n").encode() + smuggled
        reply, closed, _elapsed = _replies_until_eof(service.url, request)
        assert _status_codes(reply) == [404 if token else 401], reply
        assert closed

    def test_anonymous_large_declared_body_is_refused_unread(self, service):
        request = (f"POST {API_PREFIX}/queue/states HTTP/1.1\r\nHost: x\r\n"
                   f"Content-Length: {MAX_BODY}\r\n\r\n").encode()
        reply, closed, elapsed = _replies_until_eof(service.url, request)
        assert _status_codes(reply) == [401], reply
        assert closed and elapsed < 1.0

    def test_declared_body_above_limit_is_413_unread(self, service):
        request = (f"POST {API_PREFIX}/queue/states HTTP/1.1\r\nHost: x\r\n"
                   f"Authorization: Bearer {TOKEN}\r\n"
                   f"Content-Length: {MAX_BODY + 1}\r\n\r\n").encode()
        reply, closed, elapsed = _replies_until_eof(service.url, request)
        assert _status_codes(reply) == [413], reply
        assert closed and elapsed < 1.0

    def test_keep_alive_serves_consecutive_requests(self, service):
        host, port = service.url[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        headers = {"Authorization": f"Bearer {TOKEN}",
                   WIRE_HEADER: str(WIRE_VERSION)}
        try:
            conn.request("GET", f"{API_PREFIX}/handshake", headers=headers)
            first = conn.getresponse()
            assert first.status == 200 and json.loads(first.read())["service"]
            sock = conn.sock
            conn.request("POST", f"{API_PREFIX}/queue/states",
                         body=json.dumps({"keys": []}), headers=headers)
            second = conn.getresponse()
            assert second.status == 200, second.read()
            second.read()
            assert conn.sock is sock  # one connection served both
        finally:
            conn.close()

    def test_deflate_bomb_request_is_413(self, service):
        request = urllib.request.Request(
            f"{service.url}{API_PREFIX}/queue/states", data=_deflate_bomb(),
            method="POST",
            headers={"Authorization": f"Bearer {TOKEN}",
                     WIRE_HEADER: str(WIRE_VERSION),
                     "Content-Encoding": "deflate"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 413

    @pytest.mark.parametrize("encoding", ["deflate", None], ids=["bomb", "raw"])
    def test_oversized_response_is_a_service_error(self, encoding):
        body = _deflate_bomb() if encoding else b" " * (MAX_BODY + 1)
        with _stub_client(body, encoding) as client:
            with pytest.raises(ServiceError, match="limit"):
                client.handshake()

    @pytest.mark.parametrize("body", [b'{"wire": 1, "queue', b" " * 64],
                             ids=["truncated", "spaces"])
    def test_undecodable_success_body_is_a_service_error(self, body):
        with _stub_client(body) as client:
            with pytest.raises(ServiceError, match="undecodable") as err:
                client.handshake()
        assert err.value.status == 200


@contextlib.contextmanager
def _stub_client(body: bytes, encoding: str = None):
    """A client of a stub server that answers every GET 200 with ``body``."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 — http.server API
            self.send_response(200)
            if encoding:
                self.send_header("Content-Encoding", encoding)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client stopped reading at the limit

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                            token=TOKEN, max_retries=0)
    finally:
        server.shutdown()
        server.server_close()
