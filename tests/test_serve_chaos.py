"""Chaos suite: the serving stack under an armed :class:`FaultPlan`.

Every scenario injects a real fault — a reply dropped mid-frame, a stalled
dispatch, corrupted frame bytes, a full batch queue, a publisher killed
between write and link, a worker process killed mid-chunk — and asserts the
stack degrades the way DESIGN.md §8 promises: the client's retry policy
recovers, the server keeps serving, the registry quarantines and falls
back, and the GA result is bit-identical to the fault-free serial run.

``REPRO_CHAOS_SEED`` selects the fault/jitter seed (the CI chaos job runs
three fixed seeds); the module dumps the accumulated obs registry to
``reports/metrics_chaos_<seed>.jsonl`` so every injected fault is visible
in the uploaded artifact.
"""

import json
import socket
import struct

import asyncio
import os
import time

import pytest

from repro import faults, obs
from repro.core.genetic import GeneticSearch
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.obs.export import default_report_dir, snapshot_to_jsonl
from repro.serve import (
    BatchConfig,
    ModelKey,
    ModelRegistry,
    ServeClient,
    ServerThread,
)
from repro.serve.bootstrap import build_service, demo_dataset, outlier_profiles
from repro.serve.registry import QUARANTINE_DIR
from repro.stream import DriftConfig

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Fast deterministic backoff so injected faults cost milliseconds.
FAST_RETRY = RetryPolicy(base_delay_s=0.01, max_delay_s=0.1, seed=CHAOS_SEED)

_LENGTH = struct.Struct(">I")


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module", autouse=True)
def _chaos_report():
    """Dump everything this module counted for the CI artifact upload."""
    yield
    report_dir = default_report_dir()
    if report_dir is None:
        return
    text = snapshot_to_jsonl(obs.snapshot(), run=f"chaos-seed{CHAOS_SEED}")
    (report_dir / f"metrics_chaos_{CHAOS_SEED}.jsonl").write_text(text + "\n")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    server, serving, registry = build_service(
        demo_dataset(seed=0),
        tmp_path_factory.mktemp("registry"),
        generations=1,
        population_size=6,
        batch_config=BatchConfig(max_batch=32, max_latency_s=0.001),
        request_deadline_s=0.3,
    )
    with ServerThread(server) as thread:
        yield server, serving, registry, thread.port
    serving.close()


@pytest.fixture
def client(service):
    *_, port = service
    with ServeClient(port=port, timeout=2.0, retry=FAST_RETRY) as c:
        yield c


def _count(name):
    return obs.counter(name).value


# -- client retry policy vs injected transport faults ----------------------------------


class TestClientRecovers:
    def test_reply_dropped_mid_frame(self, client):
        """The server dies mid-reply; the client reconnects and retries."""
        before_retries = _count("client.retries")
        before_drops = _count("serve.dropped_connections")
        plan = FaultPlan.parse("serve.write_frame=drop@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            assert client.ping()
        assert plan.injected_counts() == [1]
        assert _count("client.retries") >= before_retries + 1
        assert _count("serve.dropped_connections") >= before_drops + 1
        assert _count("faults.serve.write_frame") >= 1

    def test_delayed_dispatch_hits_request_deadline(self, client):
        """An injected stall trips the per-request deadline; the 408 is
        retryable and the second attempt answers instantly."""
        before_retries = _count("client.retries")
        before_deadline = _count("serve.deadline_timeouts")
        plan = FaultPlan.parse("serve.dispatch=delay:5.0@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            assert client.ping()
        assert plan.injected_counts() == [1]
        assert _count("serve.deadline_timeouts") >= before_deadline + 1
        assert _count("client.retries") >= before_retries + 1

    def test_corrupted_reply_frame(self, client):
        """Flipped bytes on the wire unframe the reply; the client tears
        the connection down and retries clean."""
        plan = FaultPlan.parse("serve.write_frame=corrupt@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            reply = client.info()
        assert reply["ok"] and reply["model_version"] >= 1
        assert plan.injected_counts() == [1]
        assert _count("faults.action.corrupt") >= 1

    def test_queue_full_429_then_retry(self, client):
        """A transient 429 backs off on the same connection and succeeds."""
        before_retries = _count("client.retries")
        before_429 = _count("serve.rejected_429")
        plan = FaultPlan.parse(
            "serve.dispatch=raise:queue_full@1", seed=CHAOS_SEED
        )
        with faults.armed(plan):
            reply = client.predict([0.1, 0.2, 0.3], [1.0, 1.5])
        assert reply["ok"]
        assert plan.injected_counts() == [1]
        assert _count("serve.rejected_429") == before_429 + 1
        assert _count("client.retries") == before_retries + 1


# -- server-side degradation on hostile frames -----------------------------------------


def _raw_exchange(sock, frame):
    sock.sendall(frame)
    header = b""
    while len(header) < _LENGTH.size:
        chunk = sock.recv(_LENGTH.size - len(header))
        if not chunk:
            raise ConnectionError("closed")
        header += chunk
    (length,) = _LENGTH.unpack(header)
    body = b""
    while len(body) < length:
        body += sock.recv(length - len(body))
    return json.loads(body.decode("utf-8"))


class TestServerDegradation:
    def test_corrupt_body_gets_400_and_connection_survives(self, service):
        *_, port = service
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            garbage = b"\x00{not json at all"
            reply = _raw_exchange(sock, _LENGTH.pack(len(garbage)) + garbage)
            assert reply == {
                "ok": False,
                "status": 400,
                "error": reply["error"],
            }
            # The framing survived, so the SAME connection still serves.
            good = json.dumps({"op": "ping"}).encode()
            reply = _raw_exchange(sock, _LENGTH.pack(len(good)) + good)
            assert reply["ok"]
        assert _count("serve.bad_frames") >= 1

    def test_bogus_length_prefix_gets_413_then_close(self, service):
        *_, port = service
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            reply = _raw_exchange(sock, _LENGTH.pack(2**31))
            assert reply["ok"] is False and reply["status"] == 413
            # The stream cannot be re-framed after a bogus prefix: closed.
            assert sock.recv(1) == b""


# -- ServingManager: failed update degrades to the last-good model ---------------------


class TestUpdateDegradation:
    def test_failed_update_keeps_serving_then_recovers(self, tmp_path):
        ds = demo_dataset(seed=0)
        server, serving, registry = build_service(
            ds,
            tmp_path / "registry",
            generations=1,
            population_size=6,
            drift_config=DriftConfig(min_fill=8, trip_ratio=1.5, patience=1),
        )

        def frame(n, seed):
            return {
                "application": "newapp",
                "profiles": [
                    {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
                    for p in outlier_profiles("newapp", n=n, seed=seed)
                ],
            }

        async def scenario():
            v_before = serving.slot.version
            plan = FaultPlan.parse("serve.update=raise@1", seed=CHAOS_SEED)
            with faults.armed(plan):
                reply = await serving.handle_observe_stream(frame(10, seed=99))
                assert reply["respec_scheduled"]
                await serving.wait_for_update()
            assert plan.injected_counts() == [1]

            # Degraded, not down: the slot still holds the last-good model
            # and the failure is visible in stats, not raised anywhere.
            assert serving.stats.updates_failed == 1
            assert serving.stats.last_error.startswith("InjectedFault")
            assert serving.slot.version == v_before
            assert registry.latest_version(serving.key) == v_before
            assert serving.stats_dict()["last_error"] == serving.stats.last_error

            # The drift latch is still set, so the next batch re-schedules
            # the update; fault plan exhausted, it completes and swaps.
            reply = await serving.handle_observe_stream(frame(10, seed=100))
            assert reply["respec_scheduled"]
            await serving.wait_for_update()
            assert serving.stats.updates_completed == 1
            assert serving.stats.stream_respecs == 1
            assert serving.stats.last_error is None
            assert serving.slot.version == v_before + 1
            return v_before

        try:
            asyncio.run(scenario())
        finally:
            serving.close()


# -- registry crash safety -------------------------------------------------------------


def _trained_model(seed=0):
    search = GeneticSearch(population_size=6, seed=seed, n_workers=1)
    ds = demo_dataset(n_apps=2, n_per_app=20, seed=seed)
    return search.run(ds, generations=1).best_model(ds)


class TestRegistryCrashSafety:
    KEY = ModelKey("demo", "chaos")

    def test_torn_publish_is_quarantined_and_previous_served(self, tmp_path):
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.publish(self.KEY, _trained_model(seed=1))

        # Kill the publisher in the window between the durable tmp write
        # and the os.link that makes the version visible.
        plan = FaultPlan.parse("registry.publish.link=raise@1", seed=CHAOS_SEED)
        with faults.armed(plan), pytest.raises(InjectedFault):
            registry.publish(self.KEY, _trained_model(seed=2))

        entry_dir = root / self.KEY.slug
        assert len(list(entry_dir.glob(".tmp-*"))) == 1  # the torn artifact
        before = _count("registry.quarantined")

        # A fresh open is the crash-recovery point.
        recovered = ModelRegistry(root)
        assert registry.versions(self.KEY) == [1]
        model, version = recovered.load(self.KEY)
        assert version == 1
        assert not list(entry_dir.glob(".tmp-*"))
        assert len(list((entry_dir / QUARANTINE_DIR).iterdir())) == 1
        assert _count("registry.quarantined") == before + 1

    def test_corrupt_latest_manifest_falls_back_to_predecessor(self, tmp_path):
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.publish(self.KEY, _trained_model(seed=1))
        registry.publish(self.KEY, _trained_model(seed=2))
        (root / self.KEY.slug / "v000002.json").write_text("{ torn mid-write")

        fresh = ModelRegistry(root)  # no cache: must read the torn bytes
        model, version = fresh.load(self.KEY)
        assert version == 1
        assert fresh.versions(self.KEY) == [1]  # v2 quarantined, not served
        assert len(list((root / self.KEY.slug / QUARANTINE_DIR).iterdir())) == 1


# -- the acceptance bar: GA survives killed workers bit-identically --------------------


class TestShardFleetChaos:
    def test_shard_kill_midload_zero_failed_client_requests(self, tmp_path):
        """The sharded acceptance bar: a worker killed mid-load (the
        ``shard.request=kill`` site, armed before the fork so the shared
        hit counter spans the fleet) costs ZERO failed client requests —
        retries ride out the crash, the supervisor respawns the shard,
        and the fleet ends at full strength."""
        import threading

        from repro.serve import build_sharded_service

        plan = FaultPlan.parse("shard.request=kill@25", seed=CHAOS_SEED)
        supervisor = build_sharded_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            n_shards=3,
            generations=1,
            population_size=6,
        )
        deaths_before = _count("shard.worker_deaths")
        failures = []
        with faults.armed(plan):
            supervisor.start()
            try:

                def drive(worker_id: int) -> None:
                    try:
                        with ServeClient(
                            port=supervisor.port,
                            timeout=5.0,
                            retry=FAST_RETRY.derive(worker_id),
                        ) as client:
                            for _ in range(40):
                                reply = client.predict_row(
                                    [1.0, 0.5, 0.2, 1.0, 1.5]
                                )
                                assert reply["ok"]
                    except Exception as exc:
                        failures.append((worker_id, repr(exc)))

                workers = [
                    threading.Thread(target=drive, args=(i,)) for i in range(4)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(120)

                assert failures == [], failures[:3]
                # Exactly one kill fired, fleet-wide (the counter lives in
                # shared memory, so the parent sees the worker's hits).
                assert sum(plan.injected_counts()) == 1

                # The supervisor noticed the death and respawned.
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if (
                        supervisor.respawns >= 1
                        and _count("shard.worker_deaths") >= deaths_before + 1
                    ):
                        with supervisor._handles_lock:
                            live = sum(
                                1
                                for h in supervisor._handles.values()
                                if h.process.is_alive()
                            )
                        if live == 3:
                            break
                    time.sleep(0.05)
                else:
                    pytest.fail("killed shard was not respawned in time")
            finally:
                # Stats/drain frames also hit shard.request; scrape with
                # the plan disarmed so bookkeeping cannot re-inject.
                faults.disarm()
        stats = supervisor.fleet_stats()
        try:
            assert stats["live"] == 3
            assert stats["respawns"] >= 1
        finally:
            supervisor.drain()


class TestGeneticSearchUnderWorkerDeath:
    def test_kill_one_worker_per_generation_bit_identical(self):
        """The ISSUE's acceptance criterion: a GA run whose fault plan
        kills a worker mid-chunk yields the same best chromosome (and the
        same per-generation history) as the fault-free serial run."""
        ds = demo_dataset(n_apps=2, n_per_app=20, seed=CHAOS_SEED)
        serial = GeneticSearch(population_size=8, seed=3, n_workers=1).run(
            ds, generations=2
        )

        before_deaths = _count("parallel.worker_deaths")
        plan = FaultPlan.parse("engine.evaluate_chunk=kill@1,4", seed=CHAOS_SEED)
        with faults.armed(plan):
            chaotic = GeneticSearch(population_size=8, seed=3, n_workers=2).run(
                ds, generations=2
            )

        assert sum(plan.injected_counts()) >= 1
        assert _count("parallel.worker_deaths") >= before_deaths + 1
        assert chaotic.best_chromosome == serial.best_chromosome
        assert chaotic.best_fitness == serial.best_fitness
        assert chaotic.history == serial.history
