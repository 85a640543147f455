"""End-to-end: real sockets, framing, ops, backpressure, error statuses."""

import numpy as np
import pytest

from repro.serve import (
    BatchConfig,
    ServeClient,
    ServeError,
    ServerThread,
    wait_for_server,
)
from repro.serve.bootstrap import build_service, demo_dataset

N_VARS = 5


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    server, serving, registry = build_service(
        demo_dataset(seed=0),
        tmp_path_factory.mktemp("registry"),
        generations=1,
        population_size=6,
        batch_config=BatchConfig(max_batch=32, max_latency_s=0.001),
    )
    with ServerThread(server) as thread:
        yield thread, server, serving, registry
    serving.close()


@pytest.fixture()
def client(service):
    thread, *_ = service
    with ServeClient(port=thread.port) as c:
        yield c


class TestOps:
    def test_ping(self, client):
        assert client.ping()

    def test_info(self, client):
        info = client.info()
        assert info["model_version"] >= 1
        assert info["variables"] == ["x1", "x2", "x3", "y1", "y2"]
        assert info["response"] == "log"

    def test_predict_roundtrip_bit_identical(self, service, client):
        _, server, *_ = service
        version, model = server.slot.get()
        row = [1.0, 0.5, 0.2, 1.0, 1.5]
        reply = client.predict_row(row)
        assert reply["model_version"] == version
        assert reply["prediction"] == model.predict_one(row[:3], row[3:])

    def test_predict_xy_form(self, service, client):
        _, server, *_ = service
        _, model = server.slot.get()
        reply = client.predict([1.0, 0.5, 0.2], [1.0, 1.5])
        assert reply["prediction"] == model.predict_one(
            [1.0, 0.5, 0.2], [1.0, 1.5]
        )

    def test_predict_batch_matches_singles(self, client):
        rows = np.abs(np.random.default_rng(3).normal(1, 0.3, size=(10, N_VARS)))
        batch = client.predict_batch(rows)["predictions"]
        singles = [client.predict_row(r.tolist())["prediction"] for r in rows]
        assert batch == singles

    def test_stats_exposes_batching(self, client):
        client.predict_row([1.0] * N_VARS)
        stats = client.stats()
        assert stats["predictions"] >= 1
        assert "occupancy_histogram" in stats["batching"]
        assert stats["model_version"] >= 1
        assert "updates" in stats  # manager is attached


class TestErrors:
    def test_unknown_op_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.request({"op": "frobnicate"})
        assert exc.value.status == 404

    def test_wrong_arity_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.predict_row([1.0, 2.0])
        assert exc.value.status == 400

    def test_non_finite_rejected_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.predict_row([float("nan")] * N_VARS)
        assert exc.value.status == 400

    def test_missing_fields_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.request({"op": "predict"})
        assert exc.value.status == 400

    def test_bad_observe_without_profiles_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.request(
                {"op": "observe_stream", "application": "a", "profiles": []}
            )
        assert exc.value.status == 400

    def test_batch_observe_op_is_gone_404(self, client):
        """observe_stream is the only maintenance op."""
        with pytest.raises(ServeError) as exc:
            client.request(
                {"op": "observe", "application": "a", "profiles": [{}]}
            )
        assert exc.value.status == 404


class TestBackpressure:
    def test_queue_full_is_429(self, tmp_path):
        # A queue of depth 2 with an extremely slow tick: the third
        # concurrent request must be shed with 429.
        server, serving, _ = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
            batch_config=BatchConfig(
                max_batch=1024,
                max_latency_s=5.0,
                queue_depth=2,
                request_timeout_s=30.0,
            ),
        )
        import threading

        with ServerThread(server) as thread:
            fillers = [ServeClient(port=thread.port) for _ in range(2)]
            started = []

            def fire(c):
                started.append(1)
                try:
                    c.predict_row([1.0] * N_VARS)
                except (ServeError, ConnectionError, OSError):
                    pass  # shed or cut off at server shutdown — expected

            threads = [
                threading.Thread(target=fire, args=(c,), daemon=True)
                for c in fillers
            ]
            for t in threads:
                t.start()
            # Wait until both fillers are queued server-side.
            probe = wait_for_server("127.0.0.1", thread.port)
            deadline = 50
            while deadline and server.batcher.stats.requests == 0:
                import time

                time.sleep(0.1)
                deadline -= 1
                if len(server.batcher._queue) >= 2:
                    break
            with pytest.raises(ServeError) as exc:
                probe.predict_row([1.0] * N_VARS)
            assert exc.value.status == 429
            probe.close()
        # Server is down: the filler requests have errored out; reap the
        # threads before closing their sockets.
        for t in threads:
            t.join(10)
        for c in fillers:
            c.close()
        serving.close()

    def test_shutdown_op_stops_server(self, tmp_path):
        server, serving, _ = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
        )
        thread = ServerThread(server).start()
        client = ServeClient(port=thread.port)
        assert client.shutdown()["ok"]
        client.close()
        thread._done.wait(10)
        assert thread._done.is_set()
        serving.close()
