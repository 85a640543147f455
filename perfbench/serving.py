"""``serve-mixed``: the prediction server under a closed-loop mixed load.

Each segment boots a cold server through the public CLI
(``python -m repro.experiments serve --stream``) in its own process, on a
fresh registry directory, and drives it from this process over
:data:`CONNECTIONS` persistent connections.  Every connection sends its
next request only after the previous reply arrived (the service's callers,
tuners and schedulers, wait for each answer).  The op mix is fixed:

* 90% ``predict`` of one row (through the server's micro-batcher);
* 7% ``predict_batch`` of 64 rows (bypasses the batcher: its control);
* 3% ``observe_stream`` of 8 profiles (Gram refresh + registry publish).

Rows and profiles are drawn stationary from ``demo_dataset`` with a seed
derived from the workload seed, never the server's bootstrap seed (0).
The frame client here is deliberately minimal and independent of the
repository's own client and load generator, so changing those does not
change the load.

After a segment the server is asked for ``stats`` and ``metrics``, shut
down, and every predict reply is checked: it must equal ``predict_rows``
of the model version the reply names, loaded through ``ModelRegistry``.
"""

from __future__ import annotations

import json
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

CONNECTIONS = 2
OP_MIX = (("predict", 0.90), ("predict_batch", 0.07), ("observe_stream", 0.03))
BATCH_ROWS = 64
OBSERVE_PROFILES = 8
#: demo_dataset shape of the request pool (stationary with the bootstrap data).
POOL_APPS, POOL_PER_APP = 4, 256
BOOT_TIMEOUT_S = 60.0

_LENGTH = struct.Struct(">I")


class FrameClient:
    """Length-prefixed JSON frames over one blocking TCP connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, payload: dict) -> dict:
        body = json.dumps(payload, separators=(",", ":")).encode()
        self.sock.sendall(_LENGTH.pack(len(body)) + body)
        (length,) = _LENGTH.unpack(self._read(_LENGTH.size))
        return json.loads(self._read(length))

    def _read(self, n: int) -> bytes:
        chunks, remaining = [], n
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise ConnectionError("server closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self.sock.close()


def request_pool(seed: int):
    """(rows, targets, applications) drawn from ``demo_dataset``."""
    from repro.serve import demo_dataset

    pool = demo_dataset(n_apps=POOL_APPS, n_per_app=POOL_PER_APP, seed=10_000 + seed)
    return pool.matrix(), pool.targets(), pool.labels(), len(pool.x_names)


def _plan(seed: int, connection: int, pool_size: int):
    """Endless deterministic (op, row indices) sequence for one connection."""
    rng = np.random.default_rng([seed, connection])
    cumulative = np.cumsum([p for _, p in OP_MIX])
    while True:
        pick = int(np.searchsorted(cumulative, rng.random(), side="right"))
        name = OP_MIX[min(pick, len(OP_MIX) - 1)][0]
        if name == "predict":
            yield name, rng.integers(0, pool_size, size=1)
        elif name == "predict_batch":
            yield name, rng.integers(0, pool_size, size=BATCH_ROWS)
        else:
            yield name, rng.integers(0, pool_size, size=OBSERVE_PROFILES)


def _drive(port, seed, connection, pool, deadline, log):
    rows, targets, labels, n_x = pool
    client = FrameClient(port)
    try:
        for op, idx in _plan(seed, connection, len(rows)):
            if time.perf_counter() >= deadline:
                break
            if op == "predict":
                request = {"op": op, "row": rows[idx[0]].tolist()}
            elif op == "predict_batch":
                request = {"op": op, "rows": rows[idx].tolist()}
            else:
                # One application per batch, as a profiling agent ships them.
                app = labels[idx[0]]
                idx = np.flatnonzero(labels == app)[idx % POOL_PER_APP]
                request = {
                    "op": op,
                    "application": str(app),
                    "profiles": [
                        {"x": rows[i, :n_x].tolist(), "y": rows[i, n_x:].tolist(), "z": float(targets[i])}
                        for i in idx
                    ],
                }
            t0 = time.perf_counter()
            try:
                reply = client.call(request)
            except (OSError, ValueError) as exc:
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            log.append((op, idx, time.perf_counter() - t0, reply))
            if not reply.get("ok") and "status" not in reply:
                break  # the connection itself failed
    finally:
        client.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def boot(env: dict, work_dir: Path, registry: Path):
    """Spawn a server; returns (process, port, setup_s)."""
    stderr_path = work_dir / "server.stderr"
    t0 = time.time()
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--stream",
             "--port", "0", "--registry", str(registry)],
            cwd=work_dir, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
    # A server that neither listens nor exits is killed, ending the read.
    watchdog = threading.Timer(BOOT_TIMEOUT_S, proc.kill)
    watchdog.start()
    port = None
    for line in proc.stdout:
        if line.startswith("serving "):
            port = int(line.rsplit(":", 1)[1])
            break
    watchdog.cancel()
    if port is None:
        proc.wait()
        raise RuntimeError(f"server exited before listening: {stderr_path.read_text()[-2000:]}")
    # Keep draining stdout so the server never blocks on a full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    client = FrameClient(port)
    try:
        if not client.call({"op": "ping"}).get("ok"):
            raise RuntimeError("first ping refused")
    finally:
        client.close()
    return proc, port, time.time() - t0


def stop(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def segment(env: dict, work_dir: Path, seed: int, seconds: float, pool) -> dict:
    """One cold boot, ``seconds`` of closed-loop mixed load, and the checks."""
    registry = work_dir / "registry"
    proc, port, setup_s = boot(env, work_dir, registry)
    try:
        logs = [[] for _ in range(CONNECTIONS)]
        deadline = time.perf_counter() + seconds
        t_start = time.perf_counter()
        threads = [
            threading.Thread(target=_drive, args=(port, seed, c, pool, deadline, logs[c]))
            for c in range(CONNECTIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start
        admin = FrameClient(port)
        try:
            stats = admin.call({"op": "stats"})
            metrics = admin.call({"op": "metrics"})["metrics"]
            peak_rss_mb = _peak_rss_mb(proc.pid)
            admin.call({"op": "shutdown"})
        finally:
            admin.close()
        proc.wait(timeout=15)
    finally:
        stop(proc)
    log = [entry for log in logs for entry in log]
    failed, bootstrap_predictions = check(registry, log, pool)
    return {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "log": log,
        "stats": stats,
        "metrics": metrics,
        "registry": registry,
        "failed": failed,
        "bootstrap_predictions": bootstrap_predictions,
    }


def check(registry: Path, log, pool) -> tuple:
    """(failed replies, bootstrap predictions of the pool) for one segment.

    A reply fails when it is not ok or when its value differs from
    ``predict_rows`` of the model version it names, loaded from the
    registry the server published to.  The bootstrap model (version 1)
    also predicts the whole request pool: the served model's accuracy on
    held-out stationary rows, independent of when stream refreshes landed.
    """
    from repro.serve import ModelKey, ModelRegistry

    rows = pool[0]
    reg = ModelRegistry(registry, recover=False)
    key = ModelKey("demo", "suite")
    failed = 0
    for op, idx, _, reply in log:
        if not reply.get("ok"):
            failed += 1
            continue
        if op == "observe_stream":
            continue
        model, _ = reg.load(key, int(reply["model_version"]))
        expected = model.predict_rows(rows[idx])
        got = np.array(
            [reply["prediction"]] if op == "predict" else reply["predictions"], dtype=float
        )
        if not np.array_equal(got, expected):
            failed += 1
    return failed, reg.load(key, 1)[0].predict_rows(rows)


def time_predict_rows(registry: Path, version: int, rows: np.ndarray, n: int) -> float:
    """Median microseconds of ``predict_rows`` on ``n`` rows of the served model."""
    from repro.serve import ModelKey, ModelRegistry

    model, _ = ModelRegistry(registry, recover=False).load(ModelKey("demo", "suite"), version)
    n = max(1, min(n, len(rows)))
    samples = []
    for i in range(300):
        block = rows[(np.arange(n) + i) % len(rows)]
        t0 = time.perf_counter()
        model.predict_rows(block)
        samples.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(samples))
