"""Sharded multi-process serving: N workers, one port, one model fleet.

A single :class:`~repro.serve.server.PredictionServer` is bounded by one
event loop on one core; the GIL caps it regardless of batcher tuning.
This module scales the same protocol across processes on one machine:

* a parent :class:`ShardSupervisor` forks ``n_shards`` worker processes;
* each worker runs its own event loop, micro-batcher, and a *read-only*
  :class:`~repro.serve.batching.ModelSlot` loaded from the shared
  on-disk :class:`~repro.serve.registry.ModelRegistry`;
* clients connect to ONE public ``host:port``.  On platforms with
  ``SO_REUSEPORT`` (Linux, BSDs) every worker accepts on that port
  directly and the kernel load-balances connections; elsewhere the
  supervisor runs a :class:`ShardRouter` — a single-listener asyncio
  byte pump that round-robins connections to per-shard private ports
  (with connect-failover past dead shards).

**Model swaps are fleet-atomic in the versioned sense**: the supervisor
publishes to the registry first (durable), then broadcasts a ``reload``
op to every shard's private port.  Each :class:`ShardServer` reloads the
*exact* published version and swaps its slot only if the version is
newer (the slot enforces monotonicity), so during a rollout clients
observe at most two versions — ``{v, v+1}`` — and never an older one
resurfacing.  ``tests/test_serve_shard.py`` property-tests this.

**The feedback path stays centralized**: shards proxy ``observe_stream``
frames to the supervisor's control server (:class:`_ObserveProxy`), where
the single :class:`~repro.serve.manager.ServingManager` ingests evidence,
refreshes or re-specifies, publishes, and — via its ``on_swap`` hook —
fans every new version out to every shard.  A shard's ``stats`` reply
carries that learner's update counters.  One learner, N predictors.

**Shards are cattle**: a monitor thread waits on process sentinels and
respawns any worker that dies (crash, injected ``shard.request=kill``,
or a client-sent ``shutdown`` op, which therefore only recycles one
shard).  A respawned worker loads the latest registry version, so it
rejoins already reconciled.  Fleet shutdown is :meth:`ShardSupervisor.drain`:
scrape per-shard metrics, stop every worker gracefully, flush the
per-shard + merged JSONL report, stop the control plane.

Fault sites: ``shard.request`` (every frame a shard dispatches — ``kill``
here is the chaos-suite shard-crash scenario), ``shard.worker.boot``
(worker startup, before the ready handshake).

Observability: each worker keeps its own process-wide ``repro.obs``
registry (reset post-fork so fork-inherited counts never double-report);
the supervisor scrapes per-shard snapshots and merges them in shard-id
order — the same deterministic in-order merge ``repro.parallel`` uses —
plus a ``prometheus_text_multi`` dump with per-shard ``shard="<i>"``
labels.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import faults, obs
from repro.obs import MetricsRegistry, prometheus_text_multi, write_jsonl
from repro.serve.batching import BatchConfig, ModelSlot
from repro.serve.bootstrap import build_service
from repro.serve.client import NO_RETRY, AsyncServeClient, ServeClient
from repro.serve.manager import ServingManager
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.server import PredictionServer
from repro.serve.testing import ServerThread

#: Budget for one supervisor→shard request on a private port.  Three
#: bounded reload attempts (~15 s) fit inside the control server's 30 s
#: request deadline, so a wedged shard cannot stall a fan-out past it.
SHARD_REQUEST_TIMEOUT_S = 5.0


@functools.lru_cache(maxsize=None)
def supports_reuse_port() -> bool:
    """Can this platform actually share a listening port across sockets?

    ``hasattr(socket, "SO_REUSEPORT")`` is necessary but not sufficient
    (some kernels expose the constant and refuse the double bind), so
    probe with two real sockets once and cache the verdict.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    s1 = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s2 = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        s1.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        s1.bind(("127.0.0.1", 0))
        s2.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        s2.bind(("127.0.0.1", s1.getsockname()[1]))
        return True
    except OSError:
        return False
    finally:
        s1.close()
        s2.close()


def _reserve_reuse_port(host: str, port: int) -> Tuple[socket.socket, int]:
    """Bind (but never listen on) a SO_REUSEPORT socket to pin the port.

    The supervisor holds this socket for the fleet's lifetime: it fixes
    the port number before any worker exists (``port=0`` resolves here,
    once, so every worker binds the same number) and keeps the number
    reserved across the window where all shards are mid-respawn.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock, sock.getsockname()[1]


# -- the per-shard server ----------------------------------------------------------


class _ObserveProxy:
    """Stands in for the ServingManager inside a shard worker.

    Prediction never leaves the shard; *learning* must — the single
    ServingManager (and its one StreamingRespecifier) lives in the
    supervisor.  This proxy forwards each ``observe_stream`` frame
    verbatim to the supervisor's control port and relays the reply, so
    clients can send observations to any shard.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.forwarded = 0
        self.failed = 0

    async def handle_observe_stream(self, request: dict) -> dict:
        try:
            reply = await self._call(request)
        except (OSError, EOFError, asyncio.IncompleteReadError) as exc:
            self.failed += 1
            obs.counter("shard.observe_forward_failures").inc()
            return {
                "ok": False,
                "status": 503,
                "error": f"control plane unreachable: {exc}",
            }
        self.forwarded += 1
        obs.counter("shard.observe_forwarded").inc()
        return reply

    async def learner_stats(self) -> Dict[str, object]:
        """The control plane's update stats (empty if unreachable)."""
        try:
            reply = await self._call({"op": "stats"})
        except (OSError, EOFError, asyncio.IncompleteReadError):
            return {}
        return reply.get("updates", {})

    async def _call(self, request: dict) -> dict:
        client = AsyncServeClient(self.host, self.port)
        try:
            await client.connect()
            return await client.request(request, check=False)
        finally:
            await client.close()

    def stats_dict(self) -> Dict[str, object]:
        return {
            "observe_forwarded": self.forwarded,
            "observe_forward_failures": self.failed,
            "control_port": self.port,
        }


class ShardServer(PredictionServer):
    """One worker's server: the base protocol plus fleet plumbing.

    Extends :class:`PredictionServer` with

    * a ``reload`` op (version-gated registry load + slot swap) — the
      receiving end of the supervisor's fleet-wide swap broadcast;
    * a *private* loopback listener (always), the reload/stats/drain
      channel that stays reachable whether or not the public port is
      kernel-balanced;
    * the ``shard.request`` fault site ahead of every dispatch;
    * shard-labeled metrics and a ``shard`` field in ``stats``.
    """

    def __init__(
        self,
        slot: ModelSlot,
        shard_id: int,
        registry: ModelRegistry,
        key: ModelKey,
        host: str = "127.0.0.1",
        port: int = 0,
        public_bind: bool = True,
        reuse_port: bool = False,
        batch_config: Optional[BatchConfig] = None,
        manager=None,
        request_deadline_s: float = 30.0,
        backend: str = "cpu",
    ):
        super().__init__(
            slot,
            host=host,
            port=port,
            batch_config=batch_config,
            manager=manager,
            request_deadline_s=request_deadline_s,
            reuse_port=reuse_port,
            backend=backend,
        )
        self.shard_id = shard_id
        self.registry = registry
        self.key = key
        self.public_bind = public_bind
        self.private_port = 0
        self._private_server: Optional[asyncio.base_events.Server] = None
        self._obs_reloads = obs.counter("shard.reloads_applied")
        self._ops["reload"] = self._op_reload

    async def start(self) -> None:
        self.batcher.start()
        if self.public_bind:
            kwargs = {"reuse_port": True} if self.reuse_port else {}
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, **kwargs
            )
            self.port = self._server.sockets[0].getsockname()[1]
        # The private channel: loopback, kernel-assigned port, never
        # kernel-balanced — the supervisor can always address THIS shard.
        self._private_server = await asyncio.start_server(
            self._handle_connection, "127.0.0.1", 0
        )
        self.private_port = self._private_server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        if self._private_server is not None:
            self._private_server.close()
            await self._private_server.wait_closed()
            self._private_server = None
        await super()._shutdown()

    async def _dispatch_op(self, request: dict) -> dict:
        # The shard-crash/hang chaos hook: kill exits this worker (the
        # supervisor respawns), delay wedges the request (the deadline
        # answers 408), drop tears the connection (clients retry).
        await faults.site_async("shard.request")
        return await super()._dispatch_op(request)

    def _op_reload(self, request: dict) -> dict:
        """Version-gated model reload from the shared registry.

        ``version`` pins the exact published version to load (the swap
        broadcast passes it so every shard lands on the same bytes);
        omitted, the latest valid version is resolved — the respawn and
        manual-reconcile path.  A version at or below the live one is a
        no-op: broadcasts are idempotent and re-deliveries/reorderings
        can never roll a shard back.
        """
        version = request.get("version")
        if version is None:
            version = self.registry.latest_version(self.key)
        version = int(version)
        current = self.slot.version
        if version <= current:
            return {
                "ok": True,
                "op": "reload",
                "shard": self.shard_id,
                "model_version": current,
                "reloaded": False,
            }
        model, loaded = self.registry.load(self.key, version)
        self.slot.swap(loaded, model)
        self._obs_reloads.inc()
        obs.gauge("serve.model_version").set(loaded)
        return {
            "ok": True,
            "op": "reload",
            "shard": self.shard_id,
            "model_version": loaded,
            "reloaded": True,
        }

    async def _op_stats(self) -> dict:
        payload = super()._op_stats()
        payload["shard"] = self.shard_id
        payload["private_port"] = self.private_port
        if isinstance(self.manager, _ObserveProxy):
            # One learner: every shard reports its update counters next
            # to this shard's forwarding counters.
            payload["updates"] = {
                **await self.manager.learner_stats(),
                **payload["updates"],
            }
        return payload

    def _op_metrics(self, request: dict) -> dict:
        if request.get("format") == "prometheus":
            text = obs.prometheus_dump(
                labels={"shard": str(self.shard_id), "backend": self.backend}
            )
            return {"ok": True, "format": "prometheus", "text": text}
        return {
            "ok": True,
            "format": "snapshot",
            "shard": self.shard_id,
            "metrics": obs.snapshot(),
        }


# -- the worker process ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, in fork-safe primitives."""

    shard_id: int
    registry_root: str
    space: str
    application: str
    host: str
    #: public port to bind with SO_REUSEPORT, or ``None`` in router mode
    public_port: Optional[int]
    control_port: int
    batch_config: Optional[BatchConfig]
    request_deadline_s: float
    backend: str = "cpu"


def _shard_worker_main(spec: _WorkerSpec, ready_conn) -> None:
    """Worker process entry: build the shard server, run its loop."""
    # The fork copied the parent's metrics registry; start from zero so
    # per-shard snapshots report only this shard's activity and the
    # supervisor's in-order merge never double-counts parent history.
    obs.reset()
    # Ctrl-C belongs to the supervisor (it drains the fleet); workers
    # stop via SIGTERM or a shutdown/drain op on the private port.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.site("shard.worker.boot")

    # recover=False: read-only opens must not sweep a live publisher's
    # in-flight .tmp-* files into quarantine.
    registry = ModelRegistry(spec.registry_root, recover=False)
    key = ModelKey(spec.space, spec.application)
    model, version = registry.load(key)
    slot = ModelSlot(model, version)
    server = ShardServer(
        slot,
        spec.shard_id,
        registry,
        key,
        host=spec.host,
        port=spec.public_port or 0,
        public_bind=spec.public_port is not None,
        reuse_port=spec.public_port is not None,
        batch_config=spec.batch_config,
        manager=_ObserveProxy("127.0.0.1", spec.control_port),
        request_deadline_s=spec.request_deadline_s,
        backend=spec.backend,
    )
    obs.gauge("serve.model_version").set(version)
    obs.gauge("shard.id").set(spec.shard_id)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, server.stop)
        ready_conn.send(
            {
                "shard": spec.shard_id,
                "pid": os.getpid(),
                "private_port": server.private_port,
                "public_port": server.port if spec.public_port is not None else None,
                "model_version": version,
            }
        )
        ready_conn.close()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except BaseException as exc:
        # Startup failures (bind error, injected boot fault) must reach
        # the parent; if the ready message already went out this send
        # hits a closed pipe and is ignored.
        with contextlib.suppress(OSError, ValueError):
            ready_conn.send({"shard": spec.shard_id, "error": repr(exc)})
        raise


# -- the router fallback -----------------------------------------------------------


class ShardRouter:
    """Single-listener round-robin connection router.

    The portability fallback when ``SO_REUSEPORT`` is unavailable: the
    supervisor listens on the public port itself and pumps each accepted
    connection's bytes to one shard's private port, rotating targets per
    connection and failing over past shards that refuse the connect.
    Byte-level and protocol-agnostic — frames, retries, and errors all
    pass through untouched, so clients cannot tell the modes apart.
    """

    def __init__(self, host: str, port: int, targets: Callable[[], List[int]]):
        self.host = host
        self.port = port
        self._targets = targets
        self._rr = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-router", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("shard router did not come up")
        if self._startup_error is not None:
            raise RuntimeError("shard router failed to start") from self._startup_error
        return self.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle, self.host, self.port)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop_event.wait()
        server.close()
        await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _handle(self, client_reader, client_writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        obs.counter("shard.router_connections").inc()

        ports = self._targets()
        shard_reader = shard_writer = None
        if ports:
            start_index = next(self._rr)
            for offset in range(len(ports)):
                port = ports[(start_index + offset) % len(ports)]
                try:
                    shard_reader, shard_writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    break
                except OSError:
                    # Dead/respawning shard: fail over to the next one.
                    obs.counter("shard.router_failovers").inc()
        if shard_writer is None:
            obs.counter("shard.router_no_backend").inc()
            client_writer.close()
            with contextlib.suppress(Exception):
                await client_writer.wait_closed()
            return

        try:
            await asyncio.gather(
                self._pump(client_reader, shard_writer),
                self._pump(shard_reader, client_writer),
                return_exceptions=True,
            )
        finally:
            for writer in (client_writer, shard_writer):
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    @staticmethod
    async def _pump(reader, writer) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            # Propagate the half-close so a shard's reply in flight still
            # reaches the client after the client stops sending.
            with contextlib.suppress(Exception):
                if writer.can_write_eof():
                    writer.write_eof()


# -- the supervisor ----------------------------------------------------------------


@dataclasses.dataclass
class _WorkerHandle:
    shard_id: int
    process: multiprocessing.Process
    private_port: int
    public_port: Optional[int]
    spawned_unix: float


class ShardSupervisor:
    """Owns the fleet: spawn, route, swap, monitor, respawn, drain.

    The supervisor process hosts the single :class:`ServingManager` (the
    learner) on a loopback *control server*; shards proxy
    ``observe_stream`` frames to it, and its ``on_swap`` hook broadcasts
    every publish (refresh or re-specification) to the fleet;
    :meth:`reload_all` is the manual equivalent for operators/tests.

    ``reuse_port=None`` auto-detects: kernel balancing where the
    platform supports it, the :class:`ShardRouter` fallback elsewhere.
    """

    def __init__(
        self,
        serving: ServingManager,
        registry_root: Union[str, Path],
        n_shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: Optional[bool] = None,
        batch_config: Optional[BatchConfig] = None,
        request_deadline_s: float = 30.0,
        max_respawns: int = 16,
        respawn_backoff_s: float = 0.05,
        spawn_timeout_s: float = 60.0,
        control_server: Optional[PredictionServer] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.serving = serving
        self.registry = serving.registry
        self.key = serving.key
        # The fleet serves what the learner trained on: one backend tag,
        # propagated from the ServingManager into every worker.
        self.backend = getattr(serving, "backend", "cpu")
        self.registry_root = str(registry_root)
        self.n_shards = n_shards
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.batch_config = batch_config
        self.request_deadline_s = request_deadline_s
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.spawn_timeout_s = spawn_timeout_s
        self.mode: Optional[str] = None  # "reuse_port" | "router"
        self.control_port = 0
        self.respawns = 0

        self._control_server = control_server or PredictionServer(
            serving.slot,
            host="127.0.0.1",
            port=0,
            manager=serving,
            backend=self.backend,
        )
        self._control_thread: Optional[ServerThread] = None
        self._router: Optional[ShardRouter] = None
        self._reserved_sock: Optional[socket.socket] = None
        self._handles: Dict[int, _WorkerHandle] = {}
        self._handles_lock = threading.Lock()
        self._monitor_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        reuse = self.reuse_port if self.reuse_port is not None else supports_reuse_port()
        self.mode = "reuse_port" if reuse else "router"

        # Control plane first: workers forward observes here from boot.
        self._control_thread = ServerThread(self._control_server).start()
        self.control_port = self._control_server.port
        self.serving.on_swap = self._broadcast_reload

        if reuse:
            # Pin the public port before any worker exists so every shard
            # binds the same (resolved) number.
            self._reserved_sock, self.port = _reserve_reuse_port(self.host, self.port)

        try:
            for shard_id in range(self.n_shards):
                self._spawn(shard_id)
        except BaseException:
            self.drain()
            raise

        if not reuse:
            self._router = ShardRouter(self.host, self.port, self._live_private_ports)
            self.port = self._router.start()

        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-shard-monitor", daemon=True
        )
        self._monitor_thread.start()
        obs.gauge("shard.fleet_size").set(self.n_shards)
        return self

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful fleet shutdown (idempotent).

        Order matters: stop respawning, stop routing new connections,
        then stop the workers (shutdown op first, SIGTERM for stragglers),
        the control plane, and the learner's executor.  Callers that want
        the fleet's final metrics run :meth:`flush_metrics` *before* this
        — a stopped shard cannot be scraped.
        """
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        if self._router is not None:
            self._router.stop()
            self._router = None

        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        deadline = time.monotonic() + timeout_s
        for handle in handles:
            try:
                with ServeClient(
                    "127.0.0.1",
                    handle.private_port,
                    timeout=SHARD_REQUEST_TIMEOUT_S,
                    retry=NO_RETRY,
                ) as client:
                    client.shutdown()
            except Exception:
                pass  # already dead or wedged; terminate below
        for handle in handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        with self._handles_lock:
            self._handles.clear()

        if self._reserved_sock is not None:
            self._reserved_sock.close()
            self._reserved_sock = None
        if self._control_thread is not None:
            self._control_thread.stop()
            self._control_thread = None
        self.serving.close()

    # -- worker management -----------------------------------------------------------

    def _spawn(self, shard_id: int) -> _WorkerHandle:
        spec = _WorkerSpec(
            shard_id=shard_id,
            registry_root=self.registry_root,
            space=self.key.space,
            application=self.key.application,
            host=self.host,
            public_port=self.port if self.mode == "reuse_port" else None,
            control_port=self.control_port,
            batch_config=self.batch_config,
            request_deadline_s=self.request_deadline_s,
            backend=self.backend,
        )
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(self.spawn_timeout_s):
                process.terminate()
                raise RuntimeError(
                    f"shard {shard_id} did not come up in {self.spawn_timeout_s}s"
                )
            try:
                info = parent_conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard {shard_id} died during startup "
                    f"(exit code {process.exitcode})"
                ) from None
        finally:
            parent_conn.close()
        if "error" in info:
            process.join(timeout=5.0)
            raise RuntimeError(f"shard {shard_id} failed to start: {info['error']}")

        handle = _WorkerHandle(
            shard_id=shard_id,
            process=process,
            private_port=info["private_port"],
            public_port=info.get("public_port"),
            spawned_unix=time.time(),
        )
        with self._handles_lock:
            self._handles[shard_id] = handle
        obs.counter("shard.workers_spawned").inc()
        return handle

    def _live_private_ports(self) -> List[int]:
        with self._handles_lock:
            return [
                handle.private_port
                for _, handle in sorted(self._handles.items())
                if handle.process.is_alive()
            ]

    def _monitor(self) -> None:
        """Wait on process sentinels; respawn whatever dies."""
        while not self._stopping.is_set():
            with self._handles_lock:
                sentinels = {
                    h.process.sentinel: h for h in self._handles.values()
                }
            if not sentinels:
                if self._stopping.wait(0.1):
                    return
                continue
            ready = multiprocessing.connection.wait(
                list(sentinels), timeout=0.25
            )
            for sentinel in ready:
                if self._stopping.is_set():
                    return
                handle = sentinels[sentinel]
                handle.process.join()
                obs.counter("shard.worker_deaths").inc()
                with self._handles_lock:
                    if self._handles.get(handle.shard_id) is not handle:
                        continue  # already replaced
                    del self._handles[handle.shard_id]
                if self.respawns >= self.max_respawns:
                    # A crash loop must not fork forever; the fleet keeps
                    # serving on the surviving shards.
                    obs.counter("shard.respawns_exhausted").inc()
                    continue
                self.respawns += 1
                time.sleep(self.respawn_backoff_s)
                try:
                    self._spawn(handle.shard_id)
                    obs.counter("shard.workers_respawned").inc()
                except Exception:
                    obs.counter("shard.respawn_failures").inc()

    # -- fleet-wide model swaps --------------------------------------------------------

    async def _broadcast_reload(self, version: Optional[int]) -> int:
        """Tell every live shard to load ``version``; returns the ack count.

        Runs on the control server's loop (it is the ServingManager's
        ``on_swap`` hook).  Per-shard failures are retried briefly, then
        counted and left for reconciliation — a dead shard reloads the
        latest version when it respawns, a wedged one answers the next
        broadcast; meanwhile it still serves the previous version, which
        the version-gating contract permits.
        """
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        results = await asyncio.gather(
            *(self._reload_one(handle, version) for handle in handles)
        )
        return sum(results)

    async def _reload_one(self, handle: _WorkerHandle, version) -> bool:
        async def attempt_reload() -> dict:
            client = AsyncServeClient("127.0.0.1", handle.private_port)
            try:
                await client.connect()
                return await client.request(
                    {"op": "reload", "version": version}, check=False
                )
            finally:
                await client.close()

        for attempt in range(3):
            try:
                # Bounded: a shard that accepts but never answers counts
                # as a failed attempt, like a refused connection.
                reply = await asyncio.wait_for(attempt_reload(), SHARD_REQUEST_TIMEOUT_S)
                if reply.get("ok"):
                    obs.counter("shard.reload_acks").inc()
                    return True
            except (OSError, EOFError, asyncio.IncompleteReadError, asyncio.TimeoutError):
                pass
            await asyncio.sleep(0.05 * (attempt + 1))
        obs.counter("shard.reload_failures").inc()
        return False

    def reload_all(self, version: Optional[int] = None, timeout: float = 30.0) -> int:
        """Synchronous fleet reload (``None`` = latest registry version)."""
        if self._control_thread is None or self._control_thread.loop is None:
            raise RuntimeError("supervisor is not started")
        future = asyncio.run_coroutine_threadsafe(
            self._broadcast_reload(version), self._control_thread.loop
        )
        return future.result(timeout)

    # -- fleet introspection -----------------------------------------------------------

    def _shard_request(self, handle: _WorkerHandle, payload: dict) -> dict:
        with ServeClient(
            "127.0.0.1", handle.private_port, timeout=SHARD_REQUEST_TIMEOUT_S, retry=NO_RETRY
        ) as client:
            return client.request(payload)

    def fleet_stats(self) -> Dict[str, object]:
        """Aggregate + per-shard serving stats (scraped over private ports)."""
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        per_shard: Dict[str, dict] = {}
        for handle in handles:
            try:
                per_shard[str(handle.shard_id)] = self._shard_request(
                    handle, {"op": "stats"}
                )
            except Exception as exc:
                per_shard[str(handle.shard_id)] = {"ok": False, "error": repr(exc)}
        live = [s for s in per_shard.values() if s.get("ok")]
        return {
            "mode": self.mode,
            "shards": self.n_shards,
            "live": len(live),
            "respawns": self.respawns,
            "supervisor_version": self.serving.slot.version,
            "versions": sorted({s["model_version"] for s in live}),
            "requests": sum(s["requests"] for s in live),
            "predictions": sum(s["predictions"] for s in live),
            "per_shard": per_shard,
        }

    def fleet_metrics(self) -> Tuple[List[Tuple[int, dict]], dict]:
        """Per-shard obs snapshots and their deterministic merge.

        The merge folds shards in ascending shard-id order into a fresh
        registry — same in-order contract as ``repro.parallel``'s worker
        aggregation, so two scrapes of the same fleet state agree bit
        for bit.
        """
        with self._handles_lock:
            handles = sorted(self._handles.values(), key=lambda h: h.shard_id)
        snapshots: List[Tuple[int, dict]] = []
        for handle in handles:
            try:
                reply = self._shard_request(handle, {"op": "metrics"})
                snapshots.append((handle.shard_id, reply["metrics"]))
            except Exception:
                obs.counter("shard.metrics_scrape_failures").inc()
        merged = MetricsRegistry()
        for _, snapshot in snapshots:
            merged.merge(snapshot)
        return snapshots, merged.snapshot()

    def prometheus_dump(self) -> str:
        """The whole fleet in Prometheus text format, ``shard``-labeled."""
        snapshots, _ = self.fleet_metrics()
        series = [
            ({"shard": str(shard_id), "backend": self.backend}, snapshot)
            for shard_id, snapshot in snapshots
        ]
        series.append(
            ({"shard": "supervisor", "backend": self.backend}, obs.snapshot())
        )
        return prometheus_text_multi(series)

    def flush_metrics(self, path: Union[str, Path]) -> Path:
        """Write per-shard, merged-fleet, and supervisor snapshots as JSONL."""
        snapshots, merged = self.fleet_metrics()
        path = Path(path)
        append = False
        for shard_id, snapshot in snapshots:
            write_jsonl(snapshot, path, run=f"shard{shard_id}", append=append)
            append = True
        write_jsonl(merged, path, run="fleet", append=append)
        write_jsonl(obs.snapshot(), path, run="supervisor", append=True)
        return path


# -- assembly ----------------------------------------------------------------------


def build_sharded_service(
    dataset,
    registry_root: Union[str, Path],
    n_shards: int = 2,
    space: str = "demo",
    application: str = "suite",
    host: str = "127.0.0.1",
    port: int = 0,
    reuse_port: Optional[bool] = None,
    generations: int = 3,
    population_size: int = 10,
    seed: int = 0,
    batch_config: Optional[BatchConfig] = None,
    request_deadline_s: float = 30.0,
    max_respawns: int = 16,
    backend: str = "cpu",
    publish_every: int = 1,
) -> ShardSupervisor:
    """Bootstrap, publish, and assemble an (unstarted) shard supervisor.

    The sharded twin of :func:`~repro.serve.bootstrap.build_service` —
    and built *through* it, so the learner bootstrap is byte-identical
    between single-process and sharded serving; the server it assembles
    becomes the fleet's loopback control server.
    """
    control_server, serving, _registry = build_service(
        dataset,
        registry_root,
        space=space,
        application=application,
        host="127.0.0.1",
        port=0,
        generations=generations,
        population_size=population_size,
        seed=seed,
        batch_config=batch_config,
        request_deadline_s=request_deadline_s,
        backend=backend,
        publish_every=publish_every,
    )
    return ShardSupervisor(
        serving,
        registry_root=registry_root,
        n_shards=n_shards,
        host=host,
        port=port,
        reuse_port=reuse_port,
        batch_config=batch_config,
        request_deadline_s=request_deadline_s,
        max_respawns=max_respawns,
        control_server=control_server,
    )
