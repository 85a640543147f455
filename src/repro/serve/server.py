"""The online prediction server.

A stdlib-only asyncio TCP server speaking length-prefixed JSON frames
(4-byte big-endian length, then a UTF-8 JSON body; see
:data:`MAX_FRAME_BYTES`).  One frame in, one frame out, per request, over a
persistent connection.

Operations (``{"op": ...}`` request, ``{"ok": true/false, ...}`` reply):

``ping``            liveness probe.
``info``            live model version, variable order, term count.
``predict``         one profile (``x`` + ``y`` arrays *or* a flat ``row``)
                    through the micro-batcher; replies with ``prediction``
                    and the ``model_version`` that served it.
``predict_batch``   a caller-assembled batch of rows, predicted against a
                    single model snapshot (bypasses the batcher).
``observe_stream``  profiles of a (possibly new) application — the one
                    maintenance op, registered when the server has an
                    update manager: its streaming respecifier scores the
                    batch prequentially for drift, accumulates it and
                    refreshes coefficients; a drift trip schedules a
                    background re-specification (§3.2–3.3).
``stats``           request counters, batch-occupancy histogram, model
                    version, update counters.
``metrics``         the process-wide ``repro.obs`` registry: a snapshot
                    dict by default, the Prometheus text exposition format
                    with ``{"format": "prometheus"}`` (this is what
                    ``python -m repro.experiments serve --metrics-dump``
                    prints).
``shutdown``        graceful stop (used by the CLI smoke flow and tests).

Error replies carry HTTP-flavored ``status`` codes: 400 malformed, 404
unknown op, 408 request timeout (batcher wait *or* the per-request
deadline), 413 oversized frame, 429 queue full, 503 no model loaded, 500
anything else.  Backpressure is load-shedding, not buffering: when the
batcher queue is full the server answers 429 immediately.

Degradation policy for damaged input: a frame whose *body* is corrupt
(undecodable JSON) gets a structured 400 reply and the connection stays
up — the length prefix was honored, so framing is intact and the next
request parses normally.  A frame whose *length prefix* is implausible
(over :data:`MAX_FRAME_BYTES`) gets a structured 413 reply and then a
close, because a bogus length desynchronizes the stream and every
subsequent byte would be garbage.  Every request is bounded by
``request_deadline_s``: a dispatch that exceeds it (slow model, injected
stall) is cancelled and answered with 408 instead of wedging the
connection.

Fault sites (armed via :mod:`repro.faults`): ``serve.read_frame``
(delay/drop before reading), ``serve.dispatch`` (delay/raise inside
request handling), ``serve.write_frame`` (corrupt/drop the reply frame —
a drop writes half the frame then tears the connection, so clients
observe a mid-frame EOF).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
import time
from typing import Dict, Optional

import numpy as np

from repro import faults, obs
from repro.serve.batching import (
    BatchConfig,
    MicroBatcher,
    ModelSlot,
    QueueFullError,
    RequestTimeout,
)

#: Frame-size sanity bound; a registry payload is ~10 KiB, so 16 MiB leaves
#: ample room for large observe_stream/predict_batch bodies while bounding memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameTooLarge(ValueError):
    """A frame's length prefix exceeds :data:`MAX_FRAME_BYTES`.

    Distinct from a JSON decode failure because the recovery differs: an
    implausible length prefix means the stream can no longer be framed,
    so the connection must close after the error reply.
    """


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one length-prefixed JSON frame; ``None`` on clean EOF.

    Raises :class:`FrameTooLarge` for an implausible length prefix and
    :class:`json.JSONDecodeError` / :class:`UnicodeDecodeError` for a
    corrupt body (framing intact — the caller may keep the connection).
    """
    await faults.site_async("serve.read_frame")
    try:
        header = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = await reader.readexactly(length)
    return json.loads(body.decode("utf-8"))


def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    frame = _LENGTH.pack(len(body)) + body
    try:
        frame = faults.site("serve.write_frame", frame)
    except faults.InjectedDrop:
        # Torn mid-frame: ship half the reply, then let the drop tear the
        # connection down — the client sees EOF inside a frame.
        writer.write(frame[: max(1, len(frame) // 2)])
        raise
    writer.write(frame)


@dataclasses.dataclass
class ServerStats:
    requests: int = 0
    predictions: int = 0
    errors: int = 0
    connections: int = 0


class PredictionServer:
    """Serves one live model (one registry key) over TCP."""

    def __init__(
        self,
        slot: ModelSlot,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_config: Optional[BatchConfig] = None,
        manager=None,
        request_deadline_s: float = 30.0,
        reuse_port: bool = False,
        backend: str = "cpu",
    ):
        if request_deadline_s <= 0:
            raise ValueError("request_deadline_s must be > 0")
        self.slot = slot
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        #: Which timing backend produced the profiles this model serves;
        #: tags ``info``/``stats`` payloads and prometheus series.
        self.backend = backend
        #: Optional :class:`~repro.serve.manager.ServingManager` (or the
        #: shard workers' forwarding proxy): anything with
        #: ``handle_observe_stream`` and ``stats_dict``.
        self.manager = manager
        self.batcher = MicroBatcher(slot, batch_config)
        self.request_deadline_s = request_deadline_s
        self.stats = ServerStats()
        # Cached instrument handles: one dict lookup per server, not per
        # request (no-op singletons when $REPRO_OBS=0).
        self._obs_latency = obs.histogram(
            "serve.request_seconds", obs.SECONDS_BUCKETS
        )
        self._obs_requests = obs.counter("serve.requests")
        self._obs_predictions = obs.counter("serve.predictions")
        self._obs_errors = obs.counter("serve.errors")
        self._obs_rejected = obs.counter("serve.rejected_429")
        self._obs_connections = obs.counter("serve.connections")
        self._obs_bad_frames = obs.counter("serve.bad_frames")
        self._obs_deadline = obs.counter("serve.deadline_timeouts")
        self._obs_dropped = obs.counter("serve.dropped_connections")
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._conn_tasks: set = set()
        # Dispatch table: op name -> handler(request) (sync or async).
        # Subclasses (e.g. the shard worker server) extend the protocol by
        # registering additional entries instead of overriding dispatch.
        self._ops: Dict[str, object] = {
            "ping": lambda request: {"ok": True, "op": "ping"},
            "info": lambda request: self._op_info(),
            "stats": lambda request: self._op_stats(),
            "metrics": self._op_metrics,
            "predict": self._op_predict,
            "predict_batch": self._op_predict_batch,
            "shutdown": self._op_shutdown,
        }
        if manager is not None:
            self._ops["observe_stream"] = manager.handle_observe_stream

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        self.batcher.start()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a ``shutdown`` op) is called."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        await self._shutdown()

    def stop(self) -> None:
        self._stopped.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit blocked in read_frame; cancel them
        # so the loop drains cleanly instead of abandoning coroutines.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.batcher.close()

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._obs_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameTooLarge as exc:
                    # A bogus length prefix desynchronizes the stream:
                    # reply with structure, then close — nothing after
                    # this frame can be parsed.
                    self.stats.errors += 1
                    self._obs_errors.inc()
                    self._obs_bad_frames.inc()
                    write_frame(
                        writer, {"ok": False, "status": 413, "error": str(exc)}
                    )
                    await writer.drain()
                    break
                except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
                    # The length prefix was honored, only the body is
                    # damaged — framing survives, so answer 400 and keep
                    # serving this connection.
                    self.stats.errors += 1
                    self._obs_errors.inc()
                    self._obs_bad_frames.inc()
                    write_frame(
                        writer,
                        {"ok": False, "status": 400, "error": f"bad frame: {exc}"},
                    )
                    await writer.drain()
                    continue
                if request is None:
                    break
                response = await self._dispatch(request)
                write_frame(writer, response)
                await writer.drain()
                if request.get("op") == "shutdown":
                    break
        except ConnectionError:
            # Peer reset (or an injected drop) — count it and fall through
            # to the close; per-request state is owned by the batcher and
            # unaffected.
            self._obs_dropped.inc()
        except asyncio.CancelledError:
            # Server shutdown cancels idle keep-alive readers; absorb the
            # cancellation so the task finishes cleanly instead of tripping
            # asyncio.streams' done-callback with a CancelledError.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -- dispatch ------------------------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        start = time.perf_counter()
        try:
            # The per-request deadline: a dispatch that stalls (slow model,
            # wedged executor, injected delay) is cancelled and answered
            # with a structured 408 instead of silently holding the
            # connection hostage.
            return await asyncio.wait_for(
                self._dispatch_op(request), self.request_deadline_s
            )
        except asyncio.TimeoutError:
            self.stats.errors += 1
            self._obs_errors.inc()
            self._obs_deadline.inc()
            return {
                "ok": False,
                "status": 408,
                "error": f"request exceeded the {self.request_deadline_s}s deadline",
            }
        finally:
            self._obs_latency.observe(time.perf_counter() - start)

    async def _dispatch_op(self, request: dict) -> dict:
        self.stats.requests += 1
        self._obs_requests.inc()
        op = request.get("op")
        handler = self._ops.get(op) if isinstance(op, str) else None
        try:
            await faults.site_async("serve.dispatch")
            if handler is None:
                self.stats.errors += 1
                self._obs_errors.inc()
                return {"ok": False, "status": 404, "error": f"unknown op {op!r}"}
            result = handler(request)
            if asyncio.iscoroutine(result):
                result = await result
            return result
        except QueueFullError as exc:
            self.stats.errors += 1
            self._obs_errors.inc()
            self._obs_rejected.inc()
            return {"ok": False, "status": 429, "error": str(exc)}
        except RequestTimeout as exc:
            self.stats.errors += 1
            self._obs_errors.inc()
            return {"ok": False, "status": 408, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            self.stats.errors += 1
            self._obs_errors.inc()
            return {"ok": False, "status": 400, "error": f"bad request: {exc}"}
        except RuntimeError as exc:
            self.stats.errors += 1
            self._obs_errors.inc()
            status = 503 if "no model" in str(exc) else 500
            return {"ok": False, "status": status, "error": str(exc)}

    # -- operations ----------------------------------------------------------------

    @staticmethod
    def _request_row(request: dict, n_variables: int) -> np.ndarray:
        if "row" in request:
            row = np.asarray(request["row"], dtype=float)
        else:
            row = np.concatenate(
                [
                    np.asarray(request["x"], dtype=float),
                    np.asarray(request["y"], dtype=float),
                ]
            )
        if row.ndim != 1 or row.shape[0] != n_variables:
            raise ValueError(
                f"expected {n_variables} feature values, got shape {row.shape}"
            )
        if not np.isfinite(row).all():
            raise ValueError("non-finite feature values")
        return row

    def _op_info(self) -> dict:
        version, model = self.slot.get()
        return {
            "ok": True,
            "model_version": version,
            "backend": self.backend,
            "variables": list(model.variable_names),
            "n_terms": model.n_terms,
            "response": model.response,
        }

    async def _op_predict(self, request: dict) -> dict:
        _, model = self.slot.get()
        row = self._request_row(request, len(model.variable_names))
        prediction, version = await self.batcher.submit(row)
        self.stats.predictions += 1
        self._obs_predictions.inc()
        return {"ok": True, "prediction": prediction, "model_version": version}

    def _op_predict_batch(self, request: dict) -> dict:
        version, model = self.slot.get()
        rows = np.asarray(request["rows"], dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(model.variable_names):
            raise ValueError(
                f"rows must be (n, {len(model.variable_names)}), "
                f"got shape {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise ValueError("non-finite feature values")
        predictions = model.predict_rows(rows)
        self.stats.predictions += len(predictions)
        self._obs_predictions.inc(len(predictions))
        return {
            "ok": True,
            "predictions": [float(p) for p in predictions],
            "model_version": version,
        }

    def _op_shutdown(self, request: dict) -> dict:
        self.stop()
        return {"ok": True, "op": "shutdown"}

    def _op_metrics(self, request: dict) -> dict:
        if request.get("format") == "prometheus":
            text = obs.prometheus_dump(labels={"backend": self.backend})
            return {"ok": True, "format": "prometheus", "text": text}
        return {"ok": True, "format": "snapshot", "metrics": obs.snapshot()}

    def _op_stats(self) -> dict:
        payload: Dict[str, object] = {
            "ok": True,
            "requests": self.stats.requests,
            "predictions": self.stats.predictions,
            "errors": self.stats.errors,
            "connections": self.stats.connections,
            "model_version": self.slot.version,
            "batching": self.batcher.stats.to_dict(),
        }
        if self.manager is not None:
            payload["updates"] = self.manager.stats_dict()
        return payload
