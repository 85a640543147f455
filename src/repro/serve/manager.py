"""Live model maintenance: wiring §3.2–§3.3 into the serving loop.

:class:`ServingManager` owns the feedback path of the service.  The
prediction path never touches it — predictions read the
:class:`~repro.serve.batching.ModelSlot` snapshot and nothing else — so a
re-specification in flight can never block or fail a prediction.

A served model has exactly one maintenance path, the
:class:`repro.stream.StreamingRespecifier` it was bootstrapped with:

1. ``observe_stream`` frames deliver profiles of a (possibly new)
   application.  Ingestion — prequential scoring against the model of
   the last specification, Gram accumulation, coefficient refresh — runs
   in a worker thread; the asyncio loop stays free to serve predictions.
2. The drift detector compares the windowed median error with the GA
   error of the last specification.  The paper's update policy (re-specify
   once 10 or more profiles err beyond 1.5x the steady-state error) is
   the detector setting ``DriftConfig(min_fill=10, trip_ratio=1.5,
   patience=1)``.
3. Once the detector trips, ONE background re-specification runs: the GA
   resumes warm-started from its retained population (fanning out across
   processes via ``repro.parallel`` when ``REPRO_WORKERS`` is set) and the
   winner is refit on all evidence.
4. Every new model — bootstrap, refresh, re-specification — leaves through
   :meth:`ServingManager.publish`: registry first (durable), then the slot
   swap (visible).  Then, outside the learner's lock,
   :meth:`ServingManager.fan_out` awaits the ``on_swap`` hook (the fleet
   reload broadcast) before the frame is answered.  The swap
   is a single atomic snapshot rebind: every in-flight batch keeps the
   version it started with, every later batch sees the new one — zero
   dropped requests, old-or-new only.

**Failure policy**: an update that raises anywhere — re-specification,
publish, swap — degrades gracefully to the last-good model.  The slot is
only rebound after a successful publish, so the live snapshot is
untouched by construction; the failure is recorded
(``updates_failed`` / ``last_error`` in :meth:`ServingManager.stats_dict`,
``serve.updates_failed`` in obs) and swallowed rather than left to die as
an unobserved task exception.  Serving never stops because learning
stumbled.  The ``serve.update`` and ``stream.respec`` fault sites inject
such failures in ``tests/test_serve_chaos.py`` and
``tests/test_stream_chaos.py``.

Swap safety and version monotonicity are asserted by
``tests/test_serve_manager.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro import faults, obs
from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.serve.batching import ModelSlot
from repro.serve.registry import ModelKey, ModelRegistry

if TYPE_CHECKING:
    from repro.stream import StreamingRespecifier


@dataclasses.dataclass
class UpdateStats:
    updates_started: int = 0
    updates_completed: int = 0
    updates_failed: int = 0
    stream_batches: int = 0
    stream_refreshes: int = 0
    stream_respecs: int = 0
    stream_failed: int = 0
    last_published_version: int = 0
    last_error: Optional[str] = None


def _record_last_error(stats: UpdateStats, error: Optional[str]) -> None:
    """Track the last update error in stats AND the Prometheus export.

    ``last_error`` historically only reached ``stats`` frames; the gauge
    makes failure state visible through ``metrics`` /
    ``serve --metrics-dump`` too (1 = last maintenance action failed),
    picking up ``{shard=...}`` labels for free under the sharded tier.
    """
    stats.last_error = error
    obs.gauge("serve.update_last_error").set(0.0 if error is None else 1.0)


class ServingManager:
    """Bridges ``observe_stream`` traffic to the respecifier and the slot.

    ``respecifier`` must be bootstrapped; its incumbent model is what
    :meth:`publish` ships.  ``publish_every`` throttles how often
    coefficient *refreshes* reach the registry: every registry publish is
    a durable tmp/fsync/rename write plus a new version, so publishing
    each refresh puts a disk fsync on the hot ingest path and grows the
    registry without bound.  With ``publish_every=N`` only every Nth
    refresh is published (re-specifications always publish immediately).
    """

    def __init__(
        self,
        respecifier: StreamingRespecifier,
        registry: ModelRegistry,
        key: ModelKey,
        slot: ModelSlot,
        backend: str = "cpu",
        publish_every: int = 1,
    ):
        if respecifier.model is None:
            raise RuntimeError("bootstrap() the respecifier before serving it")
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.respecifier = respecifier
        self.registry = registry
        self.key = key
        self.slot = slot
        #: Timing backend this model's profiles came from; stamped into
        #: every registry publish and reported by ``stats``.
        self.backend = backend
        self.publish_every = publish_every
        self.stats = UpdateStats()
        # Export the health gauge from boot, not first failure: a scrape
        # that has never seen serve.update_last_error cannot alert on it.
        _record_last_error(self.stats, None)
        # One worker: ingests and re-specifications both mutate the
        # respecifier, so they serialize on this executor; the _lock
        # additionally keeps each ingest/decide/publish step atomic.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-update"
        )
        self._lock = asyncio.Lock()
        self._update_task: Optional[asyncio.Task] = None
        self._refreshes_since_publish = 0
        #: Optional async hook ``on_swap(version)`` awaited by
        #: :meth:`fan_out` after each successful publish-then-swap.  The
        #: shard supervisor registers its fleet-wide reload broadcast
        #: here; failures are counted
        #: (``serve.swap_hook_failures``), never allowed to fail the
        #: update itself — the local slot already swapped.
        self.on_swap = None

    # -- publishing ----------------------------------------------------------------

    def publish(self, trigger: str) -> int:
        """Publish the respecifier's model: durable, then visible.

        Returns the new version; the caller then awaits
        :meth:`fan_out` with it.  Past bootstrap, callers hold
        ``self._lock``: publishing reads the respecifier's model and
        detector, which ``ingest`` mutates on the executor thread while
        :meth:`handle_observe_stream` holds the lock.
        """
        self._refreshes_since_publish = 0
        model = self.respecifier.model
        receipt = self.registry.publish(
            self.key,
            model,
            metadata={
                "trigger": trigger,
                "backend": self.backend,
                "n_records": len(self.respecifier.dataset),
                "baseline_error": self.respecifier.detector.baseline,
                "drift_score": self.respecifier.detector.score(),
            },
        )
        # Durable first, visible second: a crash between the two leaves a
        # valid registry entry and a stale-but-correct live model.
        self.slot.swap(receipt.version, model)
        self.stats.last_published_version = receipt.version
        obs.gauge("serve.model_version").set(receipt.version)
        return receipt.version

    async def fan_out(self, version: int) -> None:
        """Await the ``on_swap`` hook for a published ``version``.

        Called after ``self._lock`` is released: a fleet reload waits on
        every shard, and a wedged shard must not stall other ingests.
        Shards gate reloads on the version, so fan-outs that overtake
        each other never roll one back.
        """
        if self.on_swap is None:
            return
        try:
            await self.on_swap(version)
        except Exception:
            # Published and swapped locally; a failed fan-out is the
            # fleet layer's problem — it reconciles on respawn/reload.
            obs.counter("serve.swap_hook_failures").inc()

    # -- observe path --------------------------------------------------------------

    async def handle_observe_stream(self, request: dict) -> dict:
        """Serve one ``observe_stream`` frame: ingest, maybe refresh/respec.

        Coefficient refreshes happen inline (they are p×p solves); a
        tripped drift detector instead schedules ONE background
        re-specification, predictions staying on the incumbent snapshot
        for its whole duration.
        """
        respecifier = self.respecifier
        application = request["application"]
        batch = ProfileDataset(
            respecifier.dataset.x_names, respecifier.dataset.y_names
        )
        for p in request["profiles"]:
            batch.add(
                ProfileRecord(
                    application,
                    np.asarray(p["x"], dtype=float),
                    np.asarray(p["y"], dtype=float),
                    float(p["z"]),
                )
            )
        if len(batch) == 0:
            raise ValueError("observe_stream needs at least one profile")

        loop = asyncio.get_running_loop()
        respec_scheduled = False
        published: Optional[int] = None
        async with self._lock:
            try:
                # Respec is deferred to a background task; ingestion itself
                # (prequential scoring + Gram fold + refresh solve) is cheap
                # and runs off-loop on the update executor.
                outcome = await loop.run_in_executor(
                    self._executor,
                    lambda: respecifier.ingest(batch, allow_respec=False),
                )
            except Exception as exc:
                # Same degradation contract as _run_respec: the slot keeps
                # the last-good snapshot, the failure is recorded, serving
                # continues.  stream.ingest fault injections land here.
                self.stats.stream_failed += 1
                _record_last_error(self.stats, f"{type(exc).__name__}: {exc}")
                obs.counter("serve.stream_failed").inc()
                return {"ok": False, "status": 500, "error": self.stats.last_error}
            self.stats.stream_batches += 1
            obs.counter("serve.stream_batches").inc()
            if outcome.refreshed:
                self.stats.stream_refreshes += 1
                self._refreshes_since_publish += 1
                if self._refreshes_since_publish >= self.publish_every:
                    published = self.publish("stream-refresh")
                else:
                    # Throttled (publish_every): the refresh updated the
                    # in-memory incumbent; the durable publish rides along
                    # with a later refresh or re-spec.
                    obs.counter("serve.stream_publish_deferred").inc()
            if outcome.needs_respec and not self.update_in_progress:
                self._update_task = loop.create_task(self._run_respec())
                self.stats.updates_started += 1
                respec_scheduled = True
        if published is not None:
            await self.fan_out(published)

        return {
            "ok": True,
            "application": application,
            "action": outcome.action,
            "drift_score": outcome.drift_score,
            "drift_tripped": outcome.tripped,
            "batch_error": outcome.batch_error,
            "respec_scheduled": respec_scheduled,
            "model_version": self.slot.version,
        }

    # -- the background re-specification -------------------------------------------

    @property
    def update_in_progress(self) -> bool:
        return self._update_task is not None and not self._update_task.done()

    async def wait_for_update(self) -> None:
        """Block until any in-flight update settles (test/shutdown hook)."""
        if self._update_task is not None:
            await asyncio.shield(self._update_task)

    async def _run_respec(self) -> None:
        """Background drift-triggered re-specification (GA warm-start).

        The GA — minutes of CPU at paper scale — runs off-loop and
        lock-free (the single-worker executor already serializes it
        against ingests), but the publish step takes ``self._lock`` like
        every other post-bootstrap publish: an unlocked publish can crash
        on the detector's deque mutating mid-``score()`` and record the
        successful respec as failed.
        """
        loop = asyncio.get_running_loop()
        try:
            faults.site("serve.update")
            with obs.span("serve.stream_respec"):
                await loop.run_in_executor(
                    self._executor, self.respecifier.respec
                )
            async with self._lock:
                version = self.publish("stream-respec")
                self.stats.stream_respecs += 1
                self.stats.updates_completed += 1
                _record_last_error(self.stats, None)
            obs.counter("serve.stream_respecs").inc()
            await self.fan_out(version)
        except Exception as exc:
            # Graceful degradation: the slot still holds the last-good
            # (version, model) snapshot — publish-then-swap means a failed
            # update never half-applies.  Record and absorb; a raised
            # exception here would only die unobserved in the task.
            self.stats.updates_failed += 1
            _record_last_error(self.stats, f"{type(exc).__name__}: {exc}")
            obs.counter("serve.updates_failed").inc()

    # -- reporting -----------------------------------------------------------------

    def stats_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "updates_started": self.stats.updates_started,
            "updates_completed": self.stats.updates_completed,
            "updates_failed": self.stats.updates_failed,
            "update_in_progress": self.update_in_progress,
            "last_published_version": self.stats.last_published_version,
            "last_error": self.stats.last_error,
            "stream": {
                "batches": self.stats.stream_batches,
                "refreshes": self.stats.stream_refreshes,
                "respecs": self.stats.stream_respecs,
                "failed": self.stats.stream_failed,
                **self.respecifier.stats_dict(),
            },
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False)
