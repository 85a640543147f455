"""Assembly helpers: dataset → bootstrapped respecifier → registry → live server.

Used by the ``python -m repro.experiments serve`` CLI, the serving
benchmarks, and the end-to-end tests, so all three bring the service up
through the exact same path.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.core.genetic import GeneticSearch
from repro.serve.batching import BatchConfig, ModelSlot
from repro.serve.manager import ServingManager
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.server import PredictionServer
from repro.stream import DriftConfig, StreamingRespecifier

#: Variable layout of the demo service (three software characteristics,
#: two hardware parameters — the same shape the engine benchmark uses).
DEMO_X_NAMES = ("x1", "x2", "x3")
DEMO_Y_NAMES = ("y1", "y2")


def demo_dataset(
    n_apps: int = 4, n_per_app: int = 30, seed: int = 0
) -> ProfileDataset:
    """A small synthetic HW-SW profile set with known structure."""
    rng = np.random.default_rng(seed)
    ds = ProfileDataset(DEMO_X_NAMES, DEMO_Y_NAMES)
    for k in range(n_apps):
        for record in _app_records(f"app{k}", n_per_app, rng, shift=0.5 * k):
            ds.add(record)
    return ds


def outlier_profiles(
    application: str, n: int = 12, seed: int = 99, shift: float = 4.0
) -> List[ProfileRecord]:
    """Profiles of a behaviorally new application (forces a model update).

    The response surface gains a strong extra term the steady-state model
    has never seen, so its median error lands well outside the paper's
    1.5x tolerance band.
    """
    rng = np.random.default_rng(seed)
    return _app_records(application, n, rng, shift=shift, extra_term=1.5)


def _app_records(application, n, rng, shift=0.0, extra_term=0.0):
    records = []
    for _ in range(n):
        x = rng.normal(loc=shift, scale=1.0, size=3)
        y = rng.uniform(0.5, 2.0, size=2)
        z = (
            2.0 + 0.5 * x[0] - 0.3 * x[1] + 0.2 * x[2] ** 2
            + 0.8 * y[0] + 0.4 * x[0] * y[0]
            + extra_term * x[1] * y[1]
            + rng.normal(0, 0.01)
        )
        records.append(
            ProfileRecord(application, x, y, float(np.exp(z / 4.0)))
        )
    return records


def build_service(
    dataset: ProfileDataset,
    registry_root: Union[str, Path],
    space: str = "demo",
    application: str = "suite",
    host: str = "127.0.0.1",
    port: int = 0,
    generations: int = 3,
    population_size: int = 10,
    seed: int = 0,
    batch_config: Optional[BatchConfig] = None,
    request_deadline_s: float = 30.0,
    backend: str = "cpu",
    drift_config: DriftConfig = DriftConfig(),
    publish_every: int = 1,
) -> Tuple[PredictionServer, ServingManager, ModelRegistry]:
    """Bootstrap, publish, and assemble a ready-to-start server.

    The caller still runs the asyncio lifecycle (``await server.start()``
    / ``serve_forever``); everything up to that — genetic bootstrap
    (§3.2) of the streaming respecifier that maintains the model from
    then on, registry publish, slot load, manager wiring — happens here.
    ``drift_config`` sets the re-specification trigger (the paper's
    policy is ``DriftConfig(min_fill=10, trip_ratio=1.5, patience=1)``);
    ``publish_every`` throttles refresh publishes (see
    :class:`ServingManager`).  ``backend`` names the timing backend the
    profiles came from; it must be registered in
    :mod:`repro.uarch.backends` and flows into registry metadata, stats
    payloads, and prometheus labels.
    """
    from repro.uarch.backends import get_backend

    get_backend(backend)  # reject unknown names before anything is built
    respecifier = StreamingRespecifier(
        dataset,
        GeneticSearch(population_size=population_size, seed=seed),
        drift_config=drift_config,
    )
    respecifier.bootstrap(generations)

    registry = ModelRegistry(registry_root)
    slot = ModelSlot()
    serving = ServingManager(
        respecifier,
        registry,
        ModelKey(space, application),
        slot,
        backend=backend,
        publish_every=publish_every,
    )
    serving.publish("bootstrap")
    server = PredictionServer(
        slot,
        host=host,
        port=port,
        batch_config=batch_config,
        manager=serving,
        request_deadline_s=request_deadline_s,
        backend=backend,
    )
    return server, serving, registry
