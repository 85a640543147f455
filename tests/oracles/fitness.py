"""Per-application reference oracle for the batched fitness engine.

The paper's inner loop (§3.3) written directly: for every application s,
fit the candidate model on ``{P_-s, T_s} x w`` — all other applications'
profiles plus s's training profiles weighted by w — and score it by
median absolute percentage error on s's validation profiles.
:class:`repro.core.engine.FitnessEngine` solves the same weighted
least-squares problems in batch; the test suite compares the two, and
passes :func:`evaluate_spec` to ``GeneticSearch(evaluator=...)``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.dataset import ProfileDataset
from repro.core.design import ModelSpec
from repro.core.fitness import (
    DEFAULT_TRAIN_FRACTION,
    DEFAULT_TRAINING_WEIGHT,
    FAILED_FITNESS,
    FitnessResult,
)
from repro.core.metrics import median_error
from repro.core.model import InferredModel

#: Per-application (train_indices, val_indices) pairs of *global* dataset
#: row indices, as produced by :func:`repro.core.fitness.derive_app_splits`.
AppSplits = Mapping[str, Tuple[np.ndarray, np.ndarray]]


def evaluate_spec(
    spec: ModelSpec,
    dataset: ProfileDataset,
    rng: np.random.Generator,
    weight: float = DEFAULT_TRAINING_WEIGHT,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    splits: Optional[AppSplits] = None,
) -> FitnessResult:
    """Evaluate a candidate specification with the paper's inner loop.

    With ``splits`` (from :func:`repro.core.fitness.derive_app_splits`)
    the per-application train/validation partitions are taken as given
    and ``rng`` is not consumed; without it, each application is split
    with fresh ``rng`` draws.
    """
    applications = dataset.applications
    if not applications:
        raise ValueError("dataset has no applications")
    groups = dataset.by_application()

    per_app: Dict[str, float] = {}
    for app in applications:
        others = dataset.without_application(app)
        if splits is not None:
            train_idx, val_idx = splits[app]
            train_own = dataset.subset([int(i) for i in train_idx])
            val_own = dataset.subset([int(i) for i in val_idx])
        else:
            own = groups[app]
            if len(own) < 2:
                per_app[app] = FAILED_FITNESS
                continue
            train_own, val_own = own.split(train_fraction, rng, stratify=False)
        per_app[app] = _fit_and_score(spec, others, train_own, val_own, weight)
    errors = np.array(list(per_app.values()))
    return FitnessResult(
        mean_error=float(errors.mean()),
        sum_error=float(errors.sum()),
        per_application=per_app,
    )


def _fit_and_score(
    spec: ModelSpec,
    others: ProfileDataset,
    train_own: ProfileDataset,
    val_own: ProfileDataset,
    weight: float,
) -> float:
    """Fit on {P_-s, T_s} x w, score on V_s."""
    if len(val_own) == 0 or len(train_own) == 0:
        return FAILED_FITNESS
    combined = ProfileDataset.merge([others, train_own])
    weights = np.concatenate(
        [np.ones(len(others)), np.full(len(train_own), weight)]
    )
    try:
        model = InferredModel.fit(spec, combined, weights=weights)
        predictions = model.predict(val_own)
    except (ValueError, np.linalg.LinAlgError):
        return FAILED_FITNESS
    targets = val_own.targets()
    if not np.isfinite(predictions).all():
        return FAILED_FITNESS
    return min(median_error(predictions, targets), FAILED_FITNESS)
