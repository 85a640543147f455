"""Per-application model fitness — the heuristic's inner loop (§3.3).

For every application s in the profiled set S:

1. split s's profiles into training T_s and validation V_s;
2. fit the candidate model on ``{P_-s, T_s} x w`` — all other applications'
   profiles plus s's training profiles weighted by w;
3. the software fitness f_s is the model's accuracy on V_s.

Model fitness f_m is the average of f_s over applications.  We measure
accuracy as median absolute percentage error, so *lower is better*
throughout; the paper's convergence plot (Figure 5) reports the *sum* of
per-application median errors, which :class:`FitnessResult` also carries.

This module holds the contract every scorer shares — the result type,
the fixed per-search splits, and the constants.  The batched
:class:`repro.core.engine.FitnessEngine` is the production scorer; the
per-application reference loop it is tested against lives in
``tests/oracles/fitness.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Tuple

import numpy as np

from repro.core.dataset import ProfileDataset

#: Weight applied to the evaluated application's own training profiles.
DEFAULT_TRAINING_WEIGHT = 2.0

#: Fraction of an application's profiles used for training (rest validates).
DEFAULT_TRAIN_FRACTION = 0.7

#: Fitness assigned to models that fail to fit (degenerate specs).
FAILED_FITNESS = 10.0


@dataclasses.dataclass(frozen=True)
class FitnessResult:
    """Outcome of evaluating one candidate model specification."""

    mean_error: float                      # f_m (lower is better)
    sum_error: float                       # Figure 5's metric
    per_application: Dict[str, float]      # f_s per application

    @property
    def fitness(self) -> float:
        return self.mean_error


def derive_app_splits(
    dataset: ProfileDataset,
    seed: int,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Fix each application's train/validation split once per search.

    Returns per-application ``(train_indices, val_indices)`` arrays of
    *global* row indices into ``dataset``.  Each application's permutation
    is seeded by ``(seed, hash(application name))``, so its split is
    independent of application order and of which other applications exist
    — and, crucially, identical for every specification scored during a
    search.  That determinism is what makes fitness memoization sound: two
    evaluations of the same spec see the same splits and therefore the
    same fitness.

    Applications too small to split (fewer than 2 records) get an empty
    validation side, which scorers report as :data:`FAILED_FITNESS`.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    # Group by the row-label vector rather than the record objects, so any
    # dataset view exposing ``labels()`` — including the engine's
    # store-backed :class:`repro.core.engine.StoredDataset` — derives the
    # identical splits.
    groups: Dict[str, list] = {}
    for i, label in enumerate(dataset.labels()):
        groups.setdefault(str(label), []).append(i)
    splits: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for app, group in groups.items():
        indices = np.array(group, dtype=int)
        digest = hashlib.sha256(app.encode()).digest()
        app_entropy = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), app_entropy])
        )
        perm = rng.permutation(len(indices))
        cut = int(round(train_fraction * len(indices)))
        train = np.sort(indices[perm[:cut]])
        val = np.sort(indices[perm[cut:]])
        splits[app] = (train, val)
    return splits
