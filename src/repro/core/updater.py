"""Inductive system-model management (§3.2-§3.3).

:class:`ModelManager` maintains the steady-state model M over spaces H and
S, and handles perturbations:

1. A new application +s arrives with at least one profile.  The manager
   *checks* the existing model: is prediction error for +s competitive with
   the steady-state error for applications in S?
2. If yes, the new application shares behavior with observed software and
   the model is kept (the profile is still absorbed into S).
3. If not, the error may still be an outlier, so the manager requests more
   profiles (10-20 additional points suffice in practice) before deciding.
4. Once enough evidence accrues, the manager *updates*: the new profiles
   join S and the genetic heuristic re-specifies and refits the model over
   the grown dataset (every profile weighted alike).

The profile-accrual threshold also implements the paper's *hysteresis*:
systems that profile periodically and selectively only trigger updates
after sufficient data accumulates.

This is the library-level reproduction of the policy.  A served model runs
the same trigger as a setting of its streaming respecifier's drift gate
(:class:`repro.stream.DriftConfig`), whose baseline is the same GA error
this manager calls :attr:`ModelManager.steady_state_error`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.core.genetic import GeneticSearch
from repro.core.metrics import median_error
from repro.core.model import InferredModel

#: Additional profiles required before an update may trigger (§3.3:
#: "10-20 additional data points are sufficient").
DEFAULT_MIN_UPDATE_PROFILES = 10

#: A new application is "poorly served" when its median error exceeds this
#: multiple of the steady-state error.
DEFAULT_ERROR_TOLERANCE = 1.5


@dataclasses.dataclass
class ObservationOutcome:
    """Result of checking a new application against the current model."""

    application: str
    median_error: float
    steady_state_error: float
    accurate: bool
    n_profiles: int
    update_triggered: bool


class ModelManager:
    """Owns the dataset, the model, and the update policy."""

    def __init__(
        self,
        dataset: ProfileDataset,
        search: Optional[GeneticSearch] = None,
        generations: int = 10,
        update_generations: int = 5,
        min_update_profiles: int = DEFAULT_MIN_UPDATE_PROFILES,
        error_tolerance: float = DEFAULT_ERROR_TOLERANCE,
    ):
        if len(dataset) == 0:
            raise ValueError("boot-strap the manager with a non-empty dataset")
        self.dataset = dataset
        self.search = search or GeneticSearch()
        self.generations = generations
        self.update_generations = update_generations
        self.min_update_profiles = min_update_profiles
        self.error_tolerance = error_tolerance

        self.model: Optional[InferredModel] = None
        self.steady_state_error: float = np.inf
        self._pending: Dict[str, List[ProfileRecord]] = {}

    # -- bootstrap -----------------------------------------------------------------

    def train(self) -> InferredModel:
        """Boot-strap: run the genetic search and fit the steady-state model.

        "In practice, this hypothesis holds because models can be
        boot-strapped with data from benchmark suites" (§3.2).
        """
        result = self.search.run(self.dataset, self.generations)
        self.model = result.best_model(self.dataset)
        self.steady_state_error = result.best_fitness.mean_error
        return self.model

    # -- perturbation handling --------------------------------------------------------

    def observe(self, profiles: Sequence[ProfileRecord]) -> ObservationOutcome:
        """Absorb profiles of one (possibly new) application.

        Checks model accuracy on the profiles, queues them, and — once the
        application is inaccurate *and* enough profiles accrued — triggers
        a model update.
        """
        self._require_trained()
        if not profiles:
            raise ValueError("observe() needs at least one profile")
        apps = {p.application for p in profiles}
        if len(apps) != 1:
            raise ValueError(f"one application per observation, got {sorted(apps)}")
        application = profiles[0].application

        pending = self._pending.setdefault(application, [])
        pending.extend(profiles)

        probe = ProfileDataset(self.dataset.x_names, self.dataset.y_names, pending)
        predictions = self.model.predict(probe)
        error = median_error(predictions, probe.targets())
        accurate = error <= self.error_tolerance * self.steady_state_error

        update_triggered = False
        if accurate:
            # Shares behavior with observed software: absorb silently.
            self._absorb(application)
        elif len(pending) >= self.min_update_profiles:
            self._absorb(application)
            self.update()
            update_triggered = True

        return ObservationOutcome(
            application=application,
            median_error=error,
            steady_state_error=self.steady_state_error,
            accurate=accurate,
            n_profiles=len(pending),
            update_triggered=update_triggered,
        )

    def update(self) -> InferredModel:
        """Re-specify and refit the model over the current dataset (§3.3)."""
        self._require_trained()
        result = self.search.update(self.dataset, self.update_generations)
        spec = result.best_chromosome.to_spec(self.dataset.variable_names)
        self.model = InferredModel.fit(spec, self.dataset)
        self.steady_state_error = result.best_fitness.mean_error
        return self.model

    # -- helpers --------------------------------------------------------------------

    def pending_profiles(self, application: str) -> int:
        return len(self._pending.get(application, []))

    def _absorb(self, application: str) -> None:
        for record in self._pending.pop(application, []):
            self.dataset.add(record)

    def _require_trained(self) -> None:
        if self.model is None:
            raise RuntimeError("call train() before observing profiles")
