"""Drift detection over a prequential error stream.

The incumbent model is scored on every incoming batch *before* that batch
is folded into the training state (test-then-train, a.k.a. prequential
evaluation) — an honest held-out error signal with no separate holdout
split, in the spirit of Stevens & Klöckner's black-box held-out gating
(PAPERS.md).  :class:`DriftDetector` maintains a sliding window of those
per-record errors and compares the window median against the error the
incumbent specification achieved when it was last (re-)specified.

Hysteresis keeps noise from thrashing the GA:

* the window must hold at least ``min_fill`` errors before any verdict;
* the ratio must exceed ``trip_ratio`` on ``patience`` *consecutive*
  checks — one bad batch never trips;
* after a trip the detector latches until :meth:`DriftDetector.reset`
  (the re-specification) re-arms it, and re-arming additionally requires
  the score to fall back under ``clear_ratio`` so a still-degraded model
  does not immediately re-trip on residual window contents.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable

import numpy as np

from repro import obs


@dataclasses.dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for :class:`DriftDetector`.

    ``trip_ratio`` is in units of the baseline error: 1.5 means "trip when
    the windowed median error exceeds 1.5x the error measured at the last
    re-specification".

    The paper's §3.2–3.3 update trigger — re-specify once a new
    application's median error exceeds 1.5x the steady-state error and 10
    or more of its profiles have accrued — is
    ``DriftConfig(min_fill=10, trip_ratio=1.5, patience=1)``.  The
    detector's baseline is the GA's ``best_fitness.mean_error``, the value
    :class:`repro.core.updater.ModelManager` calls ``steady_state_error``,
    so on a first batch of 10 to ``window`` profiles the detector's score
    is exactly that manager's ``median_error / steady_state_error``.
    """

    window: int = 64          # sliding window length, in records
    min_fill: int = 16        # verdicts need at least this many errors
    trip_ratio: float = 1.5   # windowed error / baseline that signals drift
    clear_ratio: float = 1.1  # must fall below this to re-arm after reset
    patience: int = 3         # consecutive over-threshold checks to trip

    def __post_init__(self):
        if self.window < 1 or not 1 <= self.min_fill <= self.window:
            raise ValueError("need 1 <= min_fill <= window")
        if not 1.0 <= self.clear_ratio <= self.trip_ratio:
            raise ValueError("need 1.0 <= clear_ratio <= trip_ratio")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


class DriftDetector:
    """Sliding-window prequential drift gate with hysteresis.

    ``baseline`` is the incumbent model's error at its last
    (re-)specification, in the same units as the errors passed to
    :meth:`observe` (we use absolute relative error throughout, matching
    :func:`repro.core.metrics.median_error`).
    """

    def __init__(self, baseline: float, config: DriftConfig = DriftConfig()):
        if baseline <= 0:
            raise ValueError("baseline error must be positive")
        self.config = config
        self.baseline = baseline
        self._window: deque = deque(maxlen=config.window)
        self._streak = 0
        self._armed = True
        self.tripped = False

    # -- signal ---------------------------------------------------------------------

    def observe(self, errors: Iterable[float]) -> bool:
        """Fold one batch of per-record errors in; return :attr:`tripped`.

        A single :meth:`observe` call is one "check" for patience
        purposes, however many records it carries — so patience counts
        consecutive degraded *batches*, not records.
        """
        batch = [float(e) for e in errors]
        self._window.extend(batch)
        score = self.score()
        obs.gauge("stream.drift_score").set(score)
        obs.gauge("stream.window_error").set(self._window_error())
        if len(self._window) < self.config.min_fill:
            return self.tripped
        if not self._armed:
            # Re-arm only once the model demonstrably recovered; otherwise
            # stale window contents would trip again right after a respec.
            if score < self.config.clear_ratio:
                self._armed = True
                self._streak = 0
            return self.tripped
        if self.tripped:
            return True
        if score > self.config.trip_ratio:
            self._streak += 1
            if self._streak >= self.config.patience:
                self.tripped = True
                obs.counter("stream.drift_trips").inc()
        else:
            self._streak = 0
        return self.tripped

    def score(self) -> float:
        """Windowed median error as a multiple of the baseline."""
        if not self._window:
            return 0.0
        return self._window_error() / self.baseline

    def _window_error(self) -> float:
        if not self._window:
            return 0.0
        return float(np.median(np.asarray(self._window)))

    # -- lifecycle ------------------------------------------------------------------

    def reset(self, baseline: float) -> None:
        """Acknowledge a re-specification: new baseline, cleared window.

        The detector stays disarmed until the post-respec score drops
        under ``clear_ratio`` (see :meth:`observe`), so the first few
        batches after a respec cannot immediately re-trip it.
        """
        if baseline <= 0:
            raise ValueError("baseline error must be positive")
        self.baseline = baseline
        self._window.clear()
        self._streak = 0
        self.tripped = False
        self._armed = False

    @property
    def fill(self) -> int:
        return len(self._window)
