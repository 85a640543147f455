"""Batched fitness evaluation for the genetic search (§3.3's inner loop).

The reference per-application inner loop (``evaluate_spec``, kept as
the oracle in ``tests/oracles/fitness.py``) pays three layers of
redundant work for every candidate model in a population:

1. **Transform refits.**  Every per-application fit re-estimates each
   variable's ladder power, standardization, and spline knots, although
   specs in a population share almost all of their ``(variable, kind)``
   columns.  The :class:`ColumnStore` fits each transform column once per
   dataset and every spec assembles its design matrix by column selection.
2. **Full least-squares per application.**  The leave-one-application-out
   sweep solves |apps| SVD-backed least-squares problems over nearly
   identical row sets.  :class:`FitnessEngine` accumulates the
   intercept-augmented Gram system ``(AᵀA, Aᵀy)`` once per spec, keeps
   per-application train/validation blocks, and realizes application s's
   weighted fit on ``{P_-s, T_s} × w`` as the block update
   ``G_total - G_val(s) + (w - 1) · G_train(s)`` followed by an O(p³)
   Cholesky solve — falling back to the reference ``lstsq`` path whenever
   the Gram system is ill-conditioned (:func:`solve_gram` declines).
3. **Re-scoring identical specs.**  Handled one level up:
   :class:`repro.core.genetic.GeneticSearch` memoizes engine results by
   chromosome, which is sound because the engine's splits are fixed per
   search (:func:`repro.core.fitness.derive_app_splits`).

Equivalence guarantees (also documented in DESIGN.md): the engine solves
the *same* weighted least-squares problems as the oracle over the same
fixed splits, with two deliberate batching deviations — transform state
(powers, centering, knots) is estimated once on the full dataset instead
of per-application training unions, and collinearity pruning is decided
once on the full design instead of per application.  On well-conditioned
data the Gram solve matches :func:`fit_ols` to ~1e-8 (property-tested);
the benchmark suite additionally checks that a seeded search converges to
the same best specification on both paths.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.core.collinearity import prune_design
from repro.core.dataset import ProfileDataset
from repro.core.design import ModelSpec
from repro.core.fitness import (
    DEFAULT_TRAINING_WEIGHT,
    DEFAULT_TRAIN_FRACTION,
    FAILED_FITNESS,
    FitnessResult,
    derive_app_splits,
)
from repro.core.metrics import median_error
from repro.core.model import RESPONSE_TRANSFORMS
from repro.core.regression import (
    GRAM_CONDITION_LIMIT,
    fit_ols,
    solve_gram,
)
from repro.core.transforms import (
    TransformKind,
    choose_ladder_power,
    spline_knots,
    stabilize,
)

#: Clamp applied to log-scale linear predictors before exponentiation,
#: mirroring :meth:`repro.core.model.InferredModel.predict`.
_LOG_PREDICTION_CLIP = 50.0


class ColumnStore:
    """Per-dataset cache of fitted transform columns.

    Every ``(variable, TransformKind)`` basis block and every
    interaction's stabilized-linear product is computed at most once; the
    arithmetic matches :class:`repro.core.design.DesignMatrixBuilder`
    fitted on the same dataset bit-for-bit (the stabilized view, its
    powers, and the truncated-power spline columns are the identical numpy
    expressions).
    """

    def __init__(self, dataset: ProfileDataset, auto_stabilize: bool = True):
        self._matrix = dataset.matrix()
        self._names = dataset.variable_names
        self._index = {name: i for i, name in enumerate(self._names)}
        self.auto_stabilize = auto_stabilize
        self._stabilized: Dict[str, np.ndarray] = {}
        self._blocks: Dict[Tuple[str, TransformKind], Tuple[np.ndarray, Tuple[str, ...]]] = {}
        self._products: Dict[Tuple[str, str], np.ndarray] = {}
        self.hits = 0
        self.builds = 0
        # Instrument handles are resolved once per store: no-op singletons
        # when observability is disabled, so the cache path stays flat.
        self._obs_hits = obs.counter("engine.column_hits")
        self._obs_builds = obs.counter("engine.column_builds")

    @property
    def n_rows(self) -> int:
        return self._matrix.shape[0]

    def hit_rate(self) -> float:
        total = self.hits + self.builds
        return self.hits / total if total else 0.0

    def stabilized(self, name: str) -> np.ndarray:
        """The variable's stabilized-linear view (power ladder, standardize,
        clamp) — the column interactions multiply."""
        cached = self._stabilized.get(name)
        if cached is not None:
            return cached
        if name not in self._index:
            raise ValueError(f"spec references unknown variable {name!r}")
        values = self._matrix[:, self._index[name]]
        power = choose_ladder_power(values) if self.auto_stabilize else 1
        z = stabilize(values, power)
        center = float(z.mean())
        scale = float(z.std())
        if scale < 1e-12:
            scale = 1.0
        # No clamp: FittedTransform's clip range covers the fit sample by
        # construction, so it is an exact no-op on the data it was fit on.
        zs = (z - center) / scale
        self._stabilized[name] = zs
        return zs

    def main_effect(
        self, name: str, kind: TransformKind
    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """Basis block and column suffixes for one ``(variable, kind)``."""
        key = (name, kind)
        cached = self._blocks.get(key)
        if cached is not None:
            self.hits += 1
            self._obs_hits.inc()
            return cached
        self.builds += 1
        self._obs_builds.inc()
        if kind == TransformKind.EXCLUDED:
            block: Tuple[np.ndarray, Tuple[str, ...]] = (
                np.empty((self.n_rows, 0)), ()
            )
        else:
            zs = self.stabilized(name)
            if kind == TransformKind.SPLINE:
                knots = np.unique(np.round(spline_knots(zs), 9))
                columns = [zs, zs**2, zs**3]
                columns += [np.maximum(zs - knot, 0.0) ** 3 for knot in knots]
                suffixes = ("", "^2", "^3") + tuple(
                    f"~k{i + 1}" for i in range(len(knots))
                )
            else:
                degree = int(kind)
                columns = [zs ** d for d in range(1, degree + 1)]
                suffixes = ("", "^2", "^3")[:degree]
            block = (np.column_stack(columns), suffixes)
        self._blocks[key] = block
        return block

    def interaction(self, a: str, b: str) -> np.ndarray:
        """The product term ``a * b`` of the two stabilized-linear views."""
        key = (a, b) if a < b else (b, a)
        cached = self._products.get(key)
        if cached is not None:
            self.hits += 1
            self._obs_hits.inc()
            return cached
        self.builds += 1
        self._obs_builds.inc()
        column = self.stabilized(key[0]) * self.stabilized(key[1])
        self._products[key] = column
        return column

    def design(self, spec: ModelSpec) -> Tuple[np.ndarray, List[str]]:
        """Assemble the spec's design matrix by column selection.

        Column order matches :class:`DesignMatrixBuilder`: main effects in
        spec order, then interactions sorted by pair.
        """
        blocks: List[np.ndarray] = []
        names: List[str] = []
        for name, kind in spec.transforms.items():
            block, suffixes = self.main_effect(name, kind)
            if block.shape[1]:
                blocks.append(block)
                names.extend(f"{name}{suffix}" for suffix in suffixes)
        for a, b in sorted(spec.interactions):
            blocks.append(self.interaction(a, b)[:, None])
            names.append(f"{a}*{b}")
        if not blocks:
            return np.empty((self.n_rows, 0)), names
        return np.column_stack(blocks), names


class FitnessEngine:
    """Scores model specifications against one dataset with fixed splits.

    Construct once per (dataset, search); call :meth:`evaluate` per spec.
    The constructor builds the column store, derives the per-application
    splits from ``split_seed``, and precomputes the response vector; each
    evaluation then costs one design assembly, one collinearity prune, one
    Gram accumulation, and |apps| block-updated Cholesky solves.
    """

    def __init__(
        self,
        dataset: ProfileDataset,
        split_seed: int,
        weight: float = DEFAULT_TRAINING_WEIGHT,
        train_fraction: float = DEFAULT_TRAIN_FRACTION,
        response: str = "log",
        auto_stabilize: bool = True,
        condition_limit: float = GRAM_CONDITION_LIMIT,
    ):
        if response not in RESPONSE_TRANSFORMS:
            raise ValueError(
                f"response must be one of {sorted(RESPONSE_TRANSFORMS)}, got {response!r}"
            )
        self.dataset = dataset
        self.weight = float(weight)
        self.response = response
        self.condition_limit = condition_limit
        self.store = ColumnStore(dataset, auto_stabilize=auto_stabilize)
        self.splits = derive_app_splits(dataset, split_seed, train_fraction)
        self.applications = dataset.applications
        targets = dataset.targets()
        self._targets = targets
        forward, _ = RESPONSE_TRANSFORMS[response]
        self._bad_targets = response in ("log", "sqrt") and bool(
            (targets <= 0).any()
        )
        self._y = None if self._bad_targets else forward(targets)
        self.specs_evaluated = 0
        self.gram_fits = 0
        self.lstsq_fallbacks = 0
        self.failed_fits = 0
        self._obs_specs = obs.counter("engine.specs_evaluated")
        self._obs_gram = obs.counter("engine.gram_fits")
        self._obs_lstsq = obs.counter("engine.lstsq_fallbacks")
        self._obs_failed = obs.counter("engine.failed_fits")

    # -- public API ---------------------------------------------------------------

    def evaluate(self, spec: ModelSpec) -> FitnessResult:
        """Fitness of one specification (same result as the reference oracle)."""
        if not self.applications:
            raise ValueError("dataset has no applications")
        self.specs_evaluated += 1
        self._obs_specs.inc()
        prepared = self._prepare(spec)
        per_app = {
            app: self._score_application(app, *prepared)
            for app in self.applications
        }
        errors = np.array(list(per_app.values()))
        return FitnessResult(
            mean_error=float(errors.mean()),
            sum_error=float(errors.sum()),
            per_application=per_app,
        )

    def evaluate_many(self, specs: Sequence[ModelSpec]) -> List[FitnessResult]:
        return [self.evaluate(spec) for spec in specs]

    def stats(self) -> Dict[str, float]:
        """Counters for benchmarking and observability."""
        return {
            "specs_evaluated": self.specs_evaluated,
            "gram_fits": self.gram_fits,
            "lstsq_fallbacks": self.lstsq_fallbacks,
            "failed_fits": self.failed_fits,
            "column_hits": self.store.hits,
            "column_builds": self.store.builds,
            "column_hit_rate": self.store.hit_rate(),
        }

    # -- internals -----------------------------------------------------------------

    def _prepare(self, spec: ModelSpec):
        """Per-spec shared state: pruned design, Gram total, per-app blocks."""
        if self._bad_targets:
            return (None,) * 5
        design, names = self.store.design(spec)
        if design.shape[1]:
            pruned, kept_names, _ = prune_design(design, names)
        else:
            pruned, kept_names = design, []
        augmented = np.column_stack([np.ones(self.store.n_rows), pruned])
        y = self._y
        blocks: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        p = augmented.shape[1]
        gram_total = np.zeros((p, p))
        moment_total = np.zeros(p)
        for app in self.applications:
            train_idx, val_idx = self.splits[app]
            a_train = augmented[train_idx]
            a_val = augmented[val_idx]
            g_train = a_train.T @ a_train
            g_val = a_val.T @ a_val
            m_train = a_train.T @ y[train_idx]
            m_val = a_val.T @ y[val_idx]
            blocks[app] = (g_train, g_val, m_train, m_val)
            gram_total += g_train + g_val
            moment_total += m_train + m_val
        gram_total = (gram_total + gram_total.T) * 0.5
        return augmented, kept_names, blocks, gram_total, moment_total

    def _score_application(
        self, app, augmented, kept_names, blocks, gram_total, moment_total
    ) -> float:
        if self._bad_targets:
            # The oracle's InferredModel.fit raises for non-positive
            # targets on a log/sqrt response, failing every application.
            return FAILED_FITNESS
        train_idx, val_idx = self.splits[app]
        if len(train_idx) == 0 or len(val_idx) == 0:
            return FAILED_FITNESS
        g_train, g_val, m_train, m_val = blocks[app]
        gram = gram_total - g_val + (self.weight - 1.0) * g_train
        gram = (gram + gram.T) * 0.5
        moment = moment_total - m_val + (self.weight - 1.0) * m_train
        fit = solve_gram(gram, moment, kept_names, self.condition_limit)
        if fit is None:
            beta = self._lstsq_fallback(app, augmented, kept_names)
            if beta is None:
                self.failed_fits += 1
                self._obs_failed.inc()
                return FAILED_FITNESS
        else:
            self.gram_fits += 1
            self._obs_gram.inc()
            beta = np.concatenate([[fit.intercept], fit.coefficients])
        linear = augmented[val_idx] @ beta
        if self.response == "log":
            linear = np.clip(linear, -_LOG_PREDICTION_CLIP, _LOG_PREDICTION_CLIP)
        _, inverse = RESPONSE_TRANSFORMS[self.response]
        predictions = inverse(linear)
        if not np.isfinite(predictions).all():
            return FAILED_FITNESS
        targets = self._targets[val_idx]
        return min(median_error(predictions, targets), FAILED_FITNESS)

    def _lstsq_fallback(self, app, augmented, kept_names) -> Optional[np.ndarray]:
        """The retained reference path: row-level weighted ``lstsq``."""
        self.lstsq_fallbacks += 1
        self._obs_lstsq.inc()
        train_idx, val_idx = self.splits[app]
        mask = np.ones(self.store.n_rows, dtype=bool)
        mask[val_idx] = False
        weights = np.ones(self.store.n_rows)
        weights[train_idx] = self.weight
        try:
            fit = fit_ols(
                augmented[mask][:, 1:],
                self._y[mask],
                kept_names,
                weights[mask],
            )
        except (ValueError, np.linalg.LinAlgError):
            return None
        return np.concatenate([[fit.intercept], fit.coefficients])


def evaluate_chunk(
    dataset: ProfileDataset,
    split_seed: int,
    specs: Sequence[ModelSpec],
    weight: float = DEFAULT_TRAINING_WEIGHT,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
) -> Tuple[List[FitnessResult], Dict[str, float]]:
    """Score a chunk of specs with one shared engine (worker entry point).

    Top-level and fully determined by its arguments, so
    :mod:`repro.parallel` can ship whole population chunks to worker
    processes: each worker builds the column store once per chunk instead
    of once per candidate — and the pool can resubmit a chunk whose worker
    died without changing any result.
    """
    faults.site("engine.evaluate_chunk")
    engine = FitnessEngine(
        dataset, split_seed, weight=weight, train_fraction=train_fraction
    )
    return engine.evaluate_many(specs), engine.stats()


class StoredDataset:
    """An engine-facing dataset view whose arrays live in the mmap store.

    Carries exactly what :class:`FitnessEngine` and
    :func:`repro.core.fitness.derive_app_splits` consume — variable names,
    the variables matrix, the target vector, and per-row application
    labels — with the two arrays memory-mapped from :mod:`repro.store`
    columns.  Shipping one to a pool worker via :mod:`repro.parallel`
    therefore crosses the boundary as tiny column references: every worker
    maps the same pages instead of unpickling its own copy of the dataset.
    """

    def __init__(self, variable_names, matrix, targets, labels):
        self.variable_names = tuple(variable_names)
        self._matrix = matrix
        self._targets = targets
        self._labels = tuple(str(label) for label in labels)

    def __len__(self) -> int:
        return len(self._targets)

    @property
    def applications(self) -> Tuple[str, ...]:
        """Application names in first-appearance order (as in
        :class:`~repro.core.dataset.ProfileDataset`)."""
        return tuple(dict.fromkeys(self._labels))

    def matrix(self) -> np.ndarray:
        return self._matrix

    def targets(self) -> np.ndarray:
        return self._targets

    def labels(self) -> np.ndarray:
        return np.asarray(self._labels)


def publish_dataset(dataset: ProfileDataset, store=None):
    """Publish a dataset's arrays to the column store for chunk shipping.

    Returns a :class:`StoredDataset` backed by mapped columns, or the
    dataset unchanged when the store is disabled or unwritable.  Columns
    are content-addressed, so republishing the same dataset is a no-op
    and concurrent searches share the same pages.  The returned view is
    evaluation-equivalent: the engine solves identical systems on it.
    """
    from repro import store as store_mod

    if store is None:
        if not store_mod.enabled():
            return dataset
        store = store_mod.Store()
    matrix = np.ascontiguousarray(dataset.matrix(), dtype=float)
    targets = np.ascontiguousarray(dataset.targets(), dtype=float)
    labels = [str(label) for label in dataset.labels()]
    digest = hashlib.sha256()
    digest.update(matrix.tobytes())
    digest.update(targets.tobytes())
    digest.update("|".join(labels).encode())
    digest.update("|".join(dataset.variable_names).encode())
    key = digest.hexdigest()[:24]
    try:
        store.put(f"datasets/{key}/matrix", matrix)
        store.put(f"datasets/{key}/targets", targets)
        mapped_matrix = store.get(f"datasets/{key}/matrix")
        mapped_targets = store.get(f"datasets/{key}/targets")
    except store_mod.StoreError:
        return dataset
    obs.counter("store.datasets_published").inc()
    return StoredDataset(
        dataset.variable_names, mapped_matrix, mapped_targets, labels
    )
