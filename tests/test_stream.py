"""Unit, property, and integration tests for :mod:`repro.stream`.

The load-bearing contract is the Gram equivalence: folding a dataset in
as N batches must reproduce the one-shot normal-equation blocks (and the
solved coefficients) within :data:`repro.stream.ACCUMULATION_RTOL` — a
hypothesis property over random partitions.  On top of that: drift
hysteresis, active-sampling determinism, the refresh-vs-respec control
loop, checkpoint round-trips, and the ``observe_stream`` serving op.
"""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    InferredModel,
    ModelSpec,
    ProfileDataset,
    ProfileRecord,
    TransformKind,
)
from repro.core.genetic import GeneticSearch
from repro.core.regression import accumulate_gram, fit_ols
from repro.store import Store
from repro.stream import (
    ACCUMULATION_RTOL,
    ActiveSampler,
    DriftConfig,
    DriftDetector,
    GramAccumulator,
    StreamingRespecifier,
    records_from_rows,
)
from tests.conftest import make_synthetic_dataset


def _fitted_model(ds):
    spec = ModelSpec(
        transforms={name: TransformKind.LINEAR for name in ds.variable_names},
        interactions=frozenset([("x1", "y1")]),
    )
    return InferredModel.fit(spec, ds, response="log")


@pytest.fixture(scope="module")
def stream_dataset():
    return make_synthetic_dataset(n_per_app=30)


@pytest.fixture(scope="module")
def stream_model(stream_dataset):
    return _fitted_model(stream_dataset)


def _slices(cuts, n):
    bounds = [0, *sorted(cuts), n]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


# -- the equivalence contract ----------------------------------------------------------


class TestGramEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(1, 89), max_size=6, unique=True))
    def test_n_batch_accumulation_matches_one_shot(
        self, cuts, stream_dataset, stream_model
    ):
        """Any partition of the rows folds to the same blocks and the same
        solved coefficients as a single accumulate_gram over all rows."""
        ds, model = stream_dataset, stream_model
        acc = GramAccumulator(model)
        for a, b in _slices(cuts, len(ds)):
            part = ProfileDataset(ds.x_names, ds.y_names, ds.records[a:b])
            acc.ingest(part)
        assert acc.rows == len(ds)

        design = model.prepared_design(ds)
        targets = model.transform_targets(ds.targets())
        gram, moment = accumulate_gram(design, targets)
        scale = max(np.abs(gram).max(), 1.0)
        assert np.allclose(acc.gram, gram, rtol=0, atol=ACCUMULATION_RTOL * scale)
        assert np.allclose(
            acc.moment, moment, rtol=0,
            atol=ACCUMULATION_RTOL * max(np.abs(moment).max(), 1.0),
        )

        streamed = acc.solve()
        batch = fit_ols(design, targets, model.fit_column_names)
        assert streamed is not None
        assert np.allclose(
            np.r_[streamed.intercept, streamed.coefficients],
            np.r_[batch.intercept, batch.coefficients],
            rtol=1e-6,
        )

    def test_refresh_reproduces_batch_rebuilt_model(
        self, stream_dataset, stream_model
    ):
        """Streamed accumulator + solve reproduces the batch fit: the
        refreshed model predicts identically (well under the documented
        tolerance) to the incumbent it was derived from."""
        acc = GramAccumulator.from_model(stream_model, stream_dataset)
        refreshed = acc.refresh()
        assert refreshed is not None
        np.testing.assert_allclose(
            refreshed.predict(stream_dataset),
            stream_model.predict(stream_dataset),
            rtol=1e-6,
        )

    def test_pinv_fallback_on_rank_deficient_gram(self):
        """Exactly collinear surviving columns (a singular Gram) fall back
        to the minimum-norm solution — identical to the batch path's SVD
        lstsq — instead of refusing to refresh."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        y = 3.0 + 2.0 * x
        aug = np.column_stack([np.ones_like(x), x, x])  # duplicated column
        stub = SimpleNamespace(fit_column_names=("a", "b"))
        acc = GramAccumulator(stub)
        acc.gram = aug.T @ aug
        acc.moment = aug.T @ y
        acc.rows = len(x)
        fit = acc.solve()
        assert fit is not None
        expected, *_ = np.linalg.lstsq(aug, y, rcond=None)
        np.testing.assert_allclose(
            np.r_[fit.intercept, fit.coefficients], expected, atol=1e-8
        )

    def test_underdetermined_returns_none(self):
        stub = SimpleNamespace(fit_column_names=("a", "b"))
        acc = GramAccumulator(stub)  # zero rows: nothing to solve
        assert acc.solve() is None
        assert acc.refresh() is None


# -- drift hysteresis ------------------------------------------------------------------


class TestDriftDetector:
    CONFIG = DriftConfig(
        window=16, min_fill=4, trip_ratio=1.5, clear_ratio=1.1, patience=2
    )

    def test_no_trip_below_threshold(self):
        det = DriftDetector(1.0, self.CONFIG)
        for _ in range(10):
            assert not det.observe([1.0, 1.1, 0.9, 1.2])
        assert det.score() < self.CONFIG.trip_ratio

    def test_one_bad_batch_never_trips(self):
        det = DriftDetector(1.0, self.CONFIG)
        det.observe([1.0] * 8)
        assert not det.observe([5.0] * 16)  # over threshold, patience 1/2
        assert not det.tripped

    def test_patience_consecutive_batches_trip_and_latch(self):
        det = DriftDetector(1.0, self.CONFIG)
        det.observe([5.0] * 16)
        assert det.observe([5.0] * 16)
        assert det.tripped
        # Latched: even a good batch does not clear it.
        assert det.observe([1.0] * 16)

    def test_interrupted_streak_resets(self):
        det = DriftDetector(1.0, self.CONFIG)
        det.observe([5.0] * 16)
        det.observe([1.0] * 16)  # streak broken
        assert not det.observe([5.0] * 16)

    def test_min_fill_gates_verdicts(self):
        det = DriftDetector(1.0, self.CONFIG)
        assert not det.observe([99.0])  # only 1 < min_fill=4 errors
        assert not det.tripped

    def test_reset_disarms_until_recovered(self):
        det = DriftDetector(1.0, self.CONFIG)
        det.observe([5.0] * 16)
        det.observe([5.0] * 16)
        assert det.tripped
        det.reset(1.0)
        assert not det.tripped and det.fill == 0
        # Still degraded right after the reset: must NOT re-trip while
        # disarmed, however long it stays bad.
        for _ in range(6):
            assert not det.observe([5.0] * 8)
        # Recovery under clear_ratio re-arms; sustained degradation after
        # that trips again.
        for _ in range(4):
            det.observe([1.0] * 16)
        assert not det.tripped
        det.observe([5.0] * 16)
        assert det.observe([5.0] * 16)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(window=4, min_fill=5)
        with pytest.raises(ValueError):
            DriftConfig(trip_ratio=1.2, clear_ratio=1.3)
        with pytest.raises(ValueError):
            DriftConfig(patience=0)
        with pytest.raises(ValueError):
            DriftDetector(0.0)


# -- active sampling -------------------------------------------------------------------


class _SlopeModel:
    """predict_rows = rows @ w — a committee member with known opinions."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_rows(self, rows):
        return np.atleast_2d(rows) @ self.w


class TestActiveSampler:
    def test_committee_needs_two_models(self):
        with pytest.raises(ValueError):
            ActiveSampler([_SlopeModel([1.0])])

    def test_scores_rank_disagreement(self):
        # Models agree at rows ~ [1, 1] and diverge along the second axis.
        sampler = ActiveSampler(
            [_SlopeModel([1.0, 1.0]), _SlopeModel([1.0, 3.0])]
        )
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 4.0]])
        scores = sampler.scores(rows)
        assert scores[0] == 0.0  # identical predictions
        assert scores[2] > scores[1] > scores[0]

    def test_select_is_deterministic_and_stable(self):
        sampler = ActiveSampler(
            [_SlopeModel([1.0, 1.0]), _SlopeModel([1.0, 3.0])]
        )
        rows = np.array(
            [[1.0, 2.0], [1.0, 2.0], [1.0, 5.0], [1.0, 0.0]]
        )
        first = sampler.select(rows, 3)
        assert first.tolist() == [2, 0, 1]  # ties resolve by index
        assert sampler.select(rows, 3).tolist() == first.tolist()
        assert sampler.select(rows, 0).tolist() == []


# -- the control loop ------------------------------------------------------------------


FAST_DRIFT = DriftConfig(
    window=16, min_fill=4, trip_ratio=1.5, clear_ratio=1.2, patience=2
)


def _batch(ds, n, rng, shift=0.0):
    """Fresh records from (optionally shifted) synthetic structure."""
    batch = ProfileDataset(ds.x_names, ds.y_names)
    for _ in range(n):
        x = rng.normal(loc=0.5, scale=1.0, size=2)
        y = rng.uniform(0.5, 2.0, size=2)
        z = 2.0 + 0.5 * x[0] - 0.3 * x[1] + 0.8 * y[0] + 0.4 * x[0] * y[0]
        z += shift * x[1] * y[1]  # structural term the incumbent never saw
        batch.add(ProfileRecord("alpha", x, y, float(np.exp(z / 4.0))))
    return batch


@pytest.fixture()
def respecifier(stream_dataset):
    ds = ProfileDataset(stream_dataset.x_names, stream_dataset.y_names)
    ds.extend(stream_dataset.records)
    search = GeneticSearch(population_size=6, seed=0)
    respec = StreamingRespecifier(ds, search, FAST_DRIFT)
    respec.bootstrap(generations=1)
    return respec


class TestStreamingRespecifier:
    def test_requires_bootstrap(self, stream_dataset):
        respec = StreamingRespecifier(stream_dataset)
        with pytest.raises(RuntimeError):
            respec.ingest(stream_dataset)

    def test_stationary_batches_refresh_only(self, respecifier):
        rng = np.random.default_rng(4)
        respecifier.set_baseline(
            float(np.median(
                respecifier._prequential_errors(_batch(respecifier.dataset, 32, rng))
            ))
        )
        n_before = len(respecifier.dataset)
        for _ in range(4):
            outcome = respecifier.ingest(_batch(respecifier.dataset, 12, rng))
            assert outcome.action == "refresh" and outcome.refreshed
            assert not outcome.tripped
        assert respecifier.refreshes == 4
        assert respecifier.respecs == 0
        assert len(respecifier.dataset) == n_before + 48

    def test_drift_trips_respec_and_recalibrates(self, respecifier):
        rng = np.random.default_rng(5)
        respecifier.set_baseline(
            float(np.median(
                respecifier._prequential_errors(_batch(respecifier.dataset, 32, rng))
            ))
        )
        actions = []
        for _ in range(6):
            outcome = respecifier.ingest(_batch(respecifier.dataset, 12, rng, shift=2.5))
            actions.append(outcome.action)
            if outcome.action == "respec":
                break
        assert "respec" in actions
        assert respecifier.respecs == 1
        assert respecifier._staleness == 0  # staleness histogram reset
        # The next batch recalibrates the baseline in prequential units:
        # its score lands at ~1.0 instead of inheriting GA fitness units.
        outcome = respecifier.ingest(_batch(respecifier.dataset, 12, rng, shift=2.5))
        assert outcome.drift_score == pytest.approx(1.0, abs=0.35)
        assert not outcome.tripped

    def test_deferred_respec_reports_needs_respec(self, respecifier):
        rng = np.random.default_rng(6)
        respecifier.set_baseline(1e-6)  # anything trips
        outcomes = [
            respecifier.ingest(_batch(respecifier.dataset, 8, rng), allow_respec=False)
            for _ in range(3)
        ]
        assert outcomes[-1].tripped and outcomes[-1].needs_respec
        assert respecifier.respecs == 0
        respecifier.respec(generations=1)
        assert respecifier.respecs == 1

    def test_drift_scored_against_reference_not_refreshed_model(
        self, respecifier
    ):
        """Coefficient refreshes must not absorb the drift signal: the
        detector's prequential errors come from the frozen snapshot of
        the last re-specification."""
        rng = np.random.default_rng(7)
        reference = respecifier.model
        respecifier.ingest(_batch(respecifier.dataset, 12, rng))
        assert respecifier.model is not reference  # refresh rebound coefficients
        assert respecifier.reference is reference  # scoring snapshot frozen
        probe = _batch(respecifier.dataset, 8, rng)
        errors = respecifier._prequential_errors(probe)
        expected = np.abs(reference.predict(probe) - probe.targets()) / np.maximum(
            np.abs(probe.targets()), 1e-12
        )
        np.testing.assert_allclose(errors, expected)

    def test_select_next_falls_back_without_sampler(self, respecifier):
        respecifier.sampler = None
        assert respecifier.select_next(np.zeros((5, 4)), 3).tolist() == [0, 1, 2]

    def test_stats_dict_shape(self, respecifier):
        stats = respecifier.stats_dict()
        assert stats["batches_ingested"] == 0
        assert stats["respecs"] == 0
        assert stats["dataset_size"] == len(respecifier.dataset)

    def test_records_from_rows(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        records = records_from_rows("app", rows, [0.5, 0.7], n_software=2)
        assert [r.application for r in records] == ["app", "app"]
        np.testing.assert_array_equal(records[1].x, [5.0, 6.0])
        np.testing.assert_array_equal(records[1].y, [7.0, 8.0])
        assert records[1].z == 0.7


# -- checkpoint / recover --------------------------------------------------------------


class TestCheckpointRoundTrip:
    def test_round_trip_restores_exact_state(self, tmp_path, stream_dataset, stream_model):
        store = Store(tmp_path / "store")
        acc = GramAccumulator.from_model(stream_model, stream_dataset, name="rt")
        key = acc.checkpoint(store)
        assert key.startswith("stream/rt/ckpt/00000001-")

        fresh = GramAccumulator(stream_model, name="rt")
        assert fresh.recover(store)
        np.testing.assert_array_equal(fresh.gram, acc.gram)
        np.testing.assert_array_equal(fresh.moment, acc.moment)
        assert (fresh.rows, fresh.batches, fresh.seq) == (
            acc.rows, acc.batches, acc.seq,
        )

    def test_corrupt_checkpoint_falls_back_to_previous(
        self, tmp_path, stream_dataset, stream_model
    ):
        store = Store(tmp_path / "store")
        acc = GramAccumulator.from_model(stream_model, stream_dataset, name="cc")
        acc.checkpoint(store)
        good_rows = acc.rows
        half = ProfileDataset(
            stream_dataset.x_names,
            stream_dataset.y_names,
            stream_dataset.records[:10],
        )
        acc.ingest(half)
        key2 = acc.checkpoint(store)
        # Corrupt the newest column in place: its digest no longer matches
        # the content-addressed key, so recovery must reject it.
        path = store.path_for(key2)
        payload = np.load(path)
        payload[-1] += 1.0
        np.save(path, payload)

        before = obs.counter("stream.checkpoint_rejects").value
        fresh = GramAccumulator(stream_model, name="cc")
        assert fresh.recover(store)
        assert fresh.rows == good_rows
        assert obs.counter("stream.checkpoint_rejects").value == before + 1

    def test_wrong_width_checkpoint_is_skipped(self, tmp_path, stream_dataset, stream_model):
        store = Store(tmp_path / "store")
        acc = GramAccumulator.from_model(stream_model, stream_dataset, name="w")
        acc.checkpoint(store)
        narrow = GramAccumulator(
            SimpleNamespace(fit_column_names=("only",)), name="w"
        )
        assert not narrow.recover(store)

    def test_prune_keeps_last_three(self, tmp_path, stream_dataset, stream_model):
        store = Store(tmp_path / "store")
        acc = GramAccumulator.from_model(stream_model, stream_dataset, name="pr")
        for _ in range(5):
            acc.checkpoint(store)
        assert len(acc._list_checkpoints(store)) == 3
        assert acc._list_checkpoints(store)[-1][0] == 5

    def test_same_width_different_spec_is_never_restored(self, tmp_path):
        """The poisoning scenario: a checkpoint from a DIFFERENT spec with
        the SAME design width must not seed this accumulator's blocks."""
        store = Store(tmp_path / "store")
        old = GramAccumulator(
            SimpleNamespace(fit_column_names=("a", "b")), name="sw"
        )
        old.gram += np.eye(3)
        old.rows = 7
        old.checkpoint(store)

        same_width = GramAccumulator(
            SimpleNamespace(fit_column_names=("c", "d")), name="sw"
        )
        assert not same_width.recover(store)
        assert same_width.rows == 0

    def test_purge_other_specs(self, tmp_path):
        store = Store(tmp_path / "store")
        old = GramAccumulator(
            SimpleNamespace(fit_column_names=("a", "b")), name="pg"
        )
        old.checkpoint(store)
        new = GramAccumulator(
            SimpleNamespace(fit_column_names=("c", "d")), name="pg",
            seq=old.seq,
        )
        new.checkpoint(store)
        assert new.purge_other_specs(store) == 1
        assert len(new._list_checkpoints(store, all_specs=True)) == 1
        # The old spec's checkpoint is gone for good.
        revived = GramAccumulator(
            SimpleNamespace(fit_column_names=("a", "b")), name="pg"
        )
        assert not revived.recover(store)

    def test_respec_interleaved_with_checkpoints(self, tmp_path, stream_dataset):
        """Checkpoint → respec → checkpoint: the sequence counter carries
        across the respec, so pruning keeps the post-respec checkpoints
        and recovery restores the CURRENT accumulator's state — never the
        pre-respec blocks."""
        ds = ProfileDataset(stream_dataset.x_names, stream_dataset.y_names)
        ds.extend(stream_dataset.records)
        store = Store(tmp_path / "store")
        respec = StreamingRespecifier(
            ds,
            GeneticSearch(population_size=6, seed=0),
            FAST_DRIFT,
            checkpoint_every=1,
            store=store,
            name="il",
        )
        respec.bootstrap(generations=1)
        respec.set_baseline(10.0)  # roomy: refreshes only
        rng = np.random.default_rng(9)
        for _ in range(3):
            respec.ingest(_batch(ds, 8, rng))
        seq_before = respec.accumulator.seq
        assert seq_before == 3

        respec.respec(generations=1)
        assert respec.accumulator.seq == seq_before  # carried forward
        respec.ingest(_batch(ds, 8, rng))  # checkpoints at seq_before + 1

        acc = respec.accumulator
        entries = acc._list_checkpoints(store)
        assert entries and entries[-1][0] == seq_before + 1

        fresh = GramAccumulator(acc.model, name="il")
        assert fresh.recover(store)
        assert fresh.seq == seq_before + 1
        assert fresh.rows == acc.rows
        np.testing.assert_array_equal(fresh.gram, acc.gram)
        np.testing.assert_array_equal(fresh.moment, acc.moment)

    def test_respecifier_checkpoint_wiring(self, tmp_path, stream_dataset):
        ds = ProfileDataset(stream_dataset.x_names, stream_dataset.y_names)
        ds.extend(stream_dataset.records)
        store = Store(tmp_path / "store")
        respec = StreamingRespecifier(
            ds,
            GeneticSearch(population_size=6, seed=0),
            FAST_DRIFT,
            checkpoint_every=2,
            store=store,
            name="wired",
        )
        respec.bootstrap(generations=1)
        rng = np.random.default_rng(8)
        respec.set_baseline(1.0)
        for _ in range(4):
            respec.ingest(_batch(ds, 8, rng))
        assert (tmp_path / "store" / "stream" / "wired" / "ckpt").is_dir()
        assert respec.recover()


# -- the drifting-SpMV acceptance scenario ---------------------------------------------


class TestSpMVDriftScenario:
    def test_drift_trips_stationary_does_not(self):
        """The ISSUE's acceptance criterion, at experiment small scale:
        the drifting-sparsity stream trips >= 1 re-specification, the
        stationary stream stays entirely on cheap refreshes."""
        from repro.experiments import stream_demo
        from repro.experiments.common import SCALES

        result = stream_demo.run(SCALES["small"])
        drifting, stationary = result["drifting"], result["stationary"]
        assert drifting["trips"] >= 1
        assert stationary["trips"] == 0
        assert stationary["refreshes"] > 0  # refresh path live, not inert
        assert drifting["refreshes"] > 0
        assert drifting["max_score"] > stationary["max_score"] >= 0.0
        assert "OK" in stream_demo.report(result)


# -- serving integration ---------------------------------------------------------------


def _profiles(n, seed, shift=0.0):
    from repro.serve.bootstrap import _app_records

    return [
        {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
        for p in _app_records(
            "app0", n, np.random.default_rng(seed), shift=shift
        )
    ]


class TestObserveStreamServing:
    def test_round_trip_and_prometheus_labels(self, tmp_path):
        from repro.serve import ServeClient, ServerThread
        from repro.serve.bootstrap import build_service, demo_dataset

        server, serving, registry = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
            drift_config=FAST_DRIFT,
        )
        respec = serving.respecifier
        respec.set_baseline(
            float(np.median(respec._prequential_errors(
                ProfileDataset(
                    respec.dataset.x_names,
                    respec.dataset.y_names,
                    respec.dataset.records[:20],
                )
            )))
        )
        try:
            with ServerThread(server) as thread:
                with ServeClient(port=thread.port) as client:
                    v_before = server.slot.version
                    reply = client.observe_stream("app0", _profiles(12, seed=11))
                    assert reply["ok"]
                    assert reply["action"] in ("refresh", "none")
                    assert not reply["respec_scheduled"]
                    if reply["action"] == "refresh":
                        assert reply["model_version"] == v_before + 1
                    stats = client.stats()
                    assert stats["updates"]["stream"]["batches"] == 1
            dump = obs.prometheus_dump(labels={"shard": "0"})
            assert 'repro_stream_drift_score{shard="0"}' in dump
            assert 'repro_serve_update_last_error{shard="0"}' in dump
            assert 'repro_stream_staleness_observations{shard="0"}' in dump
        finally:
            serving.close()

    def test_refresh_publish_throttle(self, tmp_path):
        """publish_every=N: refreshes update the in-memory incumbent every
        batch, but only every Nth refresh reaches the registry/slot —
        keeping the durable fsync off the hot ingest path."""
        from repro.serve.bootstrap import build_service, demo_dataset

        server, serving, registry = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
            drift_config=FAST_DRIFT,
            publish_every=3,
        )
        respec = serving.respecifier
        respec.set_baseline(10.0)  # roomy: refresh, never trip

        async def scenario():
            v_before = serving.slot.version
            for k in range(3):
                reply = await serving.handle_observe_stream(
                    {"application": "app0", "profiles": _profiles(8, seed=40 + k)}
                )
                assert reply["ok"] and reply["action"] == "refresh"
                if k < 2:
                    assert serving.slot.version == v_before  # deferred
            assert serving.stats.stream_refreshes == 3
            assert serving.slot.version == v_before + 1  # published once
            assert registry.latest_version(serving.key) == v_before + 1

        try:
            asyncio.run(scenario())
        finally:
            serving.close()

    def test_drift_trip_schedules_background_respec(self, tmp_path):
        from repro.serve.bootstrap import build_service, demo_dataset

        server, serving, registry = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
            drift_config=DriftConfig(
                window=8, min_fill=1, trip_ratio=1.05, clear_ratio=1.0,
                patience=1,
            ),
        )
        respec = serving.respecifier
        respec.set_baseline(1e-6)  # any real error trips immediately

        async def scenario():
            v_before = serving.slot.version
            reply = await serving.handle_observe_stream(
                {"application": "app0", "profiles": _profiles(8, seed=13)}
            )
            assert reply["ok"] and reply["drift_tripped"]
            assert reply["respec_scheduled"]
            await serving.wait_for_update()
            assert serving.stats.stream_respecs == 1
            assert serving.slot.version == v_before + 1
            assert registry.latest_version(serving.key) == v_before + 1
            assert serving.stats_dict()["stream"]["respecs"] == 1

        try:
            asyncio.run(scenario())
        finally:
            serving.close()

    def test_respec_publishes_under_manager_lock(self, tmp_path):
        """The background respec's publish step must serialize on the
        manager lock (a concurrent observe_stream frame mutates the
        detector window on the executor while holding it): with the lock
        held externally, a finished GA must NOT publish until release."""
        from repro.serve.bootstrap import build_service, demo_dataset

        server, serving, registry = build_service(
            demo_dataset(seed=0),
            tmp_path / "registry",
            generations=1,
            population_size=6,
            drift_config=DriftConfig(
                window=8, min_fill=1, trip_ratio=1.05, clear_ratio=1.0,
                patience=1,
            ),
        )
        respec = serving.respecifier
        respec.set_baseline(1e-6)  # any real error trips immediately

        async def scenario():
            v_before = serving.slot.version
            reply = await serving.handle_observe_stream(
                {"application": "app0", "profiles": _profiles(8, seed=17)}
            )
            assert reply["ok"] and reply["respec_scheduled"]
            async with serving._lock:
                # Let the GA finish on the executor while we still hold
                # the lock...
                for _ in range(500):
                    if respec.respecs == 1:
                        break
                    await asyncio.sleep(0.01)
                assert respec.respecs == 1
                await asyncio.sleep(0.05)
                # ...the respec task must be parked on the lock, publish
                # not yet visible anywhere.
                assert serving.slot.version == v_before
                assert serving.stats.stream_respecs == 0
            await serving.wait_for_update()
            assert serving.stats.stream_respecs == 1
            assert serving.slot.version == v_before + 1

        try:
            asyncio.run(scenario())
        finally:
            serving.close()
