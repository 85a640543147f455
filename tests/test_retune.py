"""Tests for :mod:`repro.stream.retune` — online coordinated re-tuning.

The load-bearing contracts: an adopted tuning is *always* a
truly-measured verified candidate whose gain amortizes the switch-over
cost; a failed re-tune degrades to the last-good tuning; the demo
scenario separates — the drifting stream's (r, c, cache) migrates across
a re-specification while the stationary control holds its exhaustively
chosen initial tuning; and the decision history reaches serving ``stats``
and the Prometheus dump.
"""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import SCALES
from repro.spmv import SpMVSpace, default_cache, fem_matrix
from repro.stream import (
    DriftConfig,
    DriftingSpMVSource,
    OnlineRetuner,
    SpMVStreamSource,
    StreamingRespecifier,
    TuningState,
)

FAST_DRIFT = DriftConfig(
    window=16, min_fill=4, trip_ratio=1.5, clear_ratio=1.2, patience=2
)

#: Small pool so every test's exhaustive bootstrap stays cheap.
TEST_BLOCKS = (1, 2, 3)


def _matrix(name="retuned"):
    return fem_matrix(16, 3, 3, 6, 13, name)


def _source(drifting=False, seed=5):
    cls = DriftingSpMVSource if drifting else SpMVStreamSource
    kwargs = dict(seed=seed, block_sizes=TEST_BLOCKS, n_caches=4)
    if drifting:
        kwargs["drop_fraction"] = 0.4
    return cls(_matrix(), **kwargs)


def _retuner(source, **kwargs):
    kwargs.setdefault("block_sizes", source.block_sizes)
    return OnlineRetuner(lambda: source.space, source.caches, **kwargs)


# -- switch-over cost -----------------------------------------------------------------


class TestSwitchCost:
    def setup_method(self):
        self.space = SpMVSpace(_matrix())
        self.cache = default_cache()

    def _state(self, r, c, cache=None):
        return TuningState(r, c, cache or self.cache, 10.0)

    def test_identical_tuning_is_free(self):
        a = self._state(2, 2)
        cost = OnlineRetuner.switch_cost(self.space, a, a)
        assert cost.total_seconds == 0.0

    def test_block_change_prices_reblocking_only(self):
        cost = OnlineRetuner.switch_cost(
            self.space, self._state(1, 1), self._state(3, 3)
        )
        assert cost.reblock_seconds > 0.0
        assert cost.reconfig_seconds == 0.0
        # Proportional to the work: the 3x3 blocking stores more (padded)
        # values than the matrix has nonzeros.
        nnz_floor = 6.0 * self.space.matrix.nnz / 400e6
        assert cost.reblock_seconds > nnz_floor

    def test_cache_change_prices_reconfiguration_only(self):
        from repro.spmv.cache import sample_cache_configs

        other = sample_cache_configs(1, np.random.default_rng(3))[0]
        assert other.key != self.cache.key
        cost = OnlineRetuner.switch_cost(
            self.space, self._state(2, 2), self._state(2, 2, other)
        )
        assert cost.reblock_seconds == 0.0
        assert cost.reconfig_seconds > 0.0


# -- decisions ------------------------------------------------------------------------


class TestDecisions:
    def test_bootstrap_is_truly_measured(self):
        source = _source()
        retuner = _retuner(source)
        state = retuner.bootstrap()
        true = source.space.evaluate(state.r, state.c, state.cache).mflops
        assert state.mflops == pytest.approx(true)

    def test_stationary_retune_holds_incumbent(self):
        source = _source()
        retuner = _retuner(source)
        retuner.bootstrap()
        initial = retuner.current.key
        decision = retuner.retune(model=None)
        # Exhaustive search found the true optimum at bootstrap; the
        # model-free re-tune over the unchanged space must re-find it.
        assert decision.action == "hold"
        assert retuner.current.key == initial
        assert decision.verified

    def test_drift_migrates_with_positive_net_gain(self):
        source = _source(drifting=True)
        retuner = _retuner(source)
        retuner.bootstrap()
        initial = retuner.current.key
        for _ in range(4):
            source.step()
        decision = retuner.retune(model=None)
        assert decision.action == "switch"
        assert retuner.current.key != initial
        assert decision.verified
        assert decision.net_gain_seconds > 0.0
        # The adopted candidate is a true measurement on the live revision.
        true = source.space.evaluate(
            retuner.current.r, retuner.current.c, retuner.current.cache
        ).mflops
        assert retuner.current.mflops == pytest.approx(true)

    def test_zero_tenure_blocks_switching(self):
        """With no time to amortize over, the switch-over cost always wins."""
        source = _source(drifting=True)
        retuner = _retuner(
            source,
            executions_per_observation=1e-9,
            default_tenure_observations=1e-9,
        )
        retuner.bootstrap()
        initial = retuner.current.key
        for _ in range(4):
            source.step()
        decision = retuner.retune(model=None)
        assert decision.action == "hold"
        assert "switch-over cost" in decision.reason
        assert retuner.current.key == initial

    def test_hysteresis_blocks_marginal_gains(self):
        """An absurd margin turns every improvement into a hold."""
        source = _source(drifting=True)
        retuner = _retuner(source, min_gain_ratio=1e6)
        retuner.bootstrap()
        initial = retuner.current.key
        for _ in range(4):
            source.step()
        decision = retuner.retune(model=None)
        assert decision.action == "hold"
        assert "hysteresis" in decision.reason
        assert retuner.current.key == initial

    def test_tenure_tracks_interretune_observations(self):
        source = _source()
        retuner = _retuner(
            source, executions_per_observation=2.0, default_tenure_observations=100.0
        )
        retuner.bootstrap()
        first = retuner.retune(model=None, observations=0)
        assert first.tenure_executions == pytest.approx(200.0)  # the prior
        second = retuner.retune(model=None, observations=40)
        assert second.tenure_executions == pytest.approx(80.0)  # 40 obs * 2

    def test_retune_before_bootstrap_raises(self):
        retuner = _retuner(_source())
        with pytest.raises(RuntimeError, match="bootstrap"):
            retuner.retune(model=None)

    def test_guarded_retune_keeps_last_good_on_error(self):
        source = _source()
        retuner = _retuner(source)
        retuner.bootstrap()
        initial = retuner.current.key

        def explode():
            raise RuntimeError("space went away")

        retuner.space_provider = explode
        respec = SimpleNamespace(model=None, records_ingested=0)
        decision = retuner.on_respec(respec)
        assert decision.action == "error"
        assert retuner.failures == 1
        assert "space went away" in retuner.last_error
        assert retuner.current.key == initial  # last-good kept
        # Recovery clears the sticky error.
        retuner.space_provider = lambda: source.space
        decision = retuner.on_respec(respec)
        assert decision.action in ("hold", "switch")
        assert retuner.last_error is None


# -- respecifier integration ----------------------------------------------------------


def _spmv_respecifier(source, seed=2):
    from repro.core.genetic import GeneticSearch
    from repro.core.dataset import ProfileDataset
    from repro.spmv.cache import SPMV_HARDWARE_NAMES
    from repro.spmv.space import SPMV_SOFTWARE_NAMES
    from repro.spmv import scattered_matrix

    dataset = ProfileDataset(SPMV_SOFTWARE_NAMES, SPMV_HARDWARE_NAMES)
    rng = np.random.default_rng(7)
    for matrix in (
        fem_matrix(12, 2, 2, 4, 11, "aux-fem"),
        scattered_matrix(40, 130, 12, "aux-scattered"),
    ):
        aux = SpMVStreamSource(matrix, seed=3, block_sizes=TEST_BLOCKS, n_caches=4)
        dataset.extend(aux.sample(24, rng).records)
    dataset.extend(source.sample(24, rng).records)
    search = GeneticSearch(population_size=8, seed=seed)
    respec = StreamingRespecifier(dataset, search, FAST_DRIFT)
    respec.bootstrap(generations=1)
    return respec


class TestRespecifierIntegration:
    def test_respec_hook_retunes_and_stats_nest(self):
        source = _source()
        respec = _spmv_respecifier(source)
        retuner = _retuner(source).attach(respec)
        retuner.bootstrap()
        assert respec.retuner is retuner
        respec.respec(generations=1)
        assert retuner.retunes == 1
        assert retuner.decisions[-1].trigger == "respec"
        stats = respec.stats_dict()
        assert stats["retune"]["retunes"] == 1
        assert stats["retune"]["current"]["cache"] == retuner.current.cache.key

    def test_refresh_hook_honours_cadence(self):
        source = _source()
        respec = _spmv_respecifier(source)
        retuner = _retuner(source, retune_every_refreshes=2).attach(respec)
        retuner.bootstrap()
        rng = np.random.default_rng(3)
        respec.set_baseline(10.0)  # roomy: refresh, never trip
        for _ in range(4):
            respec.ingest(source.sample(6, rng))
        assert respec.refreshes == 4
        assert retuner.retunes == 2  # every second refresh
        assert all(d.trigger == "refresh" for d in retuner.decisions)

    def test_refresh_hook_disabled_by_default(self):
        source = _source()
        respec = _spmv_respecifier(source)
        retuner = _retuner(source).attach(respec)
        retuner.bootstrap()
        respec.set_baseline(10.0)
        respec.ingest(source.sample(6, np.random.default_rng(3)))
        assert respec.refreshes >= 1
        assert retuner.retunes == 0


# -- serving path ---------------------------------------------------------------------


class TestServingPath:
    def test_observe_stream_respec_retunes_into_stats_and_prometheus(
        self, tmp_path
    ):
        from repro.serve import ModelKey, ModelRegistry, ModelSlot, ServingManager

        source = _source()
        respec = _spmv_respecifier(source)
        # Serve the SpMV respecifier itself, so observe_stream frames drive
        # the same model the retuner consumes.
        serving = ServingManager(
            respec,
            ModelRegistry(tmp_path / "registry"),
            ModelKey("spmv", source.application),
            ModelSlot(),
        )
        serving.publish("bootstrap")
        retuner = _retuner(source).attach(respec)
        retuner.bootstrap()
        respec.set_baseline(1e-6)  # any real error trips the detector

        def _profiles(n, seed):
            batch = source.sample(n, np.random.default_rng(seed))
            return [
                {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
                for p in batch.records
            ]

        async def scenario():
            # FAST_DRIFT's patience wants consecutive over-threshold
            # batches before latching; feed frames until the respec lands.
            for attempt in range(4):
                reply = await serving.handle_observe_stream(
                    {
                        "application": source.application,
                        "profiles": _profiles(8, 31 + attempt),
                    }
                )
                assert reply["ok"]
                if reply["respec_scheduled"]:
                    break
            assert reply["respec_scheduled"]
            await serving.wait_for_update()

        try:
            asyncio.run(scenario())
            assert respec.respecs == 1
            assert retuner.retunes == 1
            stats = serving.stats_dict()
            retune_stats = stats["stream"]["retune"]
            assert retune_stats["retunes"] == 1
            assert retune_stats["current"]["r"] == retuner.current.r
            assert retune_stats["decisions"][-1]["trigger"] == "respec"
            assert retune_stats["decisions"][-1]["verified"]
            dump = obs.prometheus_dump(labels={"shard": "0"})
            assert 'repro_retune_block_rows{shard="0"}' in dump
            assert 'repro_retune_current_mflops{shard="0"}' in dump
        finally:
            serving.close()


# -- the demo scenario (acceptance criterion) -----------------------------------------


class TestRetuneDemoScenario:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import retune_demo

        return retune_demo.run(SCALES["small"])

    def test_drifting_migrates_across_a_respec(self, result):
        drift = result["drifting"]
        assert drift["trips"] >= 1
        assert drift["switches"] >= 1
        assert drift["final"] != drift["initial"]
        assert any(
            d["action"] == "switch" and d["trigger"] == "respec"
            for d in drift["decisions"]
        )

    def test_stationary_holds_initial_choice(self, result):
        stat = result["stationary"]
        assert stat["trips"] == 0
        assert stat["retunes"] >= 1  # the holds were actually exercised
        assert stat["switches"] == 0
        assert stat["final"] == stat["initial"]

    def test_every_switch_is_verified_and_amortized(self, result):
        for name in ("drifting", "stationary"):
            for d in result[name]["decisions"]:
                if d["action"] != "switch":
                    continue
                assert d["verified"]
                assert d["net_gain_seconds"] > 0.0
                assert d["candidate_mflops"] > d["incumbent_mflops"]

    def test_check_passes_and_report_renders(self, result):
        from repro.experiments import retune_demo

        retune_demo.check(result)  # must not raise
        text = retune_demo.report(result)
        assert "OK:" in text
        assert result["drifting"]["final"] in text
