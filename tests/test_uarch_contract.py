"""The backend contract: every timing backend passes the same suite.

This parametrizes the ``Simulator``-facing invariants of
``tests/test_uarch_model.py`` over all registered backends, so any
future backend added to :data:`repro.uarch.backends.BACKENDS` must
satisfy the surface the rest of the system (batched kernels, dataset
builders, GA search, serving tier) relies on:

* statistics caching and batched ``stats_for_many`` equivalence,
* positive deterministic CPI with component breakdowns that sum,
* bit-identical batched vs per-pair evaluation,
* ``cpi_matrix`` / ``application_cpi`` aggregation semantics,
* design-space constructor validation and distinct sampling,
* declared resource monotonicities (``Backend.better_dims``).
"""

import numpy as np
import pytest

from repro.uarch import BACKEND_NAMES, get_backend

from tests.test_uarch_gpu import _make_shard


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    return get_backend(request.param)


@pytest.fixture()
def simulator(backend):
    return backend.make_simulator()


@pytest.fixture(scope="module")
def shards():
    return [_make_shard(seed=s, n=300) for s in range(3)]


class TestConfigSpace:
    def test_reference_config_vector_shape(self, backend):
        config = backend.reference_config()
        vec = config.as_vector()
        assert vec.shape == (13,)
        assert np.isfinite(vec).all()
        assert config.key  # stable non-empty identifier

    def test_level_validation(self, backend):
        with pytest.raises(ValueError):
            backend.config_from_levels((0,) * 12)
        bad = [0] * 13
        bad[0] = backend.level_counts[0]
        with pytest.raises(ValueError):
            backend.config_from_levels(bad)

    def test_sampling_distinct(self, backend):
        configs = backend.sample_configs(20, np.random.default_rng(5))
        assert len(configs) == 20
        assert len({c.key for c in configs}) == 20

    def test_design_space_size(self, backend):
        assert backend.design_space_size == int(
            np.prod(backend.level_counts)
        )

    def test_labels_cover_all_13_variables(self, backend):
        assert set(backend.hardware_labels) == {
            f"y{i}" for i in range(1, 14)
        }


class TestSimulatorContract:
    def test_cpi_positive_and_deterministic(self, backend, simulator, shards):
        config = backend.reference_config()
        for shard in shards:
            cpi = simulator.cpi(shard, config)
            assert cpi > 0
            assert backend.make_simulator().cpi(shard, config) == cpi

    def test_breakdown_components_sum(self, backend, simulator, shards):
        config = backend.reference_config()
        b = simulator.breakdown(shards[0], config)
        assert b.core >= 0 and b.branch >= 0
        assert b.data_memory >= 0 and b.inst_memory >= 0
        assert b.total == b.core + b.branch + b.data_memory + b.inst_memory
        assert simulator.cpi(shards[0], config) == pytest.approx(
            b.total / len(shards[0])
        )

    def test_stats_cached_by_name(self, simulator, shards):
        a = simulator.stats_for(shards[0])
        b = simulator.stats_for(shards[0])
        assert a is b

    def test_stats_for_many_matches_per_shard(self, backend, shards):
        batched = backend.make_simulator().stats_for_many(shards)
        for shard, stats in zip(shards, batched):
            solo = backend.make_simulator().stats_for(shard)
            assert np.array_equal(stats.data_stack, solo.data_stack)
            assert np.array_equal(stats.inst_stack, solo.inst_stack)
            assert stats.dataflow_cycles == solo.dataflow_cycles

    def test_batch_bit_identical_to_per_pair(self, backend, simulator, shards):
        """64 configs revisit cache geometries (the miss model's
        (capacity, assoc) memo); each equals a batch of one."""
        configs = backend.sample_configs(64, np.random.default_rng(11))
        stats = simulator.stats_for(shards[0])
        breakdowns = simulator.breakdown_batch(stats, configs)
        assert breakdowns == [simulator.breakdown(shards[0], c) for c in configs]
        batch = simulator.cpi_batch(shards[0], configs)
        per_pair = np.array([simulator.cpi(shards[0], c) for c in configs])
        assert np.array_equal(batch, per_pair)

    def test_cpi_matrix_shape_and_rows(self, backend, simulator, shards):
        configs = backend.sample_configs(4, np.random.default_rng(3))
        matrix = simulator.cpi_matrix(shards, configs)
        assert matrix.shape == (len(shards), len(configs))
        assert (matrix > 0).all()
        for i, shard in enumerate(shards):
            assert np.array_equal(matrix[i], simulator.cpi_batch(shard, configs))

    def test_application_cpi_is_mean_of_shards(self, backend, simulator, shards):
        config = backend.reference_config()
        expected = np.mean([simulator.cpi(s, config) for s in shards])
        assert simulator.application_cpi(shards, config) == pytest.approx(
            expected
        )

    def test_application_cpi_rejects_empty(self, backend, simulator):
        with pytest.raises(ValueError):
            simulator.application_cpi([], backend.reference_config())


class TestDeclaredMonotonicities:
    def test_better_dims_never_increase_cycles(self, backend, simulator, shards):
        """Each backend declares which level dimensions add resources;
        raising those levels must never slow the modeled machine."""
        stats = simulator.stats_for(shards[0])
        mid = tuple(count // 2 for count in backend.level_counts)
        for dim in backend.better_dims:
            totals = []
            for level in range(backend.level_counts[dim]):
                levels = tuple(
                    level if i == dim else lv for i, lv in enumerate(mid)
                )
                config = backend.config_from_levels(levels)
                totals.append(
                    simulator.breakdown_from_stats(stats, config).total
                )
            assert all(
                a >= b - 1e-9 * max(1.0, a)
                for a, b in zip(totals, totals[1:])
            ), f"dimension {dim} not monotone for backend {backend.name}: {totals}"


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("tpu")

    def test_registry_names(self):
        assert BACKEND_NAMES == ("cpu", "gpu")
