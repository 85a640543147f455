"""Unit and property tests for the cache-miss and interval timing models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import OpClass, Trace, empty_trace
from repro.uarch import (
    Simulator,
    compute_shard_stats,
    config_from_levels,
    cycle_breakdown_batch,
    expected_misses_batch,
    miss_counts_hierarchy_batch,
    reference_config,
    sample_configs,
)
from repro.uarch.cachemodel import _binom_sf
from repro.uarch.pipeline import _breakdown_from_misses
from repro.uarch.shardstats import COLD
from tests.oracles.cachemodel import shard_miss_counts


# Single-configuration entry points: batches of one through production code.
cycle_breakdown = Simulator().breakdown_from_stats
simulate_cpi = Simulator().cpi_from_stats


def expected_misses(sorted_stack, capacity, assoc):
    [misses] = expected_misses_batch(sorted_stack, [capacity], [assoc])
    return float(misses)


class TestBinomialSurvival:
    @given(st.integers(1, 8), st.integers(0, 500), st.floats(0.001, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_summation(self, k, n, p):
        from math import comb

        got = float(_binom_sf(k, np.array([n]), p)[0])
        exact = sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
        assert got == pytest.approx(exact, abs=1e-6)

    def test_k_zero_is_one(self):
        assert _binom_sf(0, np.array([5]), 0.1)[0] == 1.0

    def test_bounded(self):
        values = _binom_sf(3, np.arange(0, 1000), 0.01)
        assert ((0 <= values) & (values <= 1)).all()


class TestExpectedMisses:
    def test_cold_accesses_always_miss(self):
        stack = np.sort(np.array([COLD, COLD, COLD]))
        assert expected_misses(stack, 1024, 8) == 3.0

    def test_fully_associative_exact(self):
        stack = np.sort(np.array([0, 1, 5, 9, COLD]))
        # Capacity 6 blocks, fully associative: misses = distances >= 6 + cold.
        assert expected_misses(stack, 6, 6) == 2.0

    def test_zero_distance_always_hits(self):
        stack = np.zeros(10, dtype=np.int64)
        assert expected_misses(stack, 64, 2) == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            expected_misses(np.array([1]), 0, 1)
        with pytest.raises(ValueError):
            expected_misses(np.array([1]), 64, 0)

    def test_empty_stream(self):
        assert expected_misses(np.array([], dtype=np.int64), 64, 2) == 0.0

    @given(
        st.lists(st.integers(0, 400), min_size=1, max_size=200),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_larger_cache_never_worse(self, distances, assoc):
        stack = np.sort(np.array(distances, dtype=np.int64))
        misses = [
            expected_misses(stack, capacity, assoc)
            for capacity in (16, 64, 256, 1024)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(misses, misses[1:]))

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_higher_associativity_never_worse_below_capacity(self, distances):
        """For accesses whose stack distance fits in the cache, more ways
        (fewer sets) at the same capacity reduce expected conflict misses.
        (Above capacity the property genuinely fails: a set-associative
        cache can hit where fully-associative LRU must miss.)"""
        stack = np.sort(np.array(distances, dtype=np.int64))
        misses = [expected_misses(stack, 256, a) for a in (1, 2, 4, 8)]
        assert all(a >= b - 1e-6 for a, b in zip(misses, misses[1:]))

    def test_hierarchy_l2_not_more_than_l1(self):
        stack = np.sort(np.array([0, 3, 10, 100, 5000, COLD]))
        [l1], [l2] = miss_counts_hierarchy_batch(stack, [64], [2], [4096], [8])
        assert l2 <= l1


def _make_shard(n=400, mem_rate=0.3, mispredicts=5, seed=0):
    rng = np.random.default_rng(seed)
    data = empty_trace(n)
    data["op"] = rng.choice(
        [int(OpClass.INT_ALU), int(OpClass.MEMORY), int(OpClass.CONTROL)],
        size=n,
        p=[1 - mem_rate - 0.1, mem_rate, 0.1],
    )
    control = np.flatnonzero(data["op"] == int(OpClass.CONTROL))
    data["miss"][control[:mispredicts]] = True
    mem = data["op"] == int(OpClass.MEMORY)
    data["addr"][mem] = rng.integers(0, 2000, size=int(mem.sum())) * 64
    data["iaddr"] = (np.arange(n) * 4) % 4096
    data["dep"] = rng.integers(0, 6, size=n)
    return Trace(data, f"shard-{seed}-{n}-{mem_rate}-{mispredicts}")


class TestShardStats:
    def test_counts(self):
        shard = _make_shard()
        stats = compute_shard_stats(shard)
        assert stats.n == len(shard)
        assert stats.opclass_counts.sum() == len(shard)
        assert stats.mispredicts == 5

    def test_dataflow_covers_all_rob_levels(self):
        from repro.uarch.config import ROB_LEVELS

        stats = compute_shard_stats(_make_shard())
        assert set(stats.dataflow_cycles) == set(ROB_LEVELS)

    def test_dataflow_monotone_in_window(self):
        """A larger reorder buffer can only shorten the dataflow schedule."""
        stats = compute_shard_stats(_make_shard(n=600, seed=3))
        cycles = [stats.dataflow_cycles[rob] for rob in sorted(stats.dataflow_cycles)]
        assert all(a >= b - 1e-9 for a, b in zip(cycles, cycles[1:]))

    def test_dataflow_at_least_critical_latency(self):
        stats = compute_shard_stats(_make_shard())
        assert min(stats.dataflow_cycles.values()) >= 1.0

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            compute_shard_stats(Trace(empty_trace(0)))


class TestTimingModel:
    def test_cpi_positive(self):
        stats = compute_shard_stats(_make_shard())
        assert simulate_cpi(stats, reference_config()) > 0

    def test_breakdown_sums_to_total(self):
        stats = compute_shard_stats(_make_shard())
        bd = cycle_breakdown(stats, reference_config())
        assert bd.total == pytest.approx(
            bd.core + bd.branch + bd.data_memory + bd.inst_memory
        )

    def test_wider_machine_not_slower_on_core(self):
        stats = compute_shard_stats(_make_shard())
        narrow = config_from_levels((0, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1))
        wide = config_from_levels((3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1))
        assert cycle_breakdown(stats, wide).core <= cycle_breakdown(stats, narrow).core

    def test_wider_machine_pays_more_per_mispredict(self):
        stats = compute_shard_stats(_make_shard(mispredicts=20))
        narrow = config_from_levels((0, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1))
        wide = config_from_levels((3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1))
        assert cycle_breakdown(stats, wide).branch > cycle_breakdown(stats, narrow).branch

    def test_bigger_dcache_reduces_data_stalls(self):
        stats = compute_shard_stats(_make_shard(n=2000, mem_rate=0.4, seed=7))
        small = config_from_levels((1, 3, 2, 2, 0, 2, 2, 2, 2, 1, 1, 1, 1))
        large = config_from_levels((1, 3, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1))
        assert (
            cycle_breakdown(stats, large).data_memory
            <= cycle_breakdown(stats, small).data_memory
        )

    def test_more_mshrs_reduce_data_stalls(self):
        stats = compute_shard_stats(_make_shard(n=2000, mem_rate=0.4, seed=7))
        one = config_from_levels((1, 5, 2, 0, 1, 2, 2, 2, 2, 1, 1, 1, 1))
        eight = config_from_levels((1, 5, 2, 4, 1, 2, 2, 2, 2, 1, 1, 1, 1))
        assert (
            cycle_breakdown(stats, eight).data_memory
            <= cycle_breakdown(stats, one).data_memory
        )

    def test_lower_l2_latency_reduces_stalls(self):
        stats = compute_shard_stats(_make_shard(n=2000, mem_rate=0.4, seed=7))
        fast = config_from_levels((1, 3, 2, 2, 0, 2, 2, 0, 2, 1, 1, 1, 1))
        slow = config_from_levels((1, 3, 2, 2, 0, 2, 2, 4, 2, 1, 1, 1, 1))
        assert (
            cycle_breakdown(stats, fast).data_memory
            <= cycle_breakdown(stats, slow).data_memory
        )

    def test_fu_contention_binds_fp_heavy_code(self):
        data = empty_trace(1000)
        data["op"] = int(OpClass.FP_MULDIV)
        data["dep"] = 0
        stats = compute_shard_stats(Trace(data, "fp"))
        one_unit = config_from_levels((3, 5, 2, 2, 2, 2, 2, 2, 2, 1, 1, 0, 1))
        two_units = config_from_levels((3, 5, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1))
        assert (
            cycle_breakdown(stats, two_units).core
            < cycle_breakdown(stats, one_unit).core
        )

    def test_deterministic(self):
        stats = compute_shard_stats(_make_shard())
        config = reference_config()
        assert simulate_cpi(stats, config) == simulate_cpi(stats, config)

    def test_matches_per_config_oracle(self):
        """Each breakdown equals the assembly of the per-configuration
        oracle's miss counts, bit for bit."""
        stats = compute_shard_stats(_make_shard(n=2000, mem_rate=0.4, seed=7))
        configs = sample_configs(16, np.random.default_rng(5))
        for c, got in zip(configs, cycle_breakdown_batch(stats, configs)):
            misses = shard_miss_counts(
                stats, c.dcache_kb, c.icache_kb, c.l2_kb, c.l1_assoc, c.l2_assoc
            )
            assert got == _breakdown_from_misses(stats, c, *misses)


class TestSimulator:
    def test_stats_cached_by_name(self, astar_trace):
        sim = Simulator()
        shard = astar_trace.shards(2_000)[0]
        a = sim.stats_for(shard)
        b = sim.stats_for(shard)
        assert a is b

    def test_cpi_matrix_shape(self, astar_trace, rng):
        sim = Simulator()
        shards = astar_trace.shards(2_000)[:3]
        configs = sample_configs(4, rng)
        matrix = sim.cpi_matrix(shards, configs)
        assert matrix.shape == (3, 4)
        assert (matrix > 0).all()

    def test_application_cpi_is_mean(self, astar_trace):
        sim = Simulator()
        shards = astar_trace.shards(2_000)[:3]
        config = reference_config()
        expected = np.mean([sim.cpi(s, config) for s in shards])
        assert sim.application_cpi(shards, config) == pytest.approx(expected)

    def test_application_cpi_needs_shards(self):
        with pytest.raises(ValueError):
            Simulator().application_cpi([], reference_config())
