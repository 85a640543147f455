"""Property tests: the batched SoA kernels are exact replacements.

``repro.kernels.batched`` and ``repro.uarch.cachemodel`` run thousands of
(config, trace) pairs in one numpy pass.  The per-pair cache simulator,
per-stream stack distances, and ``tests/oracles/cachemodel.py`` are the
references; every batched result must be **bit-identical** — miss counts,
histograms, and the analytic model's floats — across random geometries,
streams, batch shapes (including batch=1 and ragged stream lengths), and
replacement policies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.batched import (
    DIRECT_MIN,
    MAX_BATCH,
    simulate_caches,
    stack_distances_many,
    stack_distances_many_addresses,
)
from repro.profiling.reuse import COLD_DISTANCE, stack_distances_from_blocks
from repro.spmv import SetAssociativeCache
from repro.uarch.cachemodel import expected_misses_batch, miss_counts_hierarchy_batch
from tests.oracles.cachemodel import expected_misses, miss_counts_hierarchy

geometries = st.tuples(
    st.sampled_from([16, 32, 64, 128]),      # line bytes
    st.sampled_from([1, 2, 4, 8, 16]),       # ways
    st.sampled_from([1, 2, 4, 16, 64]),      # sets
    st.sampled_from(["LRU", "NMRU", "RND"]),
)

streams = st.tuples(
    st.integers(0, 2**31 - 1),               # stream seed
    st.integers(1, 800),                     # length (ragged, down to 1)
    st.sampled_from([8, 64, 512, 4096]),     # distinct lines
)


def _make_stream(seed, length, universe, line_bytes=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, universe, size=length) * line_bytes


class TestSimulateCachesEquivalence:
    @given(st.lists(geometries, min_size=1, max_size=8), streams)
    @settings(max_examples=50, deadline=None)
    def test_matches_per_pair_simulator(self, geoms, shape):
        """One batched pass == one fresh per-pair simulator per config,
        for any mix of policies and geometries on one stream."""
        addrs = _make_stream(*shape)
        specs = [
            (line * ways * sets, line, ways, policy)
            for line, ways, sets, policy in geoms
        ]
        batched = simulate_caches(addrs, specs, seed=7)
        for spec, got in zip(specs, batched):
            ref = SetAssociativeCache(*spec, seed=7).simulate(addrs)
            assert got == ref

    @given(geometries, streams)
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one(self, geom, shape):
        addrs = _make_stream(*shape)
        line, ways, sets, policy = geom
        spec = (line * ways * sets, line, ways, policy)
        assert list(simulate_caches(addrs, [spec], seed=3)) == [
            SetAssociativeCache(*spec, seed=3).simulate(addrs)
        ]

    def test_empty_stream_and_empty_batch(self):
        addrs = np.empty(0, dtype=np.int64)
        assert list(simulate_caches(addrs, [(1024, 64, 2, "LRU")])) == [0]
        assert len(simulate_caches(np.arange(10) * 64, [])) == 0

    def test_shared_geometry_configs_share_one_pass(self):
        """Many LRU sizes over one (line, sets) geometry still agree."""
        addrs = _make_stream(0, 5000, 512)
        specs = [(64 * ways * 16, 64, ways, "LRU") for ways in (1, 2, 4, 8, 16)]
        batched = simulate_caches(addrs, specs)
        refs = [SetAssociativeCache(*s).simulate(addrs) for s in specs]
        assert list(batched) == refs


class TestStackDistancesManyEquivalence:
    @given(st.lists(streams, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_stream_kernel(self, shapes):
        """Concatenated multi-stream pass == per-stream passes, for
        ragged lengths (down to single-access streams)."""
        blocks = [_make_stream(*shape, line_bytes=1) for shape in shapes]
        batched = stack_distances_many(blocks)
        for stream, (distances, n_cold) in zip(blocks, batched):
            ref_d, ref_cold = stack_distances_from_blocks(stream)
            assert n_cold == ref_cold
            assert np.array_equal(distances, ref_d)

    @given(streams)
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one(self, shape):
        blocks = _make_stream(*shape, line_bytes=1)
        [(distances, n_cold)] = stack_distances_many([blocks])
        ref_d, ref_cold = stack_distances_from_blocks(blocks)
        assert n_cold == ref_cold
        assert np.array_equal(distances, ref_d)

    def test_chunking_boundary_is_invisible(self):
        """Streams straddling the MAX_BATCH chunk boundary still match:
        windows never cross stream boundaries."""
        rng = np.random.default_rng(5)
        blocks = [
            rng.integers(0, 256, size=n)
            for n in (MAX_BATCH // 2, MAX_BATCH // 2, 100, MAX_BATCH, 1)
        ]
        batched = stack_distances_many(blocks)
        for stream, (distances, n_cold) in zip(blocks, batched):
            ref_d, ref_cold = stack_distances_from_blocks(stream)
            assert n_cold == ref_cold
            assert np.array_equal(distances, ref_d)

    def test_direct_dispatch_boundary_is_invisible(self):
        """Long streams take the direct per-stream path; interleaving
        them with short concatenated streams changes nothing."""
        rng = np.random.default_rng(6)
        blocks = [
            rng.integers(0, 256, size=n)
            for n in (DIRECT_MIN - 1, DIRECT_MIN, 50, DIRECT_MIN + 1, 10)
        ]
        batched = stack_distances_many(blocks)
        for stream, (distances, n_cold) in zip(blocks, batched):
            ref_d, ref_cold = stack_distances_from_blocks(stream)
            assert n_cold == ref_cold
            assert np.array_equal(distances, ref_d)

    @given(st.lists(streams, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_address_variant_applies_block_ids(self, shapes):
        addr_streams = [_make_stream(*shape, line_bytes=8) for shape in shapes]
        batched = stack_distances_many_addresses(addr_streams, block_bytes=64)
        for addrs, (distances, n_cold) in zip(addr_streams, batched):
            ref_d, ref_cold = stack_distances_from_blocks(addrs // 64)
            assert n_cold == ref_cold
            assert np.array_equal(distances, ref_d)

    def test_cold_counts_consistent(self):
        blocks = [_make_stream(9, 500, 64, line_bytes=1)]
        [(distances, n_cold)] = stack_distances_many(blocks)
        assert int((distances == COLD_DISTANCE).sum()) == n_cold


class TestAnalyticModelEquivalence:
    @given(
        streams,
        st.lists(
            st.tuples(
                st.sampled_from([4, 16, 64, 256, 1024]),   # capacity blocks
                st.sampled_from([1, 2, 4, 8, 1024]),       # associativity
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_expected_misses_bit_identical(self, shape, configs):
        """The batched analytic model reproduces the per-config floats
        exactly (same arithmetic on the same suffix slices)."""
        blocks = _make_stream(*shape, line_bytes=1)
        distances, _ = stack_distances_from_blocks(blocks)
        sorted_stack = np.sort(distances)
        capacities = np.array([c for c, _ in configs], dtype=np.int64)
        assocs = np.array([a for _, a in configs], dtype=np.int64)
        batched = expected_misses_batch(sorted_stack, capacities, assocs)
        for j, (capacity, assoc) in enumerate(configs):
            assert batched[j] == expected_misses(sorted_stack, capacity, assoc)

    @given(streams)
    @settings(max_examples=25, deadline=None)
    def test_hierarchy_bit_identical(self, shape):
        blocks = _make_stream(*shape, line_bytes=1)
        distances, _ = stack_distances_from_blocks(blocks)
        sorted_stack = np.sort(distances)
        l1_blocks = np.array([128, 256, 512], dtype=np.int64)
        l1_assoc = np.array([2, 4, 8], dtype=np.int64)
        l2_blocks = np.array([4096, 8192, 16384], dtype=np.int64)
        l2_assoc = np.array([8, 8, 16], dtype=np.int64)
        l1_batch, l2_batch = miss_counts_hierarchy_batch(
            sorted_stack, l1_blocks, l1_assoc, l2_blocks, l2_assoc
        )
        for j in range(3):
            l1_ref, l2_ref = miss_counts_hierarchy(
                sorted_stack,
                int(l1_blocks[j]),
                int(l1_assoc[j]),
                int(l2_blocks[j]),
                int(l2_assoc[j]),
            )
            assert l1_batch[j] == l1_ref
            assert l2_batch[j] == l2_ref

    def test_rejects_nonpositive_parameters(self):
        sorted_stack = np.array([1.0, 2.0])
        import pytest

        with pytest.raises(ValueError):
            expected_misses_batch(
                sorted_stack, np.array([0]), np.array([1])
            )
        with pytest.raises(ValueError):
            expected_misses_batch(
                sorted_stack, np.array([16]), np.array([0])
            )


class TestPipelineBatchEquivalence:
    """Simulator.cpi_batch / run_trace_batch ride the kernels: spot-check
    bit-identity end-to-end on real generated inputs."""

    def test_cpi_batch_matches_per_config(self, astar_trace):
        from repro.uarch import Simulator, sample_configs

        rng = np.random.default_rng(11)
        configs = sample_configs(16, rng)
        simulator = Simulator()
        shard = astar_trace.shards(2_000)[0]
        batched = simulator.cpi_batch(shard, configs)
        for j, config in enumerate(configs):
            assert batched[j] == simulator.cpi(shard, config)

    def test_spmv_run_trace_batch_matches(self):
        from repro.spmv import sample_cache_configs, table4_matrix
        from repro.spmv.bcsr import to_bcsr
        from repro.spmv.kernel import kernel_trace
        from repro.spmv.machine import run_trace, run_trace_batch

        matrix = table4_matrix("memplus", seed=0)
        trace = kernel_trace(to_bcsr(matrix, 2, 2))
        rng = np.random.default_rng(13)
        caches = sample_cache_configs(8, rng)
        fill = 1.25
        batched = run_trace_batch(trace, fill, caches, seed=0)
        for cache, got in zip(caches, batched):
            assert got == run_trace(trace, fill, cache, seed=0)
