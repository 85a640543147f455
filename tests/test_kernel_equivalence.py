"""Property tests: the vectorized kernels are exact replacements.

The cache simulator's numpy LRU path must reproduce the per-access
reference loop bit-for-bit (miss counts *and* final MRU state), and the
vectorized stack-distance kernel must match the Fenwick-tree oracle in
``tests/oracles/stack_distance.py``, across randomized geometries and
stream shapes — down to empty and single-access streams.  Streams are built with
numpy generators from hypothesis-drawn parameters so they comfortably
exceed the fast paths' minimum-length dispatch thresholds.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.profiling.reuse import (
    COLD_DISTANCE,
    stack_distances,
    stack_distances_from_blocks,
)
from repro.spmv import SetAssociativeCache
from tests.oracles.stack_distance import (
    stack_distances_fenwick,
    stack_distances_reference,
)

geometries = st.tuples(
    st.sampled_from([16, 32, 64, 128]),      # line bytes
    st.sampled_from([1, 2, 4, 8, 16]),       # ways
    st.sampled_from([1, 2, 4, 16, 64]),      # sets
)

stream_shapes = st.tuples(
    st.integers(0, 2**31 - 1),               # stream seed
    st.integers(260, 800),                   # length (>= vectorize minimum)
    st.sampled_from([8, 64, 512, 4096]),     # distinct lines in the stream
    st.sampled_from([1, 2, 4, 8]),           # run length (consecutive repeats)
)


#: Block-id streams of length 0-63: random over a dense or a sparse id
#: range, one block repeated, and cyclic all-repeat sweeps.
short_block_streams = st.one_of(
    st.lists(st.integers(0, 12), max_size=63),
    st.lists(st.integers(-(2**40), 2**40), max_size=63),
    st.builds(lambda b, n: [b] * n, st.integers(0, 2**40), st.integers(0, 63)),
    st.builds(
        lambda k, r: list(range(k)) * r, st.integers(1, 8), st.integers(1, 7)
    ),
)


def _make_stream(seed, length, universe, run_length, line_bytes):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, universe, size=-(-length // run_length))
    return np.repeat(lines, run_length)[:length] * line_bytes


class TestCacheSimulatorEquivalence:
    @given(geometries, stream_shapes)
    @settings(max_examples=60, deadline=None)
    def test_lru_vectorized_matches_reference(self, geometry, shape):
        """Identical miss counts and identical final per-set MRU lists."""
        line_bytes, ways, n_sets = geometry
        addrs = _make_stream(*shape, line_bytes)
        size = line_bytes * ways * n_sets

        ref = SetAssociativeCache(size, line_bytes, ways, "LRU")
        fast = SetAssociativeCache(size, line_bytes, ways, "LRU")
        assert fast.simulate(addrs) == ref.simulate_reference(addrs)
        assert fast._sets == ref._sets

    @given(geometries, stream_shapes)
    @settings(max_examples=30, deadline=None)
    def test_lru_simulate_matches_access_loop(self, geometry, shape):
        line_bytes, ways, n_sets = geometry
        addrs = _make_stream(*shape, line_bytes)
        size = line_bytes * ways * n_sets

        loop = SetAssociativeCache(size, line_bytes, ways, "LRU")
        misses_loop = sum(0 if loop.access(int(a)) else 1 for a in addrs)
        batch = SetAssociativeCache(size, line_bytes, ways, "LRU")
        assert batch.simulate(addrs) == misses_loop
        assert batch._sets == loop._sets

    @given(
        st.sampled_from(["NMRU", "RND"]),
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_policies_match_access_loop(
        self, policy, cache_seed, stream_seed
    ):
        """simulate() consumes the eviction RNG exactly like access(), so
        randomized policies agree draw-for-draw, not just statistically."""
        addrs = _make_stream(stream_seed, 400, 64, 2, 32)
        loop = SetAssociativeCache(32 * 4 * 8, 32, 4, policy, seed=cache_seed)
        misses_loop = sum(0 if loop.access(int(a)) else 1 for a in addrs)
        batch = SetAssociativeCache(32 * 4 * 8, 32, 4, policy, seed=cache_seed)
        assert batch.simulate(addrs) == misses_loop
        assert batch._sets == loop._sets

    @given(geometries, stream_shapes)
    @settings(max_examples=20, deadline=None)
    def test_warm_cache_still_exact(self, geometry, shape):
        """A second simulate() call starts warm, dispatches to the
        reference path, and must stay consistent with a single long run."""
        line_bytes, ways, n_sets = geometry
        addrs = _make_stream(*shape, line_bytes)
        size = line_bytes * ways * n_sets
        half = len(addrs) // 2

        whole = SetAssociativeCache(size, line_bytes, ways, "LRU")
        split = SetAssociativeCache(size, line_bytes, ways, "LRU")
        total = whole.simulate_reference(addrs)
        assert split.simulate(addrs[:half]) + split.simulate(addrs[half:]) == total
        assert split._sets == whole._sets


class TestStackDistanceEquivalence:
    @given(stream_shapes)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_fenwick(self, shape):
        addrs = _make_stream(*shape, 64)
        fast_d, fast_cold = stack_distances(addrs)
        ref_d, ref_cold = stack_distances_reference(addrs)
        assert fast_cold == ref_cold
        assert np.array_equal(fast_d, ref_d)

    @given(short_block_streams)
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_short_streams_match_fenwick(self, blocks):
        """Every stream shape of length 0-63 equals the Fenwick loop."""
        blocks = np.array(blocks, dtype=np.int64)
        fast_d, fast_cold = stack_distances_from_blocks(blocks)
        ref_d, ref_cold = stack_distances_fenwick(blocks)
        assert fast_cold == ref_cold
        assert fast_d.dtype == ref_d.dtype
        assert np.array_equal(fast_d, ref_d)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_wide_block_range(self, seed):
        """Block ids spanning more than int32 still count exactly (the
        kernel rank-compacts before its int32 working arrays)."""
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 2**52, size=300) * 64
        fast_d, fast_cold = stack_distances(addrs)
        ref_d, ref_cold = stack_distances_reference(addrs)
        assert fast_cold == ref_cold
        assert np.array_equal(fast_d, ref_d)

    @given(stream_shapes)
    @settings(max_examples=20, deadline=None)
    def test_cold_sentinel_consistent(self, shape):
        addrs = _make_stream(*shape, 64)
        d, n_cold = stack_distances(addrs)
        assert int((d == COLD_DISTANCE).sum()) == n_cold
        assert n_cold == len(np.unique(addrs // 64))
