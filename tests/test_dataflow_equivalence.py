"""Property tests: the lane-batched dataflow schedule equals the scalar oracle.

:func:`repro.uarch.shardstats.dataflow_cycles_many` advances every (shard,
ROB window) lane together in blocks, resolves in-block dependence chains
by pointer doubling and keeps only a chunk of rows plus look-back.  Each
of those steps is exercised here against the per-instruction loop in
:mod:`tests.oracles.dataflow`, with exact equality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import FU_LATENCY, N_OPCLASSES, empty_trace
from repro.isa.trace import Trace
from repro.uarch.config import ROB_LEVELS
from repro.uarch.shardstats import (
    _BLOCK,
    _CHUNK,
    compute_shard_stats,
    dataflow_cycles_many,
)
from tests.oracles.dataflow import dataflow_cycles

lengths = st.one_of(
    st.integers(1, _BLOCK - 1),
    st.integers(_BLOCK, 3 * _CHUNK + _BLOCK + 7),
)
#: Mean dependence distance: chains inside a block, across blocks, and
#: across chunks (longer than the rolling buffers' default look-back).
dep_means = st.sampled_from([1.0, 1.5, 4.0, 40.0, 300.0, 3 * _CHUNK])
#: Loop-carried recurrences (``dep[m::m] = m``), as the generator writes them.
recurrences = st.sampled_from(
    [0, 1, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, max(ROB_LEVELS) + 5, _CHUNK + 3]
)


@st.composite
def shards(draw, length=lengths):
    n = draw(length)
    seed = draw(st.integers(0, 2**32 - 1))
    dep_mean = draw(dep_means)
    recurrence = draw(recurrences)
    rng = np.random.default_rng(seed)
    data = empty_trace(n)
    data["op"] = rng.integers(0, N_OPCLASSES, size=n)
    dep = rng.geometric(1.0 / dep_mean, size=n)
    dep[rng.random(n) < 0.2] = 0
    dep[rng.random(n) < 0.02] = -1  # malformed distances mean "no dependence"
    if recurrence:
        dep[recurrence::recurrence] = recurrence
    data["dep"] = np.minimum(dep, np.iinfo(np.int32).max)
    return Trace(data, f"shard{seed}")


def _oracle(shard):
    return [dataflow_cycles(shard, window) for window in ROB_LEVELS]


class TestDataflowEquivalence:
    def test_latencies_are_small_integers(self):
        # The exactness premise: with integer latencies every finish time
        # is an integer far below 2**53, so reassociating the float64
        # sums and maxima cannot round.
        assert np.array_equal(FU_LATENCY, np.round(FU_LATENCY))
        assert (FU_LATENCY > 0).all()
        assert FU_LATENCY.max() * 2**32 < 2**53

    @given(shards())
    @settings(max_examples=60, deadline=None)
    def test_one_shard_matches_oracle(self, shard):
        got = dataflow_cycles_many([shard])
        assert got.shape == (1, len(ROB_LEVELS))
        assert got[0].tolist() == _oracle(shard)

    @given(st.lists(shards(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_mixed_lengths_in_one_call(self, batch):
        got = dataflow_cycles_many(batch)
        assert got.tolist() == [_oracle(shard) for shard in batch]

    @given(shards(length=st.integers(_CHUNK + 1, 3 * _CHUNK)))
    @settings(max_examples=20, deadline=None)
    def test_shard_stats_carry_the_schedule(self, shard):
        stats = compute_shard_stats(shard)
        assert list(stats.dataflow_cycles) == list(ROB_LEVELS)
        assert list(stats.dataflow_cycles.values()) == _oracle(shard)

    def test_dependences_past_the_chunk(self):
        # One chain with a link longer than a chunk, so the look-back
        # buffer outgrows the chunk and its shift overlaps itself.
        n = 3 * _CHUNK + 11
        data = empty_trace(n)
        data["op"] = np.arange(n) % N_OPCLASSES
        data["dep"][_CHUNK + 400 :: _CHUNK + 400] = _CHUNK + 400
        data["dep"][1::2] = 1
        shard = Trace(data, "long")
        assert dataflow_cycles_many([shard])[0].tolist() == _oracle(shard)
