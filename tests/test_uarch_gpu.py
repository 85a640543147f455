"""Property tests for the GPU warp-throughput backend.

Mirrors the style of ``tests/test_kernels_batched.py``: hypothesis
strategies over (shard, design-point) pairs, with the model's three
advertised properties enforced exactly:

* **Monotonicity** — more resident warps, deeper memory queues, more
  SMs, or a wider coalescing segment never *increase* the modeled
  cycle count.
* **Scale invariance** — the model is homogeneous of degree one in the
  shard's counts, so CPI is unchanged when the workload is tiled.
* **Determinism** — bit-identical results across fresh simulators and
  across ``parallel_map`` worker counts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import OpClass, Trace, empty_trace
from repro.parallel import parallel_map
from repro.uarch import compute_shard_stats, gpu_config_from_levels, sample_gpu_configs
from repro.uarch.gpu import (
    _GPU_LEVEL_COUNTS,
    GPU_L1_ASSOC,
    GPU_L2_ASSOC,
    GpuSimulator,
    _gpu_breakdown_from_misses,
    coalescing_fraction,
    gpu_cycle_breakdown_batch,
    warps_in_flight,
)
from tests.oracles.cachemodel import shard_miss_counts


# Single-design entry points: batches of one through the seam.
gpu_cycle_breakdown = GpuSimulator().breakdown_from_stats
simulate_gpu_cpi = GpuSimulator().cpi_from_stats


def _make_shard(n=400, mem_rate=0.3, mispredicts=5, seed=0):
    rng = np.random.default_rng(seed)
    data = empty_trace(n)
    data["op"] = rng.choice(
        [int(OpClass.INT_ALU), int(OpClass.MEMORY), int(OpClass.CONTROL)],
        size=n,
        p=[1 - mem_rate - 0.1, mem_rate, 0.1],
    )
    control = np.flatnonzero(data["op"] == int(OpClass.CONTROL))
    data["taken"][control] = True
    data["miss"][control[:mispredicts]] = True
    mem = data["op"] == int(OpClass.MEMORY)
    data["addr"][mem] = rng.integers(0, 2000, size=int(mem.sum())) * 64
    data["iaddr"] = (np.arange(n) * 4) % 4096
    data["dep"] = rng.integers(0, 6, size=n)
    return Trace(data, f"gpu-shard-{seed}-{n}-{mem_rate}-{mispredicts}")


# A small pool of pre-computed shard statistics so hypothesis examples
# don't pay the trace + stack-distance cost per draw.
_STATS = {seed: compute_shard_stats(_make_shard(seed=seed)) for seed in range(4)}

_levels_strategy = st.tuples(
    *(st.integers(0, count - 1) for count in _GPU_LEVEL_COUNTS)
)

#: Dimensions whose higher levels strictly add parallel resources.
_MORE_PARALLEL_DIMS = (0, 1, 2, 3, 8, 9, 11, 12)


class TestMonotonicity:
    @given(
        st.sampled_from(sorted(_STATS)),
        _levels_strategy,
        st.sampled_from(_MORE_PARALLEL_DIMS),
    )
    @settings(max_examples=120, deadline=None)
    def test_more_parallel_hardware_never_slower(self, seed, levels, dim):
        """Raising warps/SMs/bandwidth/coalescing/queue levels never
        increases the modeled cycle count."""
        if levels[dim] + 1 >= _GPU_LEVEL_COUNTS[dim]:
            levels = tuple(
                0 if i == dim else lv for i, lv in enumerate(levels)
            )
        raised = tuple(
            lv + 1 if i == dim else lv for i, lv in enumerate(levels)
        )
        stats = _STATS[seed]
        base = gpu_cycle_breakdown(stats, gpu_config_from_levels(levels)).total
        more = gpu_cycle_breakdown(stats, gpu_config_from_levels(raised)).total
        assert more <= base + 1e-9 * max(1.0, base)

    @given(_levels_strategy, st.sampled_from((1, 2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_monotone_in_residency_resources(self, levels, dim):
        """More warp slots, register file, or shared memory never reduce
        warps in flight."""
        if levels[dim] + 1 >= _GPU_LEVEL_COUNTS[dim]:
            levels = tuple(
                0 if i == dim else lv for i, lv in enumerate(levels)
            )
        raised = tuple(
            lv + 1 if i == dim else lv for i, lv in enumerate(levels)
        )
        assert warps_in_flight(
            gpu_config_from_levels(raised)
        ) >= warps_in_flight(gpu_config_from_levels(levels))

    @given(st.sampled_from(sorted(_STATS)), _levels_strategy)
    @settings(max_examples=60, deadline=None)
    def test_wider_segment_coalesces_no_fewer_accesses(self, seed, levels):
        stats = _STATS[seed]
        fractions = [
            coalescing_fraction(
                stats,
                gpu_config_from_levels(
                    tuple(lv if i != 9 else co for i, lv in enumerate(levels))
                ),
            )
            for co in range(_GPU_LEVEL_COUNTS[9])
        ]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert all(0.0 <= f <= 1.0 for f in fractions)


def _scaled_stats(stats, k):
    """The statistics of ``stats`` tiled ``k`` times (exact construction)."""
    return dataclasses.replace(
        stats,
        name=f"{stats.name}-x{k}",
        n=stats.n * k,
        opclass_counts=stats.opclass_counts * k,
        taken=stats.taken * k,
        mispredicts=stats.mispredicts * k,
        data_stack=np.sort(np.tile(stats.data_stack, k)),
        inst_stack=np.sort(np.tile(stats.inst_stack, k)),
        n_data_accesses=stats.n_data_accesses * k,
        n_inst_accesses=stats.n_inst_accesses * k,
        dataflow_cycles={w: c * k for w, c in stats.dataflow_cycles.items()},
    )


class TestScaleInvariance:
    @given(
        st.sampled_from(sorted(_STATS)),
        _levels_strategy,
        st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cpi_invariant_under_tiling(self, seed, levels, k):
        """The throughput model is homogeneous: tiling the workload k
        times scales cycles by k and leaves CPI unchanged."""
        stats = _STATS[seed]
        config = gpu_config_from_levels(levels)
        base = simulate_gpu_cpi(stats, config)
        tiled = simulate_gpu_cpi(_scaled_stats(stats, k), config)
        assert tiled == pytest.approx(base, rel=1e-9)


def _cpi_job(args):
    seed, levels = args
    shard = _make_shard(seed=seed)
    return GpuSimulator().cpi(shard, gpu_config_from_levels(levels))


class TestDeterminism:
    def test_fresh_simulators_agree(self):
        shard = _make_shard(seed=1)
        config = gpu_config_from_levels((3, 5, 3, 4, 3, 3, 4, 0, 3, 2, 2, 3, 2))
        assert GpuSimulator().cpi(shard, config) == GpuSimulator().cpi(
            shard, config
        )

    def test_parallel_map_worker_count_invariant(self):
        """GPU evaluations return bit-identical results at any worker
        count (serial path vs process pool)."""
        jobs = [
            (seed, (seed % 4, 2 * (seed % 3), 1, 2, seed % 4, 3, 2, 1, 2, seed % 3, 2, 1, 0))
            for seed in range(6)
        ]
        serial = parallel_map(_cpi_job, jobs, n_workers=1)
        pooled = parallel_map(_cpi_job, jobs, n_workers=2)
        assert serial == pooled

    def test_batched_path_bit_identical_to_per_pair(self):
        shard = _make_shard(seed=2)
        rng = np.random.default_rng(7)
        configs = sample_gpu_configs(12, rng)
        sim = GpuSimulator()
        batch = sim.cpi_batch(shard, configs)
        per_pair = np.array([sim.cpi(shard, c) for c in configs])
        assert np.array_equal(batch, per_pair)

    def test_matches_per_config_oracle(self):
        """Each breakdown equals the assembly of the per-configuration
        oracle's miss counts, bit for bit."""
        shard = _make_shard(n=3000, seed=5)
        # A code footprint larger than any icache, so both streams miss.
        shard.data["iaddr"] = np.random.default_rng(5).integers(0, 2**14, 3000) * 64
        stats = compute_shard_stats(shard)
        configs = sample_gpu_configs(16, np.random.default_rng(4))
        for c, got in zip(configs, gpu_cycle_breakdown_batch(stats, configs)):
            misses = shard_miss_counts(
                stats, c.l1_kb, c.icache_kb, c.l2_kb, GPU_L1_ASSOC, GPU_L2_ASSOC
            )
            assert got == _gpu_breakdown_from_misses(stats, c, *misses)
