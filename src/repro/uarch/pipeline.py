"""Interval-style out-of-order timing model.

Assembles a shard's cycle count on a given :class:`PipelineConfig` from
independent components, in the tradition of the analytic CPI models the
paper cites ([15] Eyerman et al., [24] Karkhanis & Smith):

1. **Core throughput** — the maximum of the fetch/dispatch-width bound, the
   window-constrained dataflow bound, per-class functional-unit contention
   bounds, and the cache-port bound.
2. **Branch penalty** — each mispredict refills a front-end whose depth
   grows with machine width (wider machines run deeper pipelines, the
   paper's own example of a hardware-software interaction, §3.1).
3. **Data-memory stalls** — expected L1/L2 miss counts from the stack
   distance model, with miss latency partially hidden by memory-level
   parallelism limited by MSHRs, the load/store queue, and the ROB.
4. **Instruction-memory stalls** — instruction-cache misses stall the
   front end without overlap.

The result is a deterministic, non-linear function of hardware parameters
and *detailed* software behavior with exactly the pairwise interactions the
paper's models must learn (width x mispredicts, ROB x miss spacing,
MSHR x L2 size, ...).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.isa.instructions import FU_ISSUE_INTERVAL
from repro.uarch.cachemodel import shard_miss_counts
from repro.uarch.config import MEMORY_LATENCY, PipelineConfig
from repro.uarch.shardstats import ShardStats

#: Cycles of front-end refill charged per mispredict, as a function of
#: width: penalty = BRANCH_BASE + BRANCH_WIDTH_SCALE * width.
BRANCH_BASE = 4.0
BRANCH_WIDTH_SCALE = 2.0


@dataclasses.dataclass(frozen=True)
class CycleBreakdown:
    """Cycle components for one (shard, configuration) pair."""

    core: float
    branch: float
    data_memory: float
    inst_memory: float

    @property
    def total(self) -> float:
        return self.core + self.branch + self.data_memory + self.inst_memory


def _fu_units(config: PipelineConfig) -> np.ndarray:
    """Functional units available per opcode class."""
    return np.array(
        [
            max(1, config.width),   # CONTROL resolves on any issue slot
            config.fp_alu,          # FP_ALU
            config.fp_mul,          # FP_MULDIV
            config.int_muldiv,      # INT_MULDIV
            config.int_alu,         # INT_ALU
            config.ports,           # MEMORY limited by cache ports
        ],
        dtype=float,
    )


def _breakdown_from_misses(
    stats: ShardStats,
    config: PipelineConfig,
    l1d_miss: float,
    l2d_miss: float,
    l1i_miss: float,
    l2i_miss: float,
) -> CycleBreakdown:
    """Cycle components of one configuration given its hierarchy miss counts."""
    n = stats.n
    counts = stats.opclass_counts.astype(float)

    # --- 1. core throughput -----------------------------------------------------
    width_bound = n / config.width
    dataflow_bound = stats.dataflow_cycles[config.rob]
    fu_bounds = counts * FU_ISSUE_INTERVAL / _fu_units(config)
    core = max(width_bound, dataflow_bound, float(fu_bounds.max()))

    # --- 2. branch mispredictions -------------------------------------------------
    penalty = BRANCH_BASE + BRANCH_WIDTH_SCALE * config.width
    branch = stats.mispredicts * penalty

    # --- 3. data memory hierarchy --------------------------------------------------
    l2_hits = l1d_miss - l2d_miss

    data_memory = 0.0
    if l1d_miss > 0:
        # Memory-level parallelism: limited by MSHRs, by LSQ capacity, and
        # by how many misses the window can expose (ROB span / average
        # instruction spacing between misses).
        spacing = n / l1d_miss
        window_mlp = 1.0 + config.rob / spacing
        mlp = max(1.0, min(config.mshr, config.lsq / 4.0, window_mlp))
        # A miss overlaps with the dispatch of up to ROB further
        # instructions (ROB/width cycles of core work already counted in
        # the throughput bound), but never becomes free: dependent loads,
        # bandwidth, and queueing keep at least a quarter of the latency
        # exposed.
        hideable = config.rob / config.width
        l2_exposed = max(0.25 * config.l2_latency, config.l2_latency - hideable)
        mem_exposed = max(0.25 * MEMORY_LATENCY, MEMORY_LATENCY - hideable)
        data_memory = (l2_hits * l2_exposed + l2d_miss * mem_exposed) / mlp

    # --- 4. instruction memory -----------------------------------------------------
    inst_memory = (l1i_miss - l2i_miss) * config.l2_latency + l2i_miss * MEMORY_LATENCY

    return CycleBreakdown(
        core=core,
        branch=float(branch),
        data_memory=float(data_memory),
        inst_memory=float(inst_memory),
    )


def cycle_breakdown_batch(
    stats: ShardStats, configs: Sequence[PipelineConfig]
) -> List[CycleBreakdown]:
    """Cycle components of one shard on each of ``configs``.

    The expensive part, the miss model's histogram pass over the shard's
    stack distances, runs once per *distinct* cache geometry
    (:func:`repro.uarch.cachemodel.shard_miss_counts`); the cheap
    per-config assembly follows.  A single configuration is a batch of one.
    """
    misses = shard_miss_counts(
        stats,
        [c.dcache_kb for c in configs],
        [c.icache_kb for c in configs],
        [c.l2_kb for c in configs],
        [c.l1_assoc for c in configs],
        [c.l2_assoc for c in configs],
    )
    return [_breakdown_from_misses(stats, c, *m) for c, m in zip(configs, misses)]
