"""High-level simulation entry points with per-shard statistic caching."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.isa.trace import Trace
from repro.uarch.config import PipelineConfig
from repro.uarch.pipeline import CycleBreakdown, cycle_breakdown_batch
from repro.uarch.shardstats import ShardStats, compute_shard_stats_many


class Simulator:
    """Trace-driven performance simulation over the Table 2 space.

    Computing :class:`ShardStats` (stack distances + dataflow schedules) is
    the expensive step; evaluating a configuration afterwards is cheap
    closed-form arithmetic.  The simulator therefore memoizes statistics by
    shard name so that profiling hundreds of architectures per application
    costs one pass over each shard.

    The timing model is the one seam :attr:`breakdown_batch`, mapping
    ``(stats, configs)`` to a :class:`CycleBreakdown` per config; every
    entry point below is built on it, and a backend rebinds only it.
    """

    breakdown_batch = staticmethod(cycle_breakdown_batch)

    def __init__(self):
        self._stats: Dict[str, ShardStats] = {}

    def stats_for(self, shard: Trace) -> ShardStats:
        """Return (possibly cached) detailed statistics for a shard."""
        return self.stats_for_many([shard])[0]

    def stats_for_many(self, shards: Sequence[Trace]) -> list:
        """Statistics for many shards; uncached ones computed in one batch."""
        missing = [
            s
            for s in shards
            if (st := self._stats.get(s.name)) is None or st.n != len(s)
        ]
        if missing:
            for shard, stats in zip(missing, compute_shard_stats_many(missing)):
                self._stats[shard.name] = stats
        return [self._stats[s.name] for s in shards]

    def cpi_batch_from_stats(
        self, stats: ShardStats, configs: Sequence[PipelineConfig]
    ) -> np.ndarray:
        """CPI of pre-computed statistics on many configs (batched)."""
        return np.array([b.total / stats.n for b in self.breakdown_batch(stats, configs)])

    def breakdown_from_stats(
        self, stats: ShardStats, config: PipelineConfig
    ) -> CycleBreakdown:
        """Cycle-component breakdown of pre-computed statistics."""
        return self.breakdown_batch(stats, [config])[0]

    def cpi_from_stats(self, stats: ShardStats, config: PipelineConfig) -> float:
        """CPI of pre-computed shard statistics on one configuration."""
        return self.breakdown_from_stats(stats, config).total / stats.n

    def cpi(self, shard: Trace, config: PipelineConfig) -> float:
        """Cycles per instruction of ``shard`` on ``config``."""
        return self.cpi_from_stats(self.stats_for(shard), config)

    def cpi_batch(
        self, shard: Trace, configs: Sequence[PipelineConfig]
    ) -> np.ndarray:
        """CPI of ``shard`` on many configs (batched miss model)."""
        return self.cpi_batch_from_stats(self.stats_for(shard), configs)

    def breakdown(self, shard: Trace, config: PipelineConfig) -> CycleBreakdown:
        """Cycle-component breakdown of ``shard`` on ``config``."""
        return self.breakdown_from_stats(self.stats_for(shard), config)

    def cpi_matrix(
        self,
        shards: Sequence[Trace],
        configs: Sequence[PipelineConfig],
    ) -> np.ndarray:
        """CPI for every (shard, config) pair, shaped (len(shards), len(configs))."""
        stats = self.stats_for_many(shards)
        out = np.empty((len(shards), len(configs)), dtype=float)
        for i, st in enumerate(stats):
            out[i, :] = self.cpi_batch_from_stats(st, configs)
        return out

    def application_cpi(
        self, shards: Iterable[Trace], config: PipelineConfig
    ) -> float:
        """End-to-end application CPI: cycle-weighted over its shards.

        Matches the paper's aggregation (§4.4): predict per-shard
        performance, then combine the shards' contributions.  Equal-length
        shards make this the arithmetic mean of shard CPIs.
        """
        cpis = [self.cpi(s, config) for s in shards]
        if not cpis:
            raise ValueError("no shards supplied")
        return float(np.mean(cpis))
