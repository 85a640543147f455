"""Out-of-order microarchitecture substrate (the paper's Gem5 stand-in).

Defines the Table 2 hardware design space and a deterministic trace-driven
interval timing model producing CPI for any (shard, configuration) pair.
See DESIGN.md §1 for why this substitution preserves the paper's modeling
problem.
"""

from repro.uarch.config import (
    PipelineConfig,
    HARDWARE_VARIABLE_NAMES,
    HARDWARE_VARIABLE_LABELS,
    MEMORY_LATENCY,
    config_from_levels,
    design_space_size,
    enumerate_configs,
    reference_config,
    sample_configs,
)
from repro.uarch.shardstats import ShardStats, compute_shard_stats
from repro.uarch.cachemodel import expected_misses_batch, miss_counts_hierarchy_batch
from repro.uarch.pipeline import CycleBreakdown, cycle_breakdown_batch
from repro.uarch.simulator import Simulator
from repro.uarch.gpu import (
    GpuConfig,
    GpuSimulator,
    GPU_HARDWARE_VARIABLE_LABELS,
    GPU_MEMORY_LATENCY,
    gpu_config_from_levels,
    gpu_design_space_size,
    gpu_occupancy,
    gpu_cycle_breakdown_batch,
    reference_gpu_config,
    sample_gpu_configs,
    warps_in_flight,
)
from repro.uarch.backends import (
    Backend,
    BackendEvaluation,
    BackendUnavailableError,
    BACKEND_NAMES,
    GuardedBackend,
    get_backend,
)
from repro.uarch.tuning import ArchitectureSearch, SearchOutcome, random_search_baseline
from repro.uarch.detailed import DetailedSimulator, DetailedResult, detailed_cpi

__all__ = [
    "PipelineConfig",
    "HARDWARE_VARIABLE_NAMES",
    "HARDWARE_VARIABLE_LABELS",
    "MEMORY_LATENCY",
    "config_from_levels",
    "design_space_size",
    "enumerate_configs",
    "reference_config",
    "sample_configs",
    "ShardStats",
    "compute_shard_stats",
    "expected_misses_batch",
    "miss_counts_hierarchy_batch",
    "CycleBreakdown",
    "cycle_breakdown_batch",
    "Simulator",
    "GpuConfig",
    "GpuSimulator",
    "GPU_HARDWARE_VARIABLE_LABELS",
    "GPU_MEMORY_LATENCY",
    "gpu_config_from_levels",
    "gpu_design_space_size",
    "gpu_occupancy",
    "gpu_cycle_breakdown_batch",
    "reference_gpu_config",
    "sample_gpu_configs",
    "warps_in_flight",
    "Backend",
    "BackendEvaluation",
    "BackendUnavailableError",
    "BACKEND_NAMES",
    "GuardedBackend",
    "get_backend",
    "ArchitectureSearch",
    "SearchOutcome",
    "random_search_baseline",
    "DetailedSimulator",
    "DetailedResult",
    "detailed_cpi",
]
