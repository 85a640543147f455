"""Struct-of-arrays batched kernels (see :mod:`repro.kernels.batched`), plus
the batched analytic miss model re-exported from :mod:`repro.uarch.cachemodel`."""

from repro.kernels.batched import (
    simulate_caches,
    stack_distances_many,
    stack_distances_many_addresses,
)
from repro.uarch.cachemodel import expected_misses_batch, miss_counts_hierarchy_batch

__all__ = [
    "expected_misses_batch",
    "miss_counts_hierarchy_batch",
    "simulate_caches",
    "stack_distances_many",
    "stack_distances_many_addresses",
]
