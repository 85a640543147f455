"""Per-configuration oracle for the batched analytic cache-miss model.

:mod:`repro.uarch.cachemodel` evaluates many configurations of one shard
at once, hoisting the unique-distance histogram and deduplicating
geometries; this module evaluates one configuration from scratch.  The
test suite requires the two to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.cachemodel import _binom_sf
from repro.uarch.config import CACHE_BLOCK_BYTES
from repro.uarch.shardstats import COLD


def expected_misses(
    sorted_stack: np.ndarray,
    capacity_blocks: int,
    assoc: int,
) -> float:
    """Expected misses of one cache over a sorted stack-distance stream."""
    if capacity_blocks <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_blocks}")
    if assoc <= 0:
        raise ValueError(f"associativity must be positive, got {assoc}")
    m = len(sorted_stack)
    if m == 0:
        return 0.0

    n_cold = int(np.searchsorted(sorted_stack, COLD, side="left"))
    warm = sorted_stack[:n_cold]
    n_cold = m - n_cold

    assoc = min(assoc, capacity_blocks)
    sets = capacity_blocks // assoc
    if sets <= 1:
        # Fully associative: exact hit iff d < capacity.
        warm_misses = float(len(warm) - np.searchsorted(warm, capacity_blocks))
        return warm_misses + n_cold

    # Accesses with d < assoc always hit (cannot be evicted from their set).
    always_hit = int(np.searchsorted(warm, assoc))
    tail = warm[always_hit:]
    if len(tail) == 0:
        return float(n_cold)
    values, counts = np.unique(tail, return_counts=True)
    pmiss = _binom_sf(assoc, values, 1.0 / sets)
    return float((pmiss * counts).sum()) + n_cold


def miss_counts_hierarchy(
    sorted_stack: np.ndarray,
    l1_blocks: int,
    l1_assoc: int,
    l2_blocks: int,
    l2_assoc: int,
) -> tuple:
    """Expected (L1 misses, L2 misses) of one two-level hierarchy."""
    l1 = expected_misses(sorted_stack, l1_blocks, l1_assoc)
    l2 = expected_misses(sorted_stack, l2_blocks, l2_assoc)
    # An inclusive hierarchy cannot miss more in L2 than in L1.
    return l1, min(l1, l2)


def shard_miss_counts(stats, l1d_kb, l1i_kb, l2_kb, l1_assoc, l2_assoc) -> tuple:
    """``(L1D, L2D, L1I, L2I)`` expected misses of one configuration."""
    l1d, l1i, l2 = (kb * 1024 // CACHE_BLOCK_BYTES for kb in (l1d_kb, l1i_kb, l2_kb))
    return (
        *miss_counts_hierarchy(stats.data_stack, l1d, l1_assoc, l2, l2_assoc),
        *miss_counts_hierarchy(stats.inst_stack, l1i, l1_assoc, l2, l2_assoc),
    )
