"""Analytic cache-miss model from exact LRU stack distances.

For a fully associative LRU cache of capacity C blocks, an access with
stack distance d hits iff d < C — exactly.  For a set-associative cache
with S sets and A ways, we use the standard probabilistic correction
(a uniformly hashed block conflicts with each of the d intervening distinct
blocks independently with probability 1/S):

    P[miss | d] = P[Binomial(d, 1/S) >= A]

The expectation over the shard's empirical stack-distance distribution
gives the expected miss count.  Cold (first-touch) accesses always miss.

Configurations of one shard are evaluated as a batch (one config is a
batch of one); the per-config test oracle is ``tests/oracles/cachemodel.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro import obs
from repro.uarch.config import CACHE_BLOCK_BYTES
from repro.uarch.shardstats import COLD, ShardStats


def _binom_sf(k: int, n: np.ndarray, p: float) -> np.ndarray:
    """P[Binomial(n, p) >= k], vectorized over ``n``.

    Computed by explicit summation of the first ``k`` terms (k = ways is at
    most 8 here, so this is cheap) in a numerically stable way.
    """
    n = np.asarray(n, dtype=float)
    if k <= 0:
        return np.ones_like(n)
    q = 1.0 - p
    # term_0 = q^n; term_{j+1} = term_j * (n-j)/(j+1) * p/q
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    term = np.exp(n * log_q)
    cdf = term.copy()
    ratio = p / q
    for j in range(k - 1):
        term = term * (n - j) / (j + 1) * ratio
        term = np.maximum(term, 0.0)
        cdf += term
    return np.clip(1.0 - cdf, 0.0, 1.0)


def expected_misses_batch(
    sorted_stack: np.ndarray,
    capacities: np.ndarray,
    assocs: np.ndarray,
) -> np.ndarray:
    """Analytic expected misses for many (capacity, assoc) configs.

    ``sorted_stack`` holds sorted stack distances (:data:`COLD` for first
    touches) as stored in :class:`~repro.uarch.shardstats.ShardStats`;
    capacities are in blocks, and ``assoc >= capacity`` means fully
    associative, where the model is exact.  The warm/cold split and the
    sorted-unique histogram are computed once for all configurations (each
    config's tail histogram is a suffix of the global one because the warm
    distances are sorted), and each *distinct* (capacity, effective assoc)
    pair is evaluated once.
    """
    capacities = np.asarray(capacities, dtype=np.int64)
    assocs = np.asarray(assocs, dtype=np.int64)
    if capacities.shape != assocs.shape:
        raise ValueError("capacities and assocs must have the same shape")
    if np.any(capacities <= 0):
        raise ValueError("capacity must be positive")
    if np.any(assocs <= 0):
        raise ValueError("associativity must be positive")
    n_configs = len(capacities)
    out = np.zeros(n_configs, dtype=float)
    m = len(sorted_stack)
    if m == 0 or n_configs == 0:
        return out
    obs.counter("kernel.batched_model_pairs").inc(n_configs)

    split = int(np.searchsorted(sorted_stack, COLD, side="left"))
    warm = sorted_stack[:split]
    n_cold = m - split
    values_all, counts_all = (
        np.unique(warm, return_counts=True)
        if len(warm)
        else (warm, np.empty(0, dtype=np.int64))
    )

    assoc_eff = np.minimum(assocs, capacities)
    memo: Dict[Tuple[int, int], float] = {}
    for i in range(n_configs):
        key = (int(capacities[i]), int(assoc_eff[i]))
        cached = memo.get(key)
        if cached is not None:
            out[i] = cached
            continue
        capacity, assoc = key
        sets = capacity // assoc
        if sets <= 1:
            # Fully associative: exact hit iff d < capacity.
            result = float(len(warm) - np.searchsorted(warm, capacity)) + n_cold
        else:
            always_hit = int(np.searchsorted(warm, assoc))
            if always_hit >= len(warm):
                result = float(n_cold)
            else:
                suffix = int(np.searchsorted(values_all, assoc))
                values = values_all[suffix:]
                counts = counts_all[suffix:]
                pmiss = _binom_sf(assoc, values, 1.0 / sets)
                result = float((pmiss * counts).sum()) + n_cold
        memo[key] = result
        out[i] = result
    return out


def miss_counts_hierarchy_batch(
    sorted_stack: np.ndarray,
    l1_blocks: np.ndarray,
    l1_assoc: np.ndarray,
    l2_blocks: np.ndarray,
    l2_assoc: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expected (L1 misses, L2 misses) per configuration of one stream.

    The L2 is modeled over the same global stack-distance distribution — an
    inclusive-hierarchy approximation that is exact for fully associative
    LRU levels and standard for analytic hierarchy models.  Both levels go
    through one :func:`expected_misses_batch` call so distinct geometries
    dedupe across levels as well as across configs.
    """
    n_configs = len(l1_blocks)
    both = expected_misses_batch(
        sorted_stack,
        np.concatenate([l1_blocks, l2_blocks]),
        np.concatenate([l1_assoc, l2_assoc]),
    )
    l1, l2 = both[:n_configs], both[n_configs:]
    # An inclusive hierarchy cannot miss more in L2 than in L1.
    return l1, np.minimum(l1, l2)


def shard_miss_counts(
    stats: ShardStats,
    l1d_kb: Sequence[int],
    l1i_kb: Sequence[int],
    l2_kb: Sequence[int],
    l1_assoc: Sequence[int],
    l2_assoc: Sequence[int],
) -> Iterator[Tuple[float, float, float, float]]:
    """Per-config ``(L1D, L2D, L1I, L2I)`` expected misses of one shard.

    Every argument holds one value per configuration (sizes in KB); the
    data and instruction streams share the unified L2.
    """
    sizes = np.array([l1d_kb, l1i_kb, l2_kb], dtype=np.int64)
    l1d_blocks, l1i_blocks, l2_blocks = sizes * 1024 // CACHE_BLOCK_BYTES
    l1d, l2d = miss_counts_hierarchy_batch(
        stats.data_stack, l1d_blocks, l1_assoc, l2_blocks, l2_assoc
    )
    l1i, l2i = miss_counts_hierarchy_batch(
        stats.inst_stack, l1i_blocks, l1_assoc, l2_blocks, l2_assoc
    )
    return zip(l1d.tolist(), l2d.tolist(), l1i.tolist(), l2i.tolist())
