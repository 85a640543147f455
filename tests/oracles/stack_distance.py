"""Per-access oracle for the vectorized LRU stack-distance kernel.

The classic Bennett-Kruskal algorithm: one Fenwick (binary indexed) tree
update and query per access, O(M log M) for M accesses but a Python loop.
The test suite requires :mod:`repro.profiling.reuse` to equal it exactly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.profiling.reuse import COLD_DISTANCE, _block_ids


class _Fenwick:
    """Fenwick tree over [0, n): point update, prefix-sum query."""

    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of entries at indices < i."""
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)


def stack_distances_fenwick(blocks: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(distances, n_cold)`` of a block-id stream, one access at a time."""
    blocks = np.asarray(blocks, dtype=np.int64)
    m = len(blocks)
    distances = np.empty(m, dtype=np.int64)
    if m == 0:
        return distances, 0

    # Compact block ids to 0..n_blocks-1 for dictionary-free indexing.
    unique, compact = np.unique(blocks, return_inverse=True)
    last_access = np.full(len(unique), -1, dtype=np.int64)

    tree = _Fenwick(m)
    cold = COLD_DISTANCE
    n_cold = 0
    for i in range(m):
        b = compact[i]
        prev = last_access[b]
        if prev < 0:
            distances[i] = cold
            n_cold += 1
        else:
            # Distinct blocks touched since prev = number of "most recent
            # access" markers strictly after prev.
            distances[i] = tree.prefix(m) - tree.prefix(int(prev) + 1)
            tree.add(int(prev), -1)
        tree.add(i, +1)
        last_access[b] = i
    return distances, n_cold


def stack_distances_reference(addresses, block_bytes: int = 64) -> Tuple[np.ndarray, int]:
    """:func:`stack_distances_fenwick` on byte addresses."""
    return stack_distances_fenwick(_block_ids(np.asarray(addresses), block_bytes))
