"""Exact re-use distance and LRU stack distance measurement.

Two related locality measures appear in the paper:

* **Re-use distance** (Table 1, Figure 3): the number of *instructions*
  separating two consecutive accesses to the same data block.  This is the
  portable temporal-locality measure the models consume.
* **Stack distance**: the number of *distinct blocks* touched between two
  consecutive accesses to the same block.  A fully associative LRU cache of
  capacity C blocks hits exactly when the stack distance is < C, which is
  what the timing models use internally.

Both are computed exactly.  Re-use distances are vectorized with a lexsort.
Stack distances (:func:`stack_distances`) use one vectorized offline
formulation for every input length.  Consecutive same-block repeats
(ubiquitous in real traces: sequential access walks a cache block several
times) are collapsed first — a repeat has stack distance 0 by definition
and removing it provably changes no other access's distance.  On the
collapsed stream, with ``prev[i]`` the previous access to access *i*'s
block, the stack distance is the number of *first-in-window* accesses in
``(prev[i], i)``, which reduces to
``i - prev[i] - 1 - #{j < i : prev[j] > prev[i]}``.  The remaining term is
a per-element inversion count, computed without a per-access loop by
pairwise merge counting (:func:`_count_earlier_greater`), O(M log^2 M) of
numpy work.

The test suite holds it to the Bennett-Kruskal Fenwick-tree loop in
``tests/oracles/stack_distance.py``, with exact equality.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import obs


def _block_ids(addresses: np.ndarray, block_bytes: int) -> np.ndarray:
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ValueError(f"block_bytes must be a positive power of two, got {block_bytes}")
    shift = int(block_bytes).bit_length() - 1
    return np.asarray(addresses, dtype=np.int64) >> shift


def reuse_distances(
    addresses: np.ndarray,
    positions: np.ndarray,
    block_bytes: int = 64,
) -> np.ndarray:
    """Re-use distances, in instructions, for every *re*-access in a stream.

    Parameters
    ----------
    addresses:
        Byte addresses of the accesses, in program order.
    positions:
        Dynamic instruction index of each access (monotonically
        non-decreasing).  Distances are measured on this axis, matching the
        paper's definition ("number of instructions separating two
        consecutive accesses to the same data block").
    block_bytes:
        Block granularity; the paper uses 64B for Table 1 and 256B for
        Figure 3.

    Returns
    -------
    Array with one entry per access that re-touches a previously seen
    block (first touches have no re-use distance and are omitted).
    """
    addresses = np.asarray(addresses)
    positions = np.asarray(positions)
    if addresses.shape != positions.shape:
        raise ValueError("addresses and positions must have the same shape")
    if len(addresses) == 0:
        return np.empty(0, dtype=np.int64)
    blocks = _block_ids(addresses, block_bytes)
    # Stable sort by block keeps program order within each block, so
    # consecutive entries with equal block ids are consecutive accesses.
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    sorted_pos = positions[order]
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    return (sorted_pos[1:] - sorted_pos[:-1])[same]


def mean_reuse_distance(
    addresses: np.ndarray,
    positions: np.ndarray,
    block_bytes: int = 64,
    default: float = 0.0,
) -> float:
    """Average re-use distance; ``default`` when no block is re-accessed."""
    distances = reuse_distances(addresses, positions, block_bytes)
    if len(distances) == 0:
        return float(default)
    return float(distances.mean())


def reuse_distance_sums(
    addresses: np.ndarray,
    positions: np.ndarray,
    block_bytes: int = 256,
) -> float:
    """Sum of all re-use distances in a stream (Figure 3's per-shard metric)."""
    return float(reuse_distances(addresses, positions, block_bytes).sum())


#: Distance assigned to cold (first-touch) accesses: effectively infinite,
#: they miss in any cache.
COLD_DISTANCE = np.int64(2**62)


def stack_distances(
    addresses: np.ndarray,
    block_bytes: int = 64,
) -> Tuple[np.ndarray, int]:
    """Exact LRU stack distance of every access in a stream.

    Returns
    -------
    distances:
        One entry per access.  First touches (cold accesses) get distance
        ``2**62`` (effectively infinite: they miss in any cache).
    n_cold:
        Number of cold accesses (distinct blocks touched).
    """
    with obs.span("kernel.stack_distances"):
        obs.counter("kernel.stack_accesses").inc(len(addresses))
        blocks = _block_ids(np.asarray(addresses), block_bytes)
        return stack_distances_from_blocks(blocks)


def stack_distances_from_blocks(blocks: np.ndarray) -> Tuple[np.ndarray, int]:
    """:func:`stack_distances` on pre-computed block (line) ids."""
    distances, n_cold, _, _ = stack_distances_and_prev(blocks)
    return distances, n_cold


def _prev_occurrence(blocks: np.ndarray) -> np.ndarray:
    """``prev[i]``: index of the previous access to ``blocks[i]``, -1 if none.

    One argsort over composite keys ``compact_id * m + position``: the keys
    are unique, so an unstable (quicksort) argsort is grouping-stable — far
    cheaper than ``kind="stable"``'s radix pass on this data.
    """
    m = len(blocks)
    compact = np.unique(blocks, return_inverse=True)[1]
    key = compact.astype(np.int64) * np.int64(m) + np.arange(m, dtype=np.int64)
    order = np.argsort(key)
    sorted_compact = compact[order]
    prev = np.full(m, -1, dtype=np.int64)
    same = sorted_compact[1:] == sorted_compact[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def stack_distances_and_prev(
    blocks: np.ndarray,
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Vectorized stack distances plus the collapsed-stream bookkeeping.

    Returns ``(distances, n_cold, collapsed, prev)`` where ``collapsed`` is
    the input with consecutive repeats removed and ``prev`` maps each
    collapsed access to its block's previous collapsed occurrence (-1 on
    first touch).  The extras cost nothing — the distance computation
    produces them anyway — and let callers reconstruct LRU state (an
    access is its block's *last* when no later access points back at it).

    Consecutive repeats of a block are collapsed first: a repeat has
    distance 0 (its window is empty), and because any window that contains
    a repeat also contains the preceding access to the same block, dropping
    repeats changes no other access's distinct count.

    On the collapsed stream, let ``prev[i]`` be the position of the
    previous access to access *i*'s block (-1 on first touch).  Every
    distinct block touched in the window ``(prev[i], i)`` contributes
    exactly one access *j* whose own previous access lies outside the
    window (``prev[j] <= prev[i]``), so

        distance[i] = #{j : prev[i] < j < i}
                      - #{j : prev[i] < j < i, prev[j] > prev[i]}
                    = i - prev[i] - 1 - #{j < i : prev[j] > prev[i]}

    (the window bound on *j* in the subtracted term is implied by
    ``prev[j] > prev[i]`` together with ``prev[j] < j``).  The last term is
    a per-element inversion count over ``prev``.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    m = len(blocks)
    keep = np.empty(m, dtype=bool)
    keep[:1] = True  # a slice, so an empty stream flows through unchanged
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    idx = np.flatnonzero(keep)
    collapsed = blocks[idx]
    n = len(collapsed)

    prev = _prev_occurrence(collapsed)
    cold_mask = prev < 0
    inversions = _count_earlier_greater(prev)
    collapsed_distances = np.where(
        cold_mask,
        COLD_DISTANCE,
        np.arange(n, dtype=np.int64) - prev - 1 - inversions,
    )
    distances = np.zeros(m, dtype=np.int64)   # repeats: distance 0
    distances[idx] = collapsed_distances
    return distances, int(cold_mask.sum()), collapsed, prev


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """For each *i*: ``#{j < i : values[j] > values[i]}``, vectorized.

    Bottom-up pairwise counting: for span widths 1, 2, 4, ... every element
    in the right half of a span counts the greater elements in its sorted
    left sibling half.  Summed over all levels this is exactly the set of
    earlier-greater pairs.  The two narrowest levels are plain elementwise
    comparisons; each wider level is one row-sort of the left halves plus a
    single global ``searchsorted`` (rows are made globally comparable by
    adding a per-row offset larger than the value range), so the per-access
    work is all inside numpy: O(M log^2 M) total.  Values are compacted to
    int32 when they fit — the counting only depends on order.
    """
    m = int(len(values))
    counts = np.zeros(m, dtype=np.int64)
    if m < 2:
        return counts
    vmin, vmax = int(values.min()), int(values.max())
    if vmax - vmin >= np.iinfo(np.int32).max - 2:
        # Only order matters: compact wide-range values to dense ranks.
        values = np.unique(values, return_inverse=True)[1]
        vmin, vmax = 0, int(values.max())
    # Shift to a zero base so the working array always fits int32.
    v = (np.asarray(values, dtype=np.int64) - vmin).astype(np.int32)
    vmax -= vmin
    lo = np.int32(-1)                         # padding sentinel, never "greater"
    big = np.int64(vmax + 3)                  # per-row key offset

    # Width-1 level: each odd position counts its even left neighbour.
    n2 = m // 2
    counts[1:2 * n2:2] += v[0:2 * n2:2] > v[1:2 * n2:2]
    if m <= 2:
        return counts

    arr = np.full(-(-m // 4) * 4, lo, dtype=v.dtype)
    arr[:m] = v
    counts_padded = np.zeros(len(arr), dtype=np.int64)

    # Width-2 level: min/max sort the two left entries, compare elementwise.
    quads = arr.reshape(-1, 4)
    left_lo = np.minimum(quads[:, 0], quads[:, 1])
    left_hi = np.maximum(quads[:, 0], quads[:, 1])
    for col in (2, 3):
        counts_padded[col::4] += left_lo > quads[:, col]
        counts_padded[col::4] += left_hi > quads[:, col]

    width = 4
    while width < m:
        span = 2 * width
        n_pairs = -(-len(arr) // span)
        padded = n_pairs * span
        if padded != len(arr):
            grown = np.full(padded, lo, dtype=v.dtype)
            grown[:len(arr)] = arr
            arr = grown
            grown_counts = np.zeros(padded, dtype=np.int64)
            grown_counts[:len(counts_padded)] = counts_padded
            counts_padded = grown_counts
        blocks = arr.reshape(n_pairs, span)
        left = np.sort(blocks[:, :width], axis=1)
        right = blocks[:, width:]

        row_offset = (np.arange(n_pairs, dtype=np.int64) * big)[:, None]
        keys = (left + row_offset).ravel()          # globally sorted
        queries = (right + row_offset).ravel()
        n_le = np.searchsorted(keys, queries, side="right")
        n_le -= np.repeat(np.arange(n_pairs, dtype=np.int64) * width, width)
        # width - n_le = number of left entries greater than the query.
        counts_padded.reshape(n_pairs, span)[:, width:] += (
            (width - n_le).reshape(n_pairs, width)
        )
        width = span
    counts += counts_padded[:m]
    return counts
