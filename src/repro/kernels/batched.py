"""Struct-of-arrays batched cache and stack-distance kernels.

Sweeping a thousand cache architectures over one trace one at a time
repeats the same argsorts and stack-distance passes a thousand times; these
kernels take configurations (or streams) as a leading struct-of-arrays axis
so shared sub-computations run once:

* :func:`simulate_caches` — many cold set-associative caches over one
  address stream.  LRU configurations sharing a ``(line shift, set
  count)`` geometry share one grouped stack-distance pass; per-config
  miss counts then cost one ``searchsorted`` each, because a cold LRU
  cache misses exactly on per-set stack distance >= ways.  Randomized
  policies (NMRU/RND) consume per-config RNG streams and fall back to
  :class:`repro.spmv.cache.SetAssociativeCache` unchanged.
* :func:`stack_distances_many` — stack distances for many short streams
  in one vectorized pass.  Streams are compacted to disjoint dense block
  id ranges and concatenated: no same-block window can cross a stream
  boundary, and distances depend only on the equality pattern, so the
  sliced-out results are bit-identical to per-stream calls while the
  O(M log^2 M) kernel's per-call setup is paid once per chunk.

The batched analytic miss model lives with the model, in
:mod:`repro.uarch.cachemodel`.  ``tests/test_kernels_batched.py`` checks
every kernel against per-stream and per-configuration references.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.profiling.reuse import (
    COLD_DISTANCE,
    _block_ids,
    stack_distances_from_blocks,
)

#: Target chunk size (total accesses) for stream concatenation.  Large
#: enough to amortize per-call setup, small enough to keep the
#: O(M log^2 M) log factor and working set in check.
MAX_BATCH = 1 << 17

#: Streams at least this long bypass concatenation and run one direct
#: per-stream pass.  Batching pays an extra dense-compaction sort per
#: stream to share the kernel's fixed setup; on long streams the setup
#: is already amortized and the extra sort makes batching a net loss
#: (measured crossover between ~400 and ~1500 accesses), so the batched
#: entry point is never slower than the per-stream loop in either
#: regime.
DIRECT_MIN = 1 << 10


def _lru_geometry(size_bytes: int, line_bytes: int, ways: int) -> Tuple[int, int]:
    """(line shift, set count) with :class:`SetAssociativeCache`'s checks."""
    if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
        raise ValueError("cache geometry must be positive")
    n_lines = size_bytes // line_bytes
    if n_lines * line_bytes != size_bytes:
        raise ValueError("size must be a multiple of the line size")
    n_sets = max(1, n_lines // ways)
    if n_sets * ways * line_bytes != size_bytes:
        raise ValueError("size must be a multiple of line_bytes * ways")
    return line_bytes.bit_length() - 1, n_sets


def simulate_caches(
    addresses: np.ndarray,
    specs: Sequence[Tuple[int, int, int, str]],
    seed: int = 0,
) -> np.ndarray:
    """Miss counts of many cold caches over one address stream.

    Parameters
    ----------
    addresses:
        Byte addresses in program order (one shared trace).
    specs:
        One ``(size_bytes, line_bytes, ways, policy)`` tuple per
        configuration — the struct-of-arrays axis.
    seed:
        Seed for the randomized policies; each non-LRU config gets a
        fresh ``default_rng(seed)`` exactly as
        :func:`repro.spmv.machine.run_trace` constructs its cache.

    Returns
    -------
    ``int64`` array of per-config miss counts, bit-identical to
    ``SetAssociativeCache(*spec, seed).simulate(addresses)`` per config.
    """
    addrs = np.asarray(addresses, dtype=np.int64)
    m = len(addrs)
    out = np.zeros(len(specs), dtype=np.int64)
    with obs.span("kernel.cache_sim_batch"):
        obs.counter("kernel.batched_pairs").inc(len(specs))
        obs.counter("kernel.batched_accesses").inc(len(specs) * m)
        groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        fallback: List[Tuple[int, Tuple[int, int, int, str]]] = []
        for idx, spec in enumerate(specs):
            size_bytes, line_bytes, ways, policy = spec
            _lru_geometry(size_bytes, line_bytes, ways)  # validate eagerly
            if policy == "LRU":
                shift, n_sets = _lru_geometry(size_bytes, line_bytes, ways)
                groups.setdefault((shift, n_sets), []).append((idx, ways))
            else:
                fallback.append((idx, spec))
        if m:
            positions = np.arange(m, dtype=np.int64)
            for (shift, n_sets), members in groups.items():
                lines = addrs >> np.int64(shift)
                # Group by set, preserving per-set program order (unique
                # composite keys make the unstable argsort grouping-stable).
                sets = (lines % n_sets).astype(np.int64)
                order = np.argsort(sets * np.int64(m) + positions)
                distances, _ = stack_distances_from_blocks(lines[order])
                distances.sort()
                ways_arr = np.array([w for _, w in members], dtype=np.int64)
                misses = m - np.searchsorted(distances, ways_arr, side="left")
                for (idx, _), n_miss in zip(members, misses):
                    out[idx] = n_miss
        if fallback:
            from repro.spmv.cache import SetAssociativeCache

            for idx, (size_bytes, line_bytes, ways, policy) in fallback:
                cache = SetAssociativeCache(
                    size_bytes, line_bytes, ways, policy, seed
                )
                out[idx] = cache.simulate(addrs)
    return out


def stack_distances_many(streams: Sequence[np.ndarray]) -> List[Tuple[np.ndarray, int]]:
    """Exact stack distances for many block-id streams, batched.

    Returns one ``(distances, n_cold)`` pair per stream, bit-identical to
    ``stack_distances_from_blocks(stream)`` per stream.  Short streams
    are packed greedily (in order) into chunks of at most :data:`MAX_BATCH`
    total accesses; each chunk's streams are compacted to disjoint dense
    block id ranges and concatenated so one vectorized pass serves them
    all.  Streams of at least :data:`DIRECT_MIN` accesses run one direct
    per-stream pass instead — see :data:`DIRECT_MIN`.
    """
    streams = [np.asarray(s, dtype=np.int64) for s in streams]
    results: List[Tuple[np.ndarray, int]] = [None] * len(streams)  # type: ignore

    with obs.span("kernel.stack_distances_batch"):
        obs.counter("kernel.batched_streams").inc(len(streams))
        obs.counter("kernel.batched_stack_accesses").inc(
            sum(len(s) for s in streams)
        )

        def flush(chunk: List[int]) -> None:
            if not chunk:
                return
            if len(chunk) == 1:
                i = chunk[0]
                results[i] = stack_distances_from_blocks(streams[i])
                return
            parts: List[np.ndarray] = []
            bounds = [0]
            base = np.int64(0)
            for i in chunk:
                stream = streams[i]
                if len(stream):
                    uniques, inverse = np.unique(stream, return_inverse=True)
                    parts.append(
                        inverse.reshape(-1).astype(np.int64, copy=False) + base
                    )
                    base += np.int64(len(uniques))
                bounds.append(bounds[-1] + len(stream))
            combined = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            distances, _ = stack_distances_from_blocks(combined)
            for k, i in enumerate(chunk):
                sliced = distances[bounds[k] : bounds[k + 1]].copy()
                results[i] = (sliced, int((sliced == COLD_DISTANCE).sum()))

        chunk: List[int] = []
        chunk_len = 0
        for i, stream in enumerate(streams):
            if len(stream) >= DIRECT_MIN:
                flush(chunk)
                chunk, chunk_len = [], 0
                flush([i])
                continue
            if chunk and chunk_len + len(stream) > MAX_BATCH:
                flush(chunk)
                chunk, chunk_len = [], 0
            chunk.append(i)
            chunk_len += len(stream)
        flush(chunk)
    return results


def stack_distances_many_addresses(
    address_streams: Sequence[np.ndarray],
    block_bytes: int = 64,
) -> List[Tuple[np.ndarray, int]]:
    """:func:`stack_distances_many` on byte-address streams."""
    return stack_distances_many([_block_ids(np.asarray(a), block_bytes) for a in address_streams])
