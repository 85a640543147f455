"""Detailed per-shard statistics consumed by the timing model.

These are the simulator's *richer* view of a shard: full stack-distance
arrays and window-constrained dataflow schedules rather than the thirteen
scalar summaries the regression models see (Table 1).  Keeping the two
views separate is what makes the inference problem real — the model must
generalize from lossy summaries to performance produced by the full
distributions (DESIGN.md §1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from repro.isa.instructions import FU_LATENCY
from repro.isa.trace import Trace
from repro.uarch.config import ROB_LEVELS


@dataclasses.dataclass(frozen=True)
class ShardStats:
    """Everything the interval timing model needs about one shard."""

    name: str
    n: int
    opclass_counts: np.ndarray            # per OpClass
    taken: int
    mispredicts: int
    data_stack: np.ndarray                # sorted LRU stack distances, data, 64B
    inst_stack: np.ndarray                # sorted LRU stack distances, inst, 64B
    n_data_accesses: int
    n_inst_accesses: int
    dataflow_cycles: Dict[int, float]     # ROB window -> dataflow-limited cycles


#: Value assigned to cold (first-touch) stack distances.  It exceeds any
#: feasible cache capacity, so cold accesses miss everywhere.
COLD = np.int64(2**62)


def compute_shard_stats(shard: Trace) -> ShardStats:
    """Measure the timing model's detailed statistics on one shard."""
    return compute_shard_stats_many([shard])[0]


def compute_shard_stats_many(shards: Sequence[Trace]) -> List[ShardStats]:
    """Measure the timing model's detailed statistics on many shards.

    The data and instruction stack-distance passes of all shards run
    through :func:`repro.kernels.batched.stack_distances_many` — one
    vectorized pass per chunk instead of one per stream — and the
    dataflow schedules of all shards and all ROB windows run as one batch
    of lanes in :func:`dataflow_cycles_many`.
    """
    from repro.kernels.batched import stack_distances_many_addresses

    if not shards:
        return []
    for shard in shards:
        if len(shard) == 0:
            raise ValueError("cannot compute statistics for an empty shard")
    mem_addrs = [shard.addr[shard.memory_mask()] for shard in shards]
    stacks = stack_distances_many_addresses(
        [*mem_addrs, *(shard.iaddr for shard in shards)], block_bytes=64
    )
    cycles = dataflow_cycles_many(shards)
    out: List[ShardStats] = []
    for i, shard in enumerate(shards):
        data_stack = stacks[i][0]
        inst_stack = stacks[len(shards) + i][0]
        out.append(
            ShardStats(
                name=shard.name,
                n=len(shard),
                opclass_counts=shard.opclass_counts(),
                taken=int(shard.taken.sum()),
                mispredicts=int(shard.miss.sum()),
                data_stack=np.sort(data_stack),
                inst_stack=np.sort(inst_stack),
                n_data_accesses=len(mem_addrs[i]),
                n_inst_accesses=len(shard),
                dataflow_cycles={
                    rob: float(c) for rob, c in zip(ROB_LEVELS, cycles[i])
                },
            )
        )
    return out


#: Instructions per block of the dataflow schedule.  No ROB window is
#: shorter, so a block's window term reads only blocks already finished.
_BLOCK = min(ROB_LEVELS)
#: Pointer-doubling rounds that resolve any dependence chain in a block.
_ROUNDS = (_BLOCK - 1).bit_length()
#: Instructions per chunk; the schedule buffers hold one chunk plus the
#: look-back rows its windows and dependences can reach.
_CHUNK = 16 * _BLOCK


def dataflow_cycles_many(shards: Sequence[Trace]) -> np.ndarray:
    """Window-constrained dataflow schedule lengths, in cycles.

    Returns an array of shape ``(len(shards), len(ROB_LEVELS))``.  In the
    classic dataflow-limit model instruction *i* completes at

        ``finish[i] = latency(op_i) + max(finish[i - dep_i], retire[i - W])``

    The first term chains true dependences (a distance outside ``1..i``
    means none); the second enforces the reorder buffer with in-order
    retirement: *i* cannot enter the window until the instruction *W*
    slots ahead of it has *retired*, and the retire time is the running
    maximum of finish times.  The schedule length is the last retire time.
    With fully independent instructions this converges to the W/latency
    ILP bound; with tight chains it degenerates to the critical path, and
    the retire (prefix-max) time makes it monotone in the window size.
    Functional-unit contention, fetch width, branch and memory penalties
    are layered on top by :mod:`repro.uarch.pipeline`.

    The recurrence is sequential in *i* but independent across (shard,
    window) lanes, so all lanes advance together, one block of
    :data:`_BLOCK` instructions at a time, in an (instruction, shard,
    window) layout.  Within a block the window term and out-of-block
    dependences read finished rows; in-block dependence chains are
    resolved by pointer doubling, ``finish[i] = max(v[i], a[i] +
    finish[p[i]])`` composed :data:`_ROUNDS` times, with tables that
    depend only on the trace and so are shared by every window.  Doubling
    reassociates the float64 sums and maxima, which is exact because
    :data:`~repro.isa.instructions.FU_LATENCY` holds small integers.
    Rows live in rolling buffers of one chunk plus the look-back the
    windows and dependences reach, so memory is O(chunk x lanes) however
    long the shards are.  Shorter shards are padded with zero-latency,
    dependence-free instructions, which leave their retire time unchanged.
    """
    n_shards = len(shards)
    n_windows = len(ROB_LEVELS)
    length = max(len(shard) for shard in shards)
    # Rows a block can read behind it: the widest window or the longest
    # live dependence, whichever reaches further.
    lookback = max(ROB_LEVELS)
    for shard in shards:
        dep = shard.dep
        live = (dep > 0) & (dep <= np.arange(len(dep)))
        if live.any():
            lookback = max(lookback, int(dep[live].max()))
    rows = lookback + _CHUNK
    zero = rows * n_shards  # flat index of a row that stays all-zero
    finish = np.zeros((zero + 1, n_windows))
    retire = np.zeros((rows, n_shards, n_windows))
    finish3 = finish[:zero].reshape(rows, n_shards, n_windows)
    flat_retire = retire.reshape(-1)
    lanes = np.arange(n_shards)
    # Flat offsets of retire[i - W] for each (block row, shard, window).
    window_offsets = (
        (
            (np.arange(_BLOCK)[:, None, None] - np.asarray(ROB_LEVELS))
            * n_shards
            + lanes[:, None]
        )
        * n_windows
        + np.arange(n_windows)
    ).reshape(-1)
    block_size = _BLOCK * n_shards

    for start in range(0, length, _CHUNK):
        span = -(-min(_CHUNK, length - start) // _BLOCK) * _BLOCK  # whole blocks
        lat = np.zeros((span, n_shards))
        dep = np.zeros((span, n_shards), dtype=np.int64)
        for s, shard in enumerate(shards):
            piece = slice(start, min(start + span, len(shard)))
            count = piece.stop - piece.start
            if count > 0:
                lat[:count, s] = FU_LATENCY[shard.op[piece]]
                dep[:count, s] = shard.dep[piece]
        offset = np.arange(span)[:, None]
        dep[(dep <= 0) | (dep > start + offset)] = 0
        parent = (offset - dep) * n_shards + lanes  # chunk-relative flat row
        in_block = (dep > 0) & (dep <= offset % _BLOCK)
        # Parents before the block are finished rows of the buffer; every
        # other instruction reads the zero row for its dependence term.
        outer = np.where(
            (dep > 0) & ~in_block, parent + lookback * n_shards, zero
        ).reshape(-1)
        lat = lat.reshape(-1)
        # Doubling tables in chunk-relative rows, ``sentinel`` ending each
        # chain; stored in buffer rows, where the zero row ends them.
        sentinel = span * n_shards
        pointers = np.where(in_block, parent, sentinel).reshape(-1)
        adds = lat
        tables = []
        for _ in range(_ROUNDS):
            linked = pointers != sentinel
            if not linked.any():
                break
            tables.append(
                (np.where(linked, pointers + lookback * n_shards, zero), adds)
            )
            adds = adds + np.append(adds, 0.0)[pointers]
            pointers = np.append(pointers, sentinel)[pointers]

        for b in range(span // _BLOCK):
            row = lookback + b * _BLOCK
            lo, hi = b * block_size, (b + 1) * block_size
            block = finish[row * n_shards : row * n_shards + block_size]
            base = finish.take(outer[lo:hi], axis=0)
            window = flat_retire.take(window_offsets + row * n_shards * n_windows)
            np.maximum(base, window.reshape(block_size, n_windows), out=base)
            np.add(base, lat[lo:hi, None], out=block)
            for links, weights in tables:
                chained = finish.take(links[lo:hi], axis=0)
                chained += weights[lo:hi, None]
                np.maximum(block, chained, out=block)
            done = retire[row : row + _BLOCK]
            done[...] = finish3[row : row + _BLOCK]
            np.maximum(done[0], retire[row - 1], out=done[0])
            np.maximum.accumulate(done, axis=0, out=done)

        if start + _CHUNK < length:
            finish3[:lookback] = finish3[span : span + lookback]
            retire[:lookback] = retire[span : span + lookback]
    return retire[lookback + (length - 1 - start)].copy()
