"""Synthetic dynamic-trace generation from behavior specifications.

The generator turns the statistical knobs of a :class:`PhaseSpec` into a
concrete committed instruction stream:

* opcode classes are sampled i.i.d. from the phase mix;
* branch outcomes are Bernoulli draws at the phase's taken/mispredict rates;
* data addresses follow an **LRU-stack model**: each access either continues
  a unit-stride streaming run, touches a brand-new block, or re-touches the
  block at a lognormally distributed stack depth.  This gives direct control
  over the re-use distance distribution the paper profiles (Table 1 x8,
  Figure 3) while producing a real address stream the cache models can
  consume;
* instruction addresses walk a hot loop of configurable size with occasional
  far jumps, controlling instruction-cache locality (x9);
* dependence distances are geometric draws, controlling ILP (x10..x13).

State (LRU stack, program counter, block allocator) persists across phases
of one application so the address space is coherent end-to-end.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, Optional

import numpy as np

from repro.isa.instructions import OpClass, empty_trace
from repro.isa.trace import Trace
from repro.workloads.behaviors import BehaviorSpec, PhaseSpec

BLOCK_BYTES = 64
WORD_BYTES = 8
WORDS_PER_BLOCK = BLOCK_BYTES // WORD_BYTES
INSTRUCTION_BYTES = 4

#: Bound on the LRU stack the generator maintains.  Deeper references are
#: treated as touches to new blocks (effectively infinite re-use distance).
MAX_STACK = 1 << 16

#: Mean length (accesses) of a unit-stride streaming run once started.
STREAM_RUN_MEAN = 12

#: Number of distant code regions far jumps may target.
FAR_REGIONS = 16


class _AddressState:
    """Mutable data-address state shared across the phases of one trace.

    ``stack`` is the LRU stack, most recent block first; it may hold a
    block more than once (a streaming run can cross into a block id that
    :meth:`new_block` hands out later).  ``counts`` mirrors it exactly —
    ``counts == collections.Counter(stack)`` between accesses — so a
    block that is absent is known to be absent without a scan.
    """

    def __init__(self):
        self.stack: Deque[int] = collections.deque()
        self.counts: Dict[int, int] = {}
        self.next_block = 1  # block 0 reserved so addr 0 means "no access"
        self.stream_left = 0
        self.last_addr = 0

    def new_block(self) -> int:
        block = self.next_block
        self.next_block += 1
        return block


class TraceGenerator:
    """Generates reproducible traces for a :class:`BehaviorSpec`.

    Parameters
    ----------
    spec:
        The application behavior description.
    seed:
        Seed for the dedicated random generator.  The same (spec, seed,
        length) always yields the identical trace.
    """

    def __init__(self, spec: BehaviorSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed

    def generate(self, n_instructions: int, shard_length: Optional[int] = None) -> Trace:
        """Generate a trace of ``n_instructions``.

        ``shard_length`` sets the phase-segment granularity (segments are
        ``phase_run`` shards long); it defaults to 1/16 of the trace.
        """
        if n_instructions <= 0:
            raise ValueError(f"n_instructions must be positive, got {n_instructions}")
        if shard_length is None:
            shard_length = max(1, n_instructions // 16)
        segment_len = shard_length * self.spec.phase_run
        n_segments = max(1, -(-n_instructions // segment_len))
        schedule = self.spec.phase_schedule(n_segments)

        rng = np.random.default_rng(self.seed)
        addr_state = _AddressState()
        pc_state = {"pc": 0, "region": 0}

        pieces = []
        remaining = n_instructions
        for phase_index in schedule:
            if remaining <= 0:
                break
            length = min(segment_len, remaining)
            phase = self.spec.phases[phase_index][0]
            pieces.append(
                _generate_segment(phase, length, rng, addr_state, pc_state)
            )
            remaining -= length
        data = np.concatenate(pieces)
        return Trace(data[:n_instructions], self.spec.name)


def generate_trace(
    spec: BehaviorSpec,
    n_instructions: int,
    seed: int = 0,
    shard_length: Optional[int] = None,
) -> Trace:
    """Convenience wrapper: ``TraceGenerator(spec, seed).generate(...)``."""
    return TraceGenerator(spec, seed).generate(n_instructions, shard_length)


def _generate_segment(
    phase: PhaseSpec,
    n: int,
    rng: np.random.Generator,
    addr_state: _AddressState,
    pc_state: dict,
) -> np.ndarray:
    """Generate one phase segment of ``n`` instructions."""
    out = empty_trace(n)

    ops = rng.choice(len(phase.mix_vector()), size=n, p=phase.mix_vector())
    out["op"] = ops.astype(np.int8)

    control = ops == int(OpClass.CONTROL)
    n_control = int(control.sum())
    out["taken"][control] = rng.random(n_control) < phase.taken_rate
    out["miss"][control] = rng.random(n_control) < phase.mispredict_rate

    dep = rng.geometric(1.0 / phase.dep_mean, size=n).astype(np.int32)
    dep[rng.random(n) < phase.indep_rate] = 0
    if phase.recurrence_interval > 0:
        # A loop-carried chain: every m-th instruction depends on the
        # previous chain member, serializing across the whole phase.
        m = phase.recurrence_interval
        dep[m::m] = m
    out["dep"] = dep

    mem_idx = np.flatnonzero(ops == int(OpClass.MEMORY))
    if len(mem_idx):
        out["addr"][mem_idx] = _generate_data_addresses(
            phase, len(mem_idx), rng, addr_state
        )

    out["iaddr"] = _generate_instruction_addresses(
        phase, out["op"], out["taken"], rng, pc_state
    )
    return out


def _generate_data_addresses(
    phase: PhaseSpec,
    n_accesses: int,
    rng: np.random.Generator,
    state: _AddressState,
) -> np.ndarray:
    """LRU-stack data-address model (see module docstring).

    The stack is a deque, so pushing a block to the front and dropping the
    deepest block at :data:`MAX_STACK` are O(1); a move to the front is
    skipped when the block is already there.
    """
    addrs = np.empty(n_accesses, dtype=np.int64)
    # Pre-draw all randomness in bulk; the loop only consumes it.
    u_kind = rng.random(n_accesses)
    depths = rng.lognormal(phase.reuse_mu, phase.reuse_sigma, size=n_accesses)
    offsets = rng.integers(0, WORDS_PER_BLOCK, size=n_accesses)
    run_lengths = rng.geometric(1.0 / STREAM_RUN_MEAN, size=n_accesses)
    # What an access outside a streaming run does: 0 starts a run, 1 takes
    # a fresh block, 2 re-touches the block at its drawn stack depth.
    kinds = (
        (u_kind >= phase.stream_rate).astype(np.int8)
        + (u_kind >= phase.stream_rate + phase.new_block_rate)
    ).tolist()
    # Depths past MAX_STACK are clamped by the stack length anyway; capping
    # first keeps huge lognormal draws inside int64.
    depths = np.minimum(depths, MAX_STACK).astype(np.int64).tolist()
    offsets = (offsets * WORD_BYTES).tolist()
    run_lengths = run_lengths.tolist()

    stack = state.stack
    counts = state.counts
    stream_left = state.stream_left
    addr = state.last_addr

    for i in range(n_accesses):
        if stream_left > 0:
            # Continue a unit-stride run.
            stream_left -= 1
            addr += WORD_BYTES
            block = addr // BLOCK_BYTES
            if stack[0] != block:
                if counts.get(block, 0):
                    stack.remove(block)
                    stack.appendleft(block)
                else:
                    _push(stack, counts, block)
        else:
            kind = kinds[i]
            if kind == 0:
                # Start a new streaming run from a fresh block.
                stream_left = run_lengths[i]
                block = state.new_block()
                addr = block * BLOCK_BYTES
                _push(stack, counts, block)
            elif kind == 1 or not stack:
                block = state.new_block()
                addr = block * BLOCK_BYTES + offsets[i]
                _push(stack, counts, block)
            else:
                depth = min(depths[i], len(stack) - 1)
                block = stack[depth]
                addr = block * BLOCK_BYTES + offsets[i]
                if depth:
                    del stack[depth]
                    stack.appendleft(block)
        addrs[i] = addr
    state.stream_left = stream_left
    state.last_addr = addr
    return addrs


def _push(stack: Deque[int], counts: Dict[int, int], block: int) -> None:
    """Push one more occurrence of ``block``; a full stack drops its deepest."""
    counts[block] = counts.get(block, 0) + 1
    if len(stack) == MAX_STACK:
        deepest = stack.pop()
        left = counts[deepest] - 1
        if left:
            counts[deepest] = left
        else:
            del counts[deepest]
    stack.appendleft(block)


def _generate_instruction_addresses(
    phase: PhaseSpec,
    ops: np.ndarray,
    taken: np.ndarray,
    rng: np.random.Generator,
    state: dict,
) -> np.ndarray:
    """Hot-loop instruction-address model.

    The program counter advances 4 bytes per instruction.  At a taken
    branch it either loops back to the start of the current region (the
    common case) or far-jumps to one of :data:`FAR_REGIONS` distant
    regions.  Region size is ``code_blocks`` 64-byte blocks, so small
    ``code_blocks`` yields tight instruction locality.

    A *run* is the stretch of instructions up to and including a taken
    branch (plus the tail after the last one); every address is its run's
    region base plus its pc offset within the run, filled in one pass.
    """
    n = len(ops)
    region_bytes = phase.code_blocks * BLOCK_BYTES
    region_spacing = 1 << 20  # regions are 1 MiB apart: never alias

    is_branch = (ops == int(OpClass.CONTROL)) & taken
    branch_positions = np.flatnonzero(is_branch)
    n_branches = len(branch_positions)
    far = rng.random(n_branches) < phase.far_jump_rate
    far_targets = rng.integers(0, FAR_REGIONS, size=n_branches)
    returns_home = rng.random(n_branches) < 0.8

    # Region after each taken branch: a far jump sets it to its target
    # (region 0 is the main loop), a return-home draw sends it to region 0,
    # and any other branch keeps it — so it is the latest value set.
    latest = np.maximum.accumulate(
        np.where(far | returns_home, np.arange(n_branches), -1)
    )
    after = np.where(
        latest >= 0, np.where(far, 1 + far_targets, 0)[latest], state["region"]
    )
    run_region = np.concatenate(([state["region"]], after))
    # Every taken branch lands at the start of its target region.
    run_pc = np.zeros(n_branches + 1, dtype=np.int64)
    run_pc[0] = state["pc"]
    run_start = np.concatenate(([0], branch_positions + 1))

    run = np.cumsum(is_branch) - is_branch
    offs = (
        run_pc[run] + (np.arange(n) - run_start[run]) * INSTRUCTION_BYTES
    ) % region_bytes
    iaddr = run_region[run] * region_spacing + offs

    tail = n - run_start[-1]
    state["pc"] = int((run_pc[-1] + tail * INSTRUCTION_BYTES) % region_bytes)
    state["region"] = int(run_region[-1])
    return iaddr
