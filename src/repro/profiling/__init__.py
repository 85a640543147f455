"""Microarchitecture-independent software profiling.

This package implements the paper's profiling layer (§2.1-§2.2, Table 1):

* :mod:`repro.profiling.reuse` — exact re-use distances (instructions
  between consecutive accesses to the same block) and exact LRU stack
  distances (distinct blocks between those accesses), for arbitrary block
  sizes;
* :mod:`repro.profiling.characteristics` — the thirteen portable software
  characteristics of Table 1, measured per shard;
* :mod:`repro.profiling.shards` — shard-level profiling of whole
  applications.

All measures are computed on the committed (architectural) instruction
stream and are therefore independent of any out-of-order microarchitecture,
which is what embedding counters in Gem5's commit stage achieves in the
paper (§4.1).
"""

from repro.profiling.reuse import (
    reuse_distances,
    mean_reuse_distance,
    stack_distances,
    reuse_distance_sums,
)
from repro.profiling.characteristics import (
    N_CHARACTERISTICS,
    SOFTWARE_VARIABLE_NAMES,
    SOFTWARE_VARIABLE_LABELS,
    profile_shard,
)
from repro.profiling.shards import ShardProfile, profile_application
from repro.profiling.extended import (
    EXTENDED_VARIABLE_NAMES,
    EXTENDED_VARIABLE_LABELS,
    profile_shard_extended,
)

__all__ = [
    "reuse_distances",
    "mean_reuse_distance",
    "stack_distances",
    "reuse_distance_sums",
    "N_CHARACTERISTICS",
    "SOFTWARE_VARIABLE_NAMES",
    "SOFTWARE_VARIABLE_LABELS",
    "profile_shard",
    "ShardProfile",
    "profile_application",
    "EXTENDED_VARIABLE_NAMES",
    "EXTENDED_VARIABLE_LABELS",
    "profile_shard_extended",
]
