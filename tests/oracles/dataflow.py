"""Scalar oracle for the window-constrained dataflow schedule.

:func:`repro.uarch.shardstats.dataflow_cycles_many` computes the same
schedule for many shards and every ROB window at once; the equivalence
suite in ``tests/test_dataflow_equivalence.py`` requires it to equal this
loop exactly.
"""

from __future__ import annotations

from repro.isa.instructions import FU_LATENCY
from repro.isa.trace import Trace


def dataflow_cycles(shard: Trace, window: int) -> float:
    """Window-constrained dataflow schedule length, in cycles.

    Instruction *i* completes at

        ``finish[i] = latency(op_i) + max(finish[i - dep_i], retire[i - W])``

    where ``retire`` is the running maximum of ``finish`` (in-order
    retirement).  A dependence distance outside ``1..i`` means no
    dependence, and before instruction ``W`` there is no window term.
    The schedule length is ``retire[n - 1]``.
    """
    ops = shard.op
    deps = shard.dep
    n = len(ops)
    if n == 0:
        return 0.0
    lat = FU_LATENCY[ops].tolist()
    dep_list = deps.tolist()
    finish = [0.0] * n
    retire = [0.0] * n  # prefix max of finish
    running = 0.0
    for i in range(n):
        d = dep_list[i]
        t = 0.0
        if 0 < d <= i:
            t = finish[i - d]
        if i >= window:
            tw = retire[i - window]
            if tw > t:
                t = tw
        f = t + lat[i]
        finish[i] = f
        if f > running:
            running = f
        retire[i] = running
    return running
