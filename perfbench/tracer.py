"""In-memory spans and counts recorded around calls into the program's layers.

The benchmark times the program from the outside: every call it makes into
a layer's public entry point is wrapped in :meth:`Tracer.span`, which keeps
``(name, start, end, parent)`` in memory.  :func:`ledger` turns the spans
into per-layer inclusive time, self time, share of wall and call counts,
with the time no span covers as its own ``unattributed`` row.

An untraced tracer hands out a shared no-op context, so the untraced runs
that give the end-to-end numbers pay no per-span cost.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class SetupProbeDone(Exception):
    """Raised at the first layer call of a set-up probe (see ``probe``)."""


class Tracer:
    """Span recorder for one process; spans nest through an explicit stack.

    ``first_call`` is the epoch time of the first layer call, which ends
    set-up.  With ``probe`` the tracer raises :class:`SetupProbeDone` right
    there, so a worker can measure set-up alone.
    """

    def __init__(self, enabled: bool, probe: bool = False):
        self.enabled = enabled
        self.probe = probe
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self.first_call: Optional[float] = None

    def span(self, name: str):
        """Context manager around one layer call (no-op when disabled)."""
        if self.first_call is None:
            self.first_call = time.time()
            if self.probe:
                raise SetupProbeDone(name)
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


def busy_seconds(spans: List[list]) -> Dict[str, float]:
    """Inclusive seconds per span name (a name is never nested in itself)."""
    totals: Dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        totals[name] += end - start
    return dict(totals)


def ledger(spans: List[list], wall_s: float) -> List[dict]:
    """Per-name rows: inclusive, self, % of wall, calls; plus unattributed.

    Self time is a span's duration minus the part its direct children
    cover.  ``unattributed`` is wall time outside every top-level span.
    """
    rows: Dict[str, dict] = {}
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    top_level = 0.0
    inclusive = busy_seconds(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        row = rows.setdefault(name, {"layer": name, "self_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - child_time[index]
        row["calls"] += 1
        if parent < 0:
            top_level += end - start
    out = []
    for name, row in rows.items():
        row["inclusive_s"] = inclusive[name]
        row["pct_wall"] = 100.0 * inclusive[name] / wall_s if wall_s > 0 else 0.0
        out.append(row)
    out.sort(key=lambda r: -r["self_s"])
    unattributed = max(0.0, wall_s - top_level)
    out.append(
        {
            "layer": "unattributed",
            "self_s": unattributed,
            "inclusive_s": unattributed,
            "pct_wall": 100.0 * unattributed / wall_s if wall_s > 0 else 0.0,
            "calls": 0,
        }
    )
    return out


def format_ledger(title: str, rows: List[dict]) -> str:
    lines = [
        title,
        f"  {'layer':<28s} {'inclusive_s':>11s} {'self_s':>9s} "
        f"{'% wall':>7s} {'calls':>7s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['layer']:<28s} {row['inclusive_s']:>11.4f} "
            f"{row['self_s']:>9.4f} {row['pct_wall']:>6.1f}% {row['calls']:>7d}"
        )
    return "\n".join(lines)
