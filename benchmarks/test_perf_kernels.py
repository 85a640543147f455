"""Micro-benchmarks for the vectorized simulation kernels.

Times the reference (per-access Python loop) implementations against the
numpy fast paths of the cache simulator and the stack-distance kernel,
plus the genetic search's evaluation throughput, and writes the numbers
to ``BENCH_kernels.json`` at the repository root.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_kernels.py -q

``REPRO_BENCH_SMOKE=1`` shrinks the streams ~10x and skips the speedup
assertion, so CI can exercise every code path in seconds; the committed
report should be regenerated without it.

Every benchmark asserts exact miss-count / distance equality between the
reference and fast implementations before timing them, so the report
never quotes a speedup for a divergent kernel.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import GeneticSearch, ProfileDataset, ProfileRecord
from repro.kernels.batched import simulate_caches, stack_distances_many_addresses
from repro.profiling.reuse import stack_distances
from repro.spmv import SetAssociativeCache
from tests.oracles.stack_distance import stack_distances_reference

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_ACCESSES = 10_000 if SMOKE else 100_000
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """Dump whatever ran to ``BENCH_kernels.json`` after the module."""
    yield
    if not RESULTS:
        return
    payload = {
        "smoke": SMOKE,
        "n_accesses": N_ACCESSES,
        "kernels": RESULTS,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report_dir = obs.default_report_dir()
    if report_dir is not None and obs.enabled():
        obs.export_jsonl(report_dir / "metrics_kernels.jsonl", run="kernels")


def _best_seconds(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(name: str, n_ops: int, before_s: float, after_s: float, **extra):
    entry = {
        "n_ops": n_ops,
        "before_ops_per_sec": round(n_ops / before_s, 1),
        "after_ops_per_sec": round(n_ops / after_s, 1),
        "speedup": round(before_s / after_s, 2),
        **extra,
    }
    RESULTS[name] = entry
    return entry


def _time_cache(make_cache, addrs, name: str, **extra):
    """Time reference vs. fast simulation; fresh cache per repetition.

    (A warm cache would see fewer misses on later repetitions, so reusing
    one object across reps silently benchmarks a different workload.)
    """
    ref_misses = make_cache().simulate_reference(addrs)
    fast_misses = make_cache().simulate(addrs)
    assert fast_misses == ref_misses
    before = _best_seconds(lambda: make_cache().simulate_reference(addrs), 2)
    after = _best_seconds(lambda: make_cache().simulate(addrs), 3)
    return _record(name, len(addrs), before, after, misses=ref_misses, **extra)


class TestCacheSimulator:
    def test_fully_associative_speedup(self):
        """The ISSUE acceptance case: identical LRU miss counts and a >=10x
        win on a 100k-access stream (fully associative, random conflicts —
        the geometry where the stack-distance path does all the work)."""
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 4096, size=N_ACCESSES) * 64

        def make():
            return SetAssociativeCache(64 * 1024, 64, 1024, "LRU")

        entry = _time_cache(make, addrs, "cache_sim_fully_assoc_lru",
                            geometry="64KB/64B/1024-way LRU, random stream")
        if not SMOKE:
            assert entry["speedup"] >= 10.0

    def test_low_associativity_random(self):
        """1- and 2-way closed forms on a worst-case random stream (no
        duplicate collapse to exploit) — recorded, not floor-asserted."""
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 20, size=N_ACCESSES) * 64
        for ways in (1, 2):
            _time_cache(
                lambda w=ways: SetAssociativeCache(64 * 1024, 64, w, "LRU"),
                addrs,
                f"cache_sim_{ways}way_random",
                geometry=f"64KB/64B/{ways}-way LRU, random stream",
            )

    def test_mid_associativity_runs(self):
        """8-way on a run-heavy stream, the shape real SpMV traces have:
        the collapse-first path wins; random 8-way streams would take the
        probe's reference fallback instead (speedup ~1, never a cliff)."""
        rng = np.random.default_rng(2)
        base = rng.integers(0, 1 << 20, size=N_ACCESSES // 8)
        addrs = np.repeat(base, 8) * 64
        _time_cache(
            lambda: SetAssociativeCache(64 * 1024, 64, 8, "LRU"),
            addrs,
            "cache_sim_8way_runs",
            geometry="64KB/64B/8-way LRU, runs-of-8 stream",
        )


class TestStackDistances:
    def test_vectorized_speedup(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 4096, size=N_ACCESSES) * 64
        ref_d, ref_cold = stack_distances_reference(addrs)
        fast_d, fast_cold = stack_distances(addrs)
        assert fast_cold == ref_cold
        assert np.array_equal(fast_d, ref_d)
        before = _best_seconds(lambda: stack_distances_reference(addrs), 2)
        after = _best_seconds(lambda: stack_distances(addrs), 3)
        entry = _record("stack_distances_random", len(addrs), before, after,
                        stream="uniform over 4096 blocks")
        if not SMOKE:
            assert entry["speedup"] >= 5.0

    def test_vectorized_speedup_runs(self):
        """Run-heavy streams collapse before the O(M log M) pass, so the
        speedup is far larger than on the random stream."""
        rng = np.random.default_rng(4)
        base = rng.integers(0, 4096, size=N_ACCESSES // 8)
        addrs = np.repeat(base, 8) * 64
        ref_d, ref_cold = stack_distances_reference(addrs)
        fast_d, fast_cold = stack_distances(addrs)
        assert fast_cold == ref_cold
        assert np.array_equal(fast_d, ref_d)
        before = _best_seconds(lambda: stack_distances_reference(addrs), 2)
        after = _best_seconds(lambda: stack_distances(addrs), 3)
        _record("stack_distances_runs", len(addrs), before, after,
                stream="runs of 8 over 4096 blocks")


class TestBatchedEngine:
    """The struct-of-arrays batched engine vs. the per-pair loop."""

    def test_batched_lru_pairs_speedup(self):
        """ISSUE acceptance: >=5x pairs/sec over the per-pair loop at a
        batch of >=1024 LRU configs on one trace, with bit-identical miss
        counts.  (Randomized policies consume per-config lazy RNG draws
        and fall back to the per-pair simulator by design, so the
        headline batch is LRU — the policy the pipeline sweeps.)"""
        n_accesses = 4_000 if SMOKE else 20_000
        n_configs = 256 if SMOKE else 1024
        rng = np.random.default_rng(6)
        addrs = rng.integers(0, 2048, size=n_accesses) * 64
        specs = [
            (int(line * ways * sets), int(line), int(ways), "LRU")
            for line, ways, sets in zip(
                rng.choice([32, 64], size=n_configs),
                rng.choice([1, 2, 4, 8], size=n_configs),
                rng.choice([16, 32, 64, 128], size=n_configs),
            )
        ]

        def per_pair():
            return [SetAssociativeCache(*s).simulate(addrs) for s in specs]

        def batched():
            return simulate_caches(addrs, specs)

        assert list(batched()) == per_pair()
        before = _best_seconds(per_pair, 1 if SMOKE else 2)
        after = _best_seconds(batched, 2 if SMOKE else 3)
        entry = _record(
            "batched_engine_lru", n_configs, before, after,
            n_configs=n_configs, accesses_per_config=n_accesses,
            geometry="random 32-64B lines, 1-8 ways, 16-128 sets, LRU",
        )
        if not SMOKE:
            assert n_configs >= 1024
            assert entry["speedup"] >= 5.0

    def test_batched_stack_distance_streams(self):
        """Many short shard streams through one concatenated pass —
        identical distance histograms, recorded throughput.  The shape
        (hundreds of sub-DIRECT_MIN streams) mirrors shard-profile
        workloads, where the per-call setup the concatenation amortizes
        dominates; streams past DIRECT_MIN dispatch directly and tie the
        loop by construction."""
        n_streams = 128 if SMOKE else 512
        length = max(32, N_ACCESSES // n_streams)
        rng = np.random.default_rng(7)
        streams = [
            rng.integers(0, 4096, size=length) * 64 for _ in range(n_streams)
        ]
        batched = stack_distances_many_addresses(streams, block_bytes=64)
        for addrs, (distances, n_cold) in zip(streams, batched):
            ref_d, ref_cold = stack_distances(addrs)
            assert n_cold == ref_cold
            assert np.array_equal(distances, ref_d)
        before = _best_seconds(
            lambda: [stack_distances(addrs) for addrs in streams], 2
        )
        after = _best_seconds(
            lambda: stack_distances_many_addresses(streams, block_bytes=64), 3
        )
        _record(
            "batched_stack_distances", n_streams * length, before, after,
            n_streams=n_streams, stream_length=length,
        )


def _synthetic_dataset(n_per_app: int) -> ProfileDataset:
    rng = np.random.default_rng(0)
    ds = ProfileDataset(("x1", "x2"), ("y1", "y2"))
    for k, app in enumerate(("alpha", "beta", "gamma")):
        for _ in range(n_per_app):
            x = rng.normal(loc=k, scale=1.0, size=2)
            y = rng.uniform(0.5, 2.0, size=2)
            z = 2.0 + 0.5 * x[0] - 0.3 * x[1] + 0.8 * y[0] + 0.4 * x[0] * y[0]
            ds.add(ProfileRecord(app, x, y, float(np.exp(z / 4.0))))
    return ds


class TestGeneticSearch:
    def test_generation_throughput(self):
        """Candidate evaluations per second for one serial GA run.

        ``run(dataset, G)`` scores G populations, so the op count is
        ``population_size * generations``.
        """
        ds = _synthetic_dataset(10 if SMOKE else 30)
        population, generations = (8, 2) if SMOKE else (16, 3)

        def run():
            GeneticSearch(
                population_size=population, seed=0, n_workers=1
            ).run(ds, generations=generations)

        seconds = _best_seconds(run, 1 if SMOKE else 2)
        n_evals = population * generations
        RESULTS["ga_evaluation"] = {
            "n_ops": n_evals,
            "evals_per_sec": round(n_evals / seconds, 2),
            "generations_per_sec": round(generations / seconds, 3),
            "population_size": population,
            "n_records": len(ds),
        }
        assert seconds > 0
