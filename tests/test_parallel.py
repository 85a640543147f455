"""Unit tests for the deterministic parallelism helpers."""

import multiprocessing

import pytest

from repro import obs
from repro.parallel import (
    WORKERS_ENV,
    chunk_seeds,
    parallel_map,
    parallel_starmap,
    resolve_workers,
)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _counted_square(x):
    obs.counter("pooled.jobs").inc()
    obs.histogram("pooled.values", (1, 4, 16)).observe(x)
    return x * x


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve_workers() == multiprocessing.cpu_count()
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == multiprocessing.cpu_count()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(2) == 2

    def test_minimum_one(self):
        assert resolve_workers(-4) == 1

    def test_junk_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers()


class TestChunkSeeds:
    def test_deterministic(self):
        assert chunk_seeds(42, 8) == chunk_seeds(42, 8)

    def test_distinct_within_and_across_bases(self):
        seeds = chunk_seeds(0, 16)
        assert len(set(seeds)) == 16
        assert set(seeds).isdisjoint(chunk_seeds(1, 16))

    def test_prefix_stable(self):
        """Growing n extends the seed list without changing the prefix."""
        assert chunk_seeds(7, 12)[:4] == chunk_seeds(7, 4)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_pool_preserves_order(self):
        items = list(range(40))
        assert parallel_map(_square, items, n_workers=2) == [
            x * x for x in items
        ]

    def test_empty(self):
        assert parallel_map(_square, [], n_workers=2) == []

    def test_single_item_skips_pool(self):
        # A lambda is unpicklable, so this passes only on the serial path.
        assert parallel_map(lambda x: x + 1, [5], n_workers=4) == [6]

    def test_starmap_matches_serial(self):
        jobs = [(i, i + 1) for i in range(20)]
        serial = parallel_starmap(_add, jobs, n_workers=1)
        pooled = parallel_starmap(_add, jobs, n_workers=2)
        assert serial == pooled == [a + b for a, b in jobs]


class TestPooledMetrics:
    def test_pooled_map_merges_worker_metrics_like_serial(self):
        """Every pooled map ships its jobs' metrics back; no flag needed."""
        items = list(range(10))
        obs.reset()
        serial = parallel_map(_counted_square, items, n_workers=1)
        serial_snapshot = obs.snapshot()

        obs.reset()
        pooled = parallel_map(_counted_square, items, n_workers=3)
        assert pooled == serial
        assert obs.snapshot() == serial_snapshot
