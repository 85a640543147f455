"""The columnar mmap store: round-trips, sharing, swizzling, crash safety.

The store's contract (DESIGN.md §9) is write-once columns published
atomically, read back as shared read-only mappings, plus a pickler that
turns store-backed views into tiny column references.  The chaos tests
drive the ``store.flush`` / ``store.open`` fault sites: a kill between
the temp-file fsync and the rename must never leave a torn column
visible, and a torn file planted on disk is quarantined, not served.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.store import (
    MissingColumn,
    Store,
    StoreError,
    dump_artifact,
    freeze,
    load_artifact,
    thaw,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def store(tmp_path):
    return Store(tmp_path / "store")


class TestPutGet:
    def test_round_trip_is_exact_and_mapped(self, store):
        array = np.arange(10_000, dtype=np.int64)
        store.put("traces/a", array)
        out = store.get("traces/a")
        assert isinstance(out, np.memmap)
        assert not out.flags.writeable
        assert np.array_equal(out, array)

    def test_structured_dtype_round_trip(self, store):
        dtype = np.dtype([("op", "i1"), ("addr", "i8")])
        array = np.zeros(100, dtype=dtype)
        array["addr"] = np.arange(100)
        store.put("traces/structured", array)
        assert np.array_equal(store.get("traces/structured"), array)

    def test_write_once_keeps_first_column(self, store):
        store.put("col", np.zeros(10))
        store.put("col", np.ones(10))  # no-op: key exists
        assert np.array_equal(store.get("col"), np.zeros(10))
        store.put("col", np.ones(10), overwrite=True)
        assert np.array_equal(store.get("col"), np.ones(10))

    def test_mapping_cached_per_process(self, store):
        store.put("col", np.arange(5))
        assert store.get("col") is store.get("col")

    def test_missing_column_raises(self, store):
        with pytest.raises(MissingColumn):
            store.get("no/such/column")

    def test_object_dtype_rejected(self, store):
        with pytest.raises(StoreError):
            store.put("bad", np.array([object()]))

    @pytest.mark.parametrize("key", ["", "/abs", "../up", "a/../b", "a//b", " a"])
    def test_invalid_keys_rejected(self, store, key):
        with pytest.raises(StoreError):
            store.path_for(key)

    def test_handle_pickles_small_and_reopens(self, store):
        array = np.arange(1000)
        handle = store.put("col", array)
        blob = pickle.dumps(handle)
        assert len(blob) < 500
        revived = pickle.loads(blob)
        assert revived == handle
        assert np.array_equal(revived.array(), array)
        assert isinstance(revived.array(), np.memmap)


class TestSwizzling:
    """freeze/thaw: store-backed views cross pickling as column refs."""

    def test_column_view_round_trips_as_reference(self, store):
        array = np.arange(50_000, dtype=np.int64)
        store.put("col", array)
        column = store.get("col")
        view = column[10_000:20_000]
        frozen = freeze(("tag", view))
        assert len(frozen) < 2_000  # reference, not 80KB of data
        tag, thawed = thaw(frozen)
        assert tag == "tag"
        assert isinstance(thawed, np.memmap)
        assert np.array_equal(thawed, array[10_000:20_000])

    def test_non_store_arrays_pickle_by_value(self, store):
        array = np.arange(100)
        out = thaw(freeze(array))
        assert np.array_equal(out, array)
        assert not isinstance(out, np.memmap)

    @given(
        seed=st.integers(0, 2**31 - 1),
        a=st.integers(0, 900),
        b=st.integers(0, 900),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_contiguous_slice_swizzles_exactly(self, tmp_path_factory, seed, a, b):
        store = Store(tmp_path_factory.getbasetemp() / "swizzle-prop")
        rng = np.random.default_rng(seed)
        array = rng.integers(0, 1 << 40, size=1000)
        store.put(f"cols/{seed}", array)
        column = store.get(f"cols/{seed}")
        lo, hi = min(a, b), max(a, b)
        view = column[lo:hi]
        assert np.array_equal(thaw(freeze(view)), array[lo:hi])

    def test_structured_shard_views_swizzle(self, store):
        dtype = np.dtype([("op", "i1"), ("addr", "i8")])
        array = np.zeros(1000, dtype=dtype)
        array["addr"] = np.arange(1000)
        store.put("trace", array)
        column = store.get("trace")
        shards = [column[i * 100 : (i + 1) * 100] for i in range(10)]
        thawed = thaw(freeze(shards))
        for shard, start in zip(thawed, range(0, 1000, 100)):
            assert isinstance(shard, np.memmap)
            assert np.array_equal(shard["addr"], np.arange(start, start + 100))


class TestArtifacts:
    def test_large_arrays_spill_to_store(self, store, tmp_path):
        payload = {"big": np.arange(100_000), "meta": "hello", "small": np.arange(4)}
        path = tmp_path / "artifact.pkl"
        dump_artifact(payload, path, store=store)
        assert path.stat().st_size < 10_000  # big array lives in the store
        out = load_artifact(path)
        assert out["meta"] == "hello"
        assert np.array_equal(out["big"], payload["big"])
        assert np.array_equal(out["small"], payload["small"])

    def test_plain_pickle_still_loads(self, tmp_path):
        path = tmp_path / "legacy.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"x": np.arange(10)}, fh)
        assert np.array_equal(load_artifact(path)["x"], np.arange(10))


class TestCrashSafety:
    def _put_in_subprocess(self, root: Path, fault_spec: str):
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.store import Store
            Store().put("col/crash", np.arange(5000, dtype=np.int64))
            """
        )
        env = dict(
            os.environ,
            REPRO_STORE_DIR=str(root),
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        if fault_spec:
            env["REPRO_FAULTS"] = fault_spec
        else:
            env.pop("REPRO_FAULTS", None)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True
        )

    def test_kill_at_flush_leaves_no_visible_column(self, tmp_path):
        """Killed after fsync but before rename: the column must not
        exist, and a retried put publishes it cleanly."""
        root = tmp_path / "store"
        proc = self._put_in_subprocess(root, "0:store.flush=kill@1")
        assert proc.returncode != 0
        store = Store(root)
        with pytest.raises(MissingColumn):
            store.get("col/crash")
        proc = self._put_in_subprocess(root, "")
        assert proc.returncode == 0, proc.stderr.decode()
        assert np.array_equal(
            Store(root).get("col/crash"), np.arange(5000, dtype=np.int64)
        )

    def test_torn_column_quarantined_and_rebuildable(self, store):
        store.put("col", np.arange(1000))
        path = store.path_for("col")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn mid-write
        with pytest.raises(MissingColumn):
            store.get("col")
        assert not path.exists()  # moved aside, not served
        assert list(path.parent.glob("col.npy.torn-*"))
        store.put("col", np.arange(1000))
        assert np.array_equal(store.get("col"), np.arange(1000))

    def test_open_fault_surfaces_as_store_error(self, store):
        store.put("col", np.arange(10))
        plan = faults.FaultPlan.parse("store.open=raise@1", seed=3)
        with faults.armed(plan), pytest.raises(Exception):
            store.get("col")
        assert np.array_equal(store.get("col"), np.arange(10))
