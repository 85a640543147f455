"""Chaos suite for the streaming subsystem's three fault sites.

``stream.checkpoint`` — a process killed at the checkpoint site (or
mid-flush inside the store write) must leave no torn state: recovery
restores the last published checkpoint exactly.  ``stream.ingest`` — an
ingest fault on the serving path degrades to a 500 with ``last_error``
recorded; the server keeps serving and the next batch succeeds.
``stream.respec`` — a failed background re-specification keeps the
last-good model in the slot and the registry; the drift latch re-triggers
and the retry completes.  ``stream.retune`` — a killed or failed
post-respec re-tune keeps the last-good (r, c, cache) tuning deployed
while the re-specification itself still lands.

Runs in the CI chaos matrix alongside ``test_serve_chaos.py`` with
``REPRO_CHAOS_SEED`` selecting the plan seed.
"""

import asyncio
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import faults, obs
from repro.faults import FaultPlan
from repro.store import Store
from repro.stream import DriftConfig, GramAccumulator
from repro.serve.bootstrap import _app_records, build_service, demo_dataset

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
REPO_ROOT = Path(__file__).resolve().parents[1]

TRIGGER_HAPPY = DriftConfig(
    window=8, min_fill=1, trip_ratio=1.05, clear_ratio=1.0, patience=1
)


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _profiles(n, seed):
    return [
        {"x": p.x.tolist(), "y": p.y.tolist(), "z": p.z}
        for p in _app_records("app0", n, np.random.default_rng(seed))
    ]


# -- stream.checkpoint: kill mid-checkpoint, recover untorn ----------------------------


class TestCheckpointCrashSafety:
    CODE = textwrap.dedent(
        """
        import numpy as np
        from types import SimpleNamespace
        from repro.store import Store
        from repro.stream import GramAccumulator

        stub = SimpleNamespace(fit_column_names=("a", "b"))
        acc = GramAccumulator(stub, name="chaos")
        acc.gram += np.eye(3)
        acc.moment += 1.0
        acc.rows, acc.batches = 3, 1
        acc.checkpoint(Store())          # ckpt 1 publishes cleanly
        acc.gram += np.eye(3)
        acc.moment += 1.0
        acc.rows, acc.batches = 6, 2
        acc.checkpoint(Store())          # the armed fault lands here
        """
    )

    def _run(self, root: Path, fault_spec: str):
        env = dict(
            os.environ,
            REPRO_STORE_DIR=str(root),
            PYTHONPATH=str(REPO_ROOT / "src"),
        )
        if fault_spec:
            env["REPRO_FAULTS"] = f"{CHAOS_SEED}:{fault_spec}"
        else:
            env.pop("REPRO_FAULTS", None)
        return subprocess.run(
            [sys.executable, "-c", self.CODE], env=env, capture_output=True
        )

    def _assert_recovers_first_checkpoint(self, root: Path):
        from types import SimpleNamespace

        store = Store(root)
        acc = GramAccumulator(
            SimpleNamespace(fit_column_names=("a", "b")), name="chaos"
        )
        assert acc.recover(store)
        assert (acc.rows, acc.batches, acc.seq) == (3, 1, 1)
        np.testing.assert_array_equal(acc.gram, np.eye(3))
        np.testing.assert_array_equal(acc.moment, np.ones(3))
        # No torn state is *visible*: exactly one published checkpoint.
        # (A kill inside the store write may orphan a ``.tmp-<pid>`` file;
        # its name never matches the checkpoint pattern, so recovery and
        # pruning ignore it by construction.)
        ckpt_dir = root / "stream" / "chaos" / "ckpt"
        published = [
            p for p in ckpt_dir.iterdir() if not p.name.count(".tmp-")
        ]
        assert len(published) == 1
        assert published[0].name.startswith("00000001-")

    def test_kill_at_checkpoint_site_recovers_previous(self, tmp_path):
        """Killed before the second checkpoint's write: recovery restores
        checkpoint 1 exactly."""
        root = tmp_path / "store"
        proc = self._run(root, "stream.checkpoint=kill@2")
        assert proc.returncode != 0
        self._assert_recovers_first_checkpoint(root)

    def test_kill_mid_flush_recovers_previous(self, tmp_path):
        """Killed inside the store write (bytes durable in the temp file,
        rename not yet done): the second checkpoint must not be visible
        and checkpoint 1 recovers."""
        root = tmp_path / "store"
        proc = self._run(root, "store.flush=kill@2")
        assert proc.returncode != 0
        self._assert_recovers_first_checkpoint(root)

    def test_fault_free_run_publishes_both(self, tmp_path):
        root = tmp_path / "store"
        proc = self._run(root, "")
        assert proc.returncode == 0, proc.stderr.decode()
        from types import SimpleNamespace

        acc = GramAccumulator(
            SimpleNamespace(fit_column_names=("a", "b")), name="chaos"
        )
        assert acc.recover(Store(root))
        assert (acc.rows, acc.batches, acc.seq) == (6, 2, 2)


# -- stream.ingest / stream.respec on the serving path ---------------------------------


@pytest.fixture()
def streaming_service(tmp_path):
    server, serving, registry = build_service(
        demo_dataset(seed=0),
        tmp_path / "registry",
        generations=1,
        population_size=6,
        drift_config=TRIGGER_HAPPY,
    )
    yield serving, registry, serving.respecifier
    serving.close()


class TestIngestFaults:
    def test_ingest_fault_degrades_to_500_and_recovers(self, streaming_service):
        serving, registry, respec = streaming_service
        # A roomy baseline so ordinary batches refresh instead of tripping.
        respec.set_baseline(10.0)

        async def scenario():
            plan = FaultPlan.parse("stream.ingest=raise@1", seed=CHAOS_SEED)
            with faults.armed(plan):
                reply = await serving.handle_observe_stream(
                    {"application": "app0", "profiles": _profiles(8, seed=21)}
                )
            assert plan.injected_counts() == [1]
            assert reply["ok"] is False and reply["status"] == 500
            assert "InjectedFault" in reply["error"]
            assert serving.stats.stream_failed == 1
            assert serving.stats.last_error.startswith("InjectedFault")
            assert obs.gauge("serve.update_last_error").value == 1.0
            # The faulted batch was not half-ingested anywhere.
            assert respec.batches_ingested == 0
            assert serving.stats_dict()["stream"]["failed"] == 1

            # Fault exhausted: the very next batch streams through.
            reply = await serving.handle_observe_stream(
                {"application": "app0", "profiles": _profiles(8, seed=22)}
            )
            assert reply["ok"]
            assert respec.batches_ingested == 1
            assert serving.stats.stream_batches == 1

        asyncio.run(scenario())


class TestRespecFaults:
    def test_failed_respec_keeps_last_good_model_then_retries(
        self, streaming_service
    ):
        serving, registry, respec = streaming_service
        respec.set_baseline(1e-6)  # any real error trips the detector

        async def scenario():
            v_before = serving.slot.version
            plan = FaultPlan.parse("stream.respec=raise@1", seed=CHAOS_SEED)
            with faults.armed(plan):
                reply = await serving.handle_observe_stream(
                    {"application": "app0", "profiles": _profiles(8, seed=31)}
                )
                assert reply["ok"] and reply["respec_scheduled"]
                await serving.wait_for_update()
            assert plan.injected_counts() == [1]

            # Degraded, not down: slot and registry keep the last-good
            # model, the failure is visible in stats and the gauge.
            assert serving.stats.updates_failed == 1
            assert serving.stats.stream_respecs == 0
            assert serving.stats.last_error.startswith("InjectedFault")
            assert obs.gauge("serve.update_last_error").value == 1.0
            assert serving.slot.version == v_before
            assert registry.latest_version(serving.key) == v_before

            # The drift latch is still set, so the next batch re-schedules
            # the re-specification; fault exhausted, it completes and swaps.
            reply = await serving.handle_observe_stream(
                {"application": "app0", "profiles": _profiles(8, seed=32)}
            )
            assert reply["ok"] and reply["respec_scheduled"]
            await serving.wait_for_update()
            assert serving.stats.stream_respecs == 1
            assert serving.stats.last_error is None
            assert obs.gauge("serve.update_last_error").value == 0.0
            assert serving.slot.version == v_before + 1
            assert registry.latest_version(serving.key) == v_before + 1

        asyncio.run(scenario())


# -- stream.retune: killed/failed re-tune keeps the last-good tuning -------------------


def _retune_fixture(seed=2):
    """A tiny SpMV respecifier with an attached retuner (no serving tier)."""
    from repro.core.dataset import ProfileDataset
    from repro.core.genetic import GeneticSearch
    from repro.spmv import fem_matrix, scattered_matrix
    from repro.spmv.cache import SPMV_HARDWARE_NAMES
    from repro.spmv.space import SPMV_SOFTWARE_NAMES
    from repro.stream import OnlineRetuner, SpMVStreamSource, StreamingRespecifier

    source = SpMVStreamSource(
        fem_matrix(16, 3, 3, 6, 13, "chaos-retune"),
        seed=5,
        block_sizes=(1, 2, 3),
        n_caches=4,
    )
    dataset = ProfileDataset(SPMV_SOFTWARE_NAMES, SPMV_HARDWARE_NAMES)
    rng = np.random.default_rng(7)
    aux = SpMVStreamSource(
        scattered_matrix(40, 130, 12, "chaos-aux"),
        seed=3,
        block_sizes=(1, 2, 3),
        n_caches=4,
    )
    dataset.extend(aux.sample(24, rng).records)
    dataset.extend(source.sample(24, rng).records)
    respec = StreamingRespecifier(
        dataset, GeneticSearch(population_size=8, seed=seed), TRIGGER_HAPPY
    )
    respec.bootstrap(generations=1)
    retuner = OnlineRetuner(
        lambda: source.space, source.caches, block_sizes=source.block_sizes
    ).attach(respec)
    retuner.bootstrap()
    return source, respec, retuner


class TestRetuneFaults:
    def test_failed_retune_keeps_last_good_tuning_and_respec_lands(self):
        """The re-specification must survive its own retune hook failing:
        the new model is adopted, the deployed tuning stays last-good,
        and the next re-tune clears the sticky error."""
        source, respec, retuner = _retune_fixture()
        initial = retuner.current.key
        plan = FaultPlan.parse("stream.retune=raise@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            respec.respec(generations=1)
        assert plan.injected_counts() == [1]

        # The respec itself landed; the retune failure was absorbed.
        assert respec.respecs == 1
        assert retuner.failures == 1
        assert retuner.retunes == 0
        assert retuner.last_error.startswith("InjectedFault")
        assert retuner.decisions[-1].action == "error"
        assert retuner.current.key == initial  # last-good tuning deployed

        # Fault exhausted: the next re-specification re-tunes cleanly.
        respec.respec(generations=1)
        assert respec.respecs == 2
        assert retuner.retunes == 1
        assert retuner.last_error is None
        assert retuner.decisions[-1].action in ("hold", "switch")

    def test_retune_failure_surfaces_in_serving_stats(self):
        """Through the stats nesting: a manager polling stats_dict sees
        the failure count and the untouched current tuning."""
        source, respec, retuner = _retune_fixture()
        initial = retuner.current.key
        plan = FaultPlan.parse("stream.retune=raise@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            respec.respec(generations=1)
        stats = respec.stats_dict()["retune"]
        assert stats["failures"] == 1
        assert stats["last_error"].startswith("InjectedFault")
        assert (
            f"{stats['current']['r']}x{stats['current']['c']}"
            f"/{stats['current']['cache']}" == initial
        )

    KILL_CODE = textwrap.dedent(
        """
        import numpy as np
        from repro.spmv import fem_matrix
        from repro.stream import OnlineRetuner, SpMVStreamSource

        source = SpMVStreamSource(
            fem_matrix(16, 3, 3, 6, 13, "chaos-retune"),
            seed=5, block_sizes=(1, 2, 3), n_caches=4,
        )
        retuner = OnlineRetuner(
            lambda: source.space, source.caches, block_sizes=source.block_sizes
        )
        state = retuner.bootstrap()
        print(f"deployed {state.key}", flush=True)
        decision = retuner.retune(None, "respec")   # the armed kill lands here
        print(f"retuned {decision.action} {retuner.current.key}", flush=True)
        """
    )

    def _run_kill_scenario(self, fault_spec):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        if fault_spec:
            env["REPRO_FAULTS"] = f"{CHAOS_SEED}:{fault_spec}"
        else:
            env.pop("REPRO_FAULTS", None)
        return subprocess.run(
            [sys.executable, "-c", self.KILL_CODE],
            env=env,
            capture_output=True,
            text=True,
        )

    def test_killed_retune_dies_after_deploying_last_good(self):
        """A kill inside the re-tune takes the process down with the
        distinctive exit code *after* the bootstrap tuning was deployed —
        a supervisor respawn comes back on the last-good tuning."""
        from repro.faults.plan import KILL_EXIT_CODE

        proc = self._run_kill_scenario("stream.retune=kill@1")
        assert proc.returncode == KILL_EXIT_CODE
        assert "deployed " in proc.stdout     # last-good was in force
        assert "retuned" not in proc.stdout   # the re-tune never concluded

    def test_same_scenario_completes_without_fault(self):
        proc = self._run_kill_scenario(None)
        assert proc.returncode == 0
        assert "deployed " in proc.stdout
        assert "retuned" in proc.stdout


# -- uarch.backend: guarded backend evaluation degrades to last-good -------------------


def _tiny_shards(n_shards=2, n=300, seed=11):
    """A couple of cheap synthetic trace shards for backend evaluation."""
    from repro.isa import OpClass, Trace, empty_trace

    rng = np.random.default_rng(seed)
    shards = []
    for k in range(n_shards):
        data = empty_trace(n)
        data["op"] = rng.choice(
            [int(OpClass.INT_ALU), int(OpClass.MEMORY), int(OpClass.CONTROL)],
            size=n,
            p=[0.6, 0.3, 0.1],
        )
        mem = data["op"] == int(OpClass.MEMORY)
        data["addr"][mem] = rng.integers(0, 500, size=int(mem.sum())) * 64
        data["iaddr"] = (np.arange(n) * 4) % 2048
        data["dep"] = rng.integers(0, 6, size=n)
        shards.append(Trace(data, f"chaos-backend-{seed}-{k}"))
    return shards


class TestBackendFaults:
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    def test_backend_fault_replays_last_good(self, backend):
        """A faulted evaluation replays the previous result (marked
        ``fresh=False``) instead of poisoning the caller; the fault is
        visible in the failure counters and the next call is fresh."""
        from repro.uarch import GuardedBackend

        guard = GuardedBackend(backend)
        rng = np.random.default_rng(3)
        good_cfg, other_cfg = guard.backend.sample_configs(2, rng)
        shards = _tiny_shards()
        primed = guard.evaluate(shards, good_cfg)
        assert primed.fresh and primed.config_key == good_cfg.key

        plan = FaultPlan.parse("uarch.backend=raise@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            degraded = guard.evaluate(shards, other_cfg)
        assert plan.injected_counts() == [1]
        assert degraded.fresh is False
        assert degraded.backend == backend
        # The replay answers with the *last-good* configuration's CPIs,
        # not the one that was asked for — callers can tell from the key.
        assert degraded.config_key == good_cfg.key
        np.testing.assert_array_equal(degraded.cpis, primed.cpis)
        assert guard.failures == 1
        assert guard.last_error.startswith("InjectedFault")

        # Fault exhausted: the next evaluation is fresh and becomes the
        # new last-good.
        after = guard.evaluate(shards, other_cfg)
        assert after.fresh and after.config_key == other_cfg.key
        assert guard.evaluations == 2

    def test_backend_fault_before_first_success_raises(self):
        """No last-good yet means there is nothing safe to degrade to."""
        from repro.uarch import GuardedBackend
        from repro.uarch.backends import BackendUnavailableError

        guard = GuardedBackend("gpu")
        plan = FaultPlan.parse("uarch.backend=raise@1", seed=CHAOS_SEED)
        with faults.armed(plan):
            with pytest.raises(BackendUnavailableError):
                guard.evaluate(_tiny_shards(), guard.backend.reference_config())
        assert guard.failures == 1 and guard.evaluations == 0

    KILL_CODE = textwrap.dedent(
        """
        import numpy as np
        from repro.isa import OpClass, Trace, empty_trace
        from repro.uarch import GuardedBackend

        rng = np.random.default_rng(11)
        data = empty_trace(300)
        data["op"] = rng.choice(
            [int(OpClass.INT_ALU), int(OpClass.MEMORY), int(OpClass.CONTROL)],
            size=300, p=[0.6, 0.3, 0.1],
        )
        mem = data["op"] == int(OpClass.MEMORY)
        data["addr"][mem] = rng.integers(0, 500, size=int(mem.sum())) * 64
        data["iaddr"] = (np.arange(300) * 4) % 2048
        data["dep"] = rng.integers(0, 6, size=300)
        shards = [Trace(data, "chaos-backend-kill")]

        guard = GuardedBackend("gpu")
        config = guard.backend.reference_config()
        guard.evaluate(shards, config)
        print("primed", flush=True)
        guard.evaluate(shards, config)    # the armed kill lands here
        print("second evaluation done", flush=True)
        """
    )

    def _run_kill_scenario(self, fault_spec):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        if fault_spec:
            env["REPRO_FAULTS"] = f"{CHAOS_SEED}:{fault_spec}"
        else:
            env.pop("REPRO_FAULTS", None)
        return subprocess.run(
            [sys.executable, "-c", self.KILL_CODE],
            env=env,
            capture_output=True,
            text=True,
        )

    def test_killed_backend_evaluation_dies_with_last_good_on_record(self):
        """A kill inside the backend evaluation takes the process down
        with the distinctive exit code after the first evaluation primed
        the last-good — a supervisor respawn re-evaluates from scratch
        rather than serving torn statistics."""
        from repro.faults.plan import KILL_EXIT_CODE

        proc = self._run_kill_scenario("uarch.backend=kill@2")
        assert proc.returncode == KILL_EXIT_CODE
        assert "primed" in proc.stdout
        assert "second evaluation done" not in proc.stdout

    def test_same_backend_scenario_completes_without_fault(self):
        proc = self._run_kill_scenario(None)
        assert proc.returncode == 0, proc.stderr
        assert "primed" in proc.stdout
        assert "second evaluation done" in proc.stdout
