"""Online coordinated re-tuning demo — acting on the re-specified model.

The other half of the dynamic-spaces story (DESIGN.md §12): the stream
demo shows drift *detection* and model re-specification; this demo shows
the system *acting* on the refreshed model.  Two runs over the same
bootstrapped pipeline, each deploying an initial coordinated
(r, c, cache) tuning chosen by exhaustive true search on the pristine
matrix:

* **drifting** — the RigL-style drop/regrow schedule erodes the dense
  block substructure the initial blocking exploits.  Drift trips, the GA
  re-specifies, and the post-respec :class:`repro.stream.OnlineRetuner`
  re-runs the model-guided coordinated search: the deployed tuning must
  *migrate* (typically toward smaller blocks as the fill ratio of the
  old blocking explodes), and only via a true-measurement-verified
  candidate whose gain amortizes the reblocking + cache-reconfiguration
  switch-over cost.
* **stationary** — the identical pipeline over an unchanging matrix,
  re-tuning every K refreshes.  The exhaustively-chosen initial tuning
  is already optimal, so every periodic re-tune must *hold* (hysteresis
  and cost accounting reject near-tie candidates).

Run with ``python -m repro.experiments retune``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dataset import ProfileDataset
from repro.core.genetic import GeneticSearch
from repro.experiments.common import Scale
from repro.experiments.stream_demo import (
    CALIBRATION_RECORDS,
    STREAM_DRIFT_CONFIG,
    _bootstrap_dataset,
    _stream_matrix,
)
from repro.stream import (
    DriftingSpMVSource,
    OnlineRetuner,
    SpMVStreamSource,
    StreamingRespecifier,
)


def _scenario_sizes(scale: Scale) -> Dict[str, int]:
    return {
        "small": dict(steps=6, batch=16, boot=40, pop=16, gens=3, retune_every=3),
        "bench": dict(steps=10, batch=24, boot=60, pop=20, gens=5, retune_every=4),
        "full": dict(steps=16, batch=32, boot=80, pop=30, gens=8, retune_every=5),
    }[scale.name]


def _run_scenario(
    source, sizes: Dict[str, int], base: ProfileDataset, seed: int
) -> Dict[str, object]:
    dataset = ProfileDataset(base.x_names, base.y_names)
    dataset.extend(base.records)
    search = GeneticSearch(population_size=sizes["pop"], seed=2)
    respec = StreamingRespecifier(dataset, search, STREAM_DRIFT_CONFIG)
    respec.bootstrap(generations=sizes["gens"])
    calibration = source.sample(CALIBRATION_RECORDS, np.random.default_rng(99))
    respec.set_baseline(
        float(np.median(respec._prequential_errors(calibration)))
    )

    # The deployed tuning: exhaustive true search over the pristine
    # matrix's candidate pool (offline bootstrap tuning), then online
    # maintenance — after every re-specification and every K refreshes.
    retuner = OnlineRetuner(
        lambda: source.space,
        source.caches,
        block_sizes=source.block_sizes,
        retune_every_refreshes=sizes["retune_every"],
    )
    initial = retuner.bootstrap()
    retuner.attach(respec)

    rng = np.random.default_rng(seed)
    half = sizes["batch"] // 2
    for _ in range(sizes["steps"]):
        source.step()
        rows = source.rows()
        active = respec.select_next(rows, half)
        pool = np.setdiff1d(np.arange(len(rows)), active)
        random_pick = rng.choice(pool, size=sizes["batch"] - half, replace=False)
        batch = source.batch(np.concatenate([active, random_pick]))
        respec.ingest(batch)

    return {
        "steps": sizes["steps"],
        "trips": respec.respecs,
        "refreshes": respec.refreshes,
        "initial": initial.key,
        "initial_mflops": initial.mflops,
        "final": retuner.current.key,
        "final_mflops": retuner.current.mflops,
        "retunes": retuner.retunes,
        "switches": retuner.switches,
        "holds": retuner.holds,
        "failures": retuner.failures,
        "decisions": [d.to_dict() for d in retuner.decisions],
        "stats": respec.stats_dict(),
    }


def run(scale: Scale) -> Dict[str, object]:
    sizes = _scenario_sizes(scale)
    base = _bootstrap_dataset(
        dict(boot=sizes["boot"]), np.random.default_rng(7)
    )
    drifting = _run_scenario(
        DriftingSpMVSource(_stream_matrix(), seed=5, n_caches=8, drop_fraction=0.35),
        sizes,
        base,
        seed=101,
    )
    stationary = _run_scenario(
        SpMVStreamSource(_stream_matrix(), seed=5, n_caches=8),
        sizes,
        base,
        seed=101,
    )
    return {"scale": scale.name, "drifting": drifting, "stationary": stationary}


def report(result: Dict[str, object]) -> str:
    lines = [
        "Drift-triggered coordinated HW-SW re-tuning "
        "(detect -> re-specify -> re-tune -> verified switch)",
        "",
    ]
    for name in ("drifting", "stationary"):
        r = result[name]
        lines.append(
            f"  {name:<11s} respecs={r['trips']} retunes={r['retunes']} "
            f"switches={r['switches']} holds={r['holds']} "
            f"failures={r['failures']}"
        )
        lines.append(
            f"    deployed: {r['initial']} ({r['initial_mflops']:.1f} Mflop/s)"
            f" -> {r['final']} ({r['final_mflops']:.1f} Mflop/s)"
        )
        for d in r["decisions"]:
            lines.append(
                f"    [{d['trigger']:<7s}] {d['action']:<6s} "
                f"{d['incumbent'] or '-'} -> {d['candidate'] or '-'}  "
                f"net={d['net_gain_seconds']:+.2e}s  {d['reason']}"
            )
    drift, stat = result["drifting"], result["stationary"]
    migrated = drift["switches"] >= 1 and drift["final"] != drift["initial"]
    held = stat["switches"] == 0 and stat["final"] == stat["initial"]
    verdict = (
        "OK: drifting tuning migrated on re-specification, stationary held"
        if migrated and held and drift["trips"] >= 1
        else "WARNING: re-tuning did not separate the scenarios"
    )
    lines += ["", f"  {verdict}"]
    return "\n".join(lines)


def check(result: Dict[str, object]) -> None:
    """Fail loudly when the demo does not demonstrate the claim."""
    drift, stat = result["drifting"], result["stationary"]
    if drift["trips"] < 1:
        raise AssertionError("drifting stream never tripped a re-specification")
    if drift["switches"] < 1 or drift["final"] == drift["initial"]:
        raise AssertionError(
            "drifting stream's coordinated tuning did not migrate "
            f"({drift['initial']} -> {drift['final']})"
        )
    if not any(
        d["action"] == "switch" and d["trigger"] == "respec"
        for d in drift["decisions"]
    ):
        raise AssertionError("no switch happened at a re-specification")
    for name in ("drifting", "stationary"):
        for d in result[name]["decisions"]:
            if d["action"] != "switch":
                continue
            if not d["verified"]:
                raise AssertionError(f"unverified switch adopted: {d}")
            if d["net_gain_seconds"] <= 0.0:
                raise AssertionError(
                    f"switch adopted below amortized switch-over cost: {d}"
                )
    if stat["switches"] != 0 or stat["final"] != stat["initial"]:
        raise AssertionError(
            "stationary control did not hold its initial tuning "
            f"({stat['initial']} -> {stat['final']})"
        )
    if stat["retunes"] < 1:
        raise AssertionError(
            "stationary control never re-tuned (hold verdicts untested)"
        )
