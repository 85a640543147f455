"""``general-cold`` worker: one cold build of the general-study model.

Run in a fresh interpreter by ``run.py`` (so imports, caches and the obs
registry start empty).  The chain mirrors what the experiments run for the
general study, but every layer call is made from here so it can be timed:

    generate_trace -> Trace.shards -> profile_shard -> Simulator.stats_for_many
    -> cpi_batch_from_stats -> GeneticSearch.run -> SearchResult.best_model
    -> predict on held-out pairs

Writes one JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import workerlib
from tracer import Tracer


#: The applications' traces are fixed inputs (the experiments' default
#: seed); the workload seed drives the sampled pairs and the search.
TRACE_SEED = 2012
#: Held-out pairs per build: the bench scale's 140 instead of the small
#: scale's 40.  They cost only CPI passes on statistics already computed,
#: and they halve the seed-to-seed spread of the accuracy metrics.
HELD_OUT_PAIRS = 140


def run(args, tracer: Tracer) -> dict:
    from repro import obs
    from repro.core import (
        GeneticSearch,
        ProfileDataset,
        ProfileRecord,
        chromosome_from_spec,
        manual_general_spec,
    )
    from repro.experiments.common import SHARD_LENGTH
    from repro.profiling import SOFTWARE_VARIABLE_NAMES, profile_shard
    from repro.uarch import HARDWARE_VARIABLE_NAMES, Simulator, sample_configs
    from repro.workloads import generate_trace, spec2006_suite

    scale = workerlib.scale(args.scale)
    seed = args.seed
    span = tracer.span
    suite = spec2006_suite()
    apps = tuple(suite)
    n_instr = scale.shards_per_app * SHARD_LENGTH
    simulator = Simulator()

    t_first = time.perf_counter()
    shards, profiles = {}, {}
    for app in apps:
        with span("workloads.generate_trace"):
            trace = generate_trace(
                suite[app], n_instr, seed=TRACE_SEED, shard_length=SHARD_LENGTH
            )
        tracer.count("workloads.generate_trace.instructions", len(trace))
        with span("isa.shards"):
            shards[app] = trace.shards(SHARD_LENGTH)
        with span("profiling.profile_shard"):
            profiles[app] = [profile_shard(s) for s in shards[app]]
        tracer.count("profiling.profile_shard.shards", len(shards[app]))

    # Architecture and shard draws, in build_general_dataset's order.
    rng = np.random.default_rng(seed)
    draws = []
    for app in apps:
        configs = sample_configs(scale.configs_per_app, rng)
        picks = [int(rng.integers(0, scale.shards_per_app)) for _ in configs]
        draws.append(("train", app, configs, picks))
    per_app_val = max(1, HELD_OUT_PAIRS // len(apps))
    for app in apps:
        configs = sample_configs(per_app_val, rng)
        picks = [int(rng.integers(0, scale.shards_per_app)) for _ in configs]
        draws.append(("val", app, configs, picks))

    datasets = {
        part: ProfileDataset(SOFTWARE_VARIABLE_NAMES, HARDWARE_VARIABLE_NAMES)
        for part in ("train", "val")
    }
    computed = set()
    for part, app, configs, shard_indices in draws:
        by_shard = {}
        for j, index in enumerate(shard_indices):
            by_shard.setdefault(index, []).append(j)
        ordered = sorted(by_shard)
        with span("uarch.shard_stats"):
            stats_list = simulator.stats_for_many([shards[app][i] for i in ordered])
        computed.update((app, i) for i in ordered)
        z = np.empty(len(configs))
        for index, stats in zip(ordered, stats_list):
            positions = by_shard[index]
            with span("uarch.cpi"):
                z[positions] = simulator.cpi_batch_from_stats(
                    stats, [configs[j] for j in positions]
                )
            tracer.count("uarch.cpi.pairs", len(positions))
        for j, (config, index) in enumerate(zip(configs, shard_indices)):
            datasets[part].add(
                ProfileRecord(app, profiles[app][index], config.as_vector(), float(z[j]))
            )
    train, val = datasets["train"], datasets["val"]
    # The simulator memoizes statistics by shard, so each is computed once.
    tracer.count("uarch.shard_stats.shards", len(computed))
    tracer.count("uarch.shard_stats.instructions", len(computed) * SHARD_LENGTH)

    search = GeneticSearch(population_size=scale.population, seed=seed)
    initial = [chromosome_from_spec(manual_general_spec(), train.variable_names)]
    with span("core.ga"):
        result = search.run(train, scale.generations, initial_population=initial)
    with span("core.fit"):
        model = result.best_model(train)
    with span("core.predict"):
        predictions = model.predict(val)
    wall_s = time.perf_counter() - t_first

    # The held-out predictions must match the serving fast path bit for bit.
    rows = val.matrix()
    failed = int(not np.array_equal(predictions, model.predict_rows(rows)))
    targets = val.targets()
    return {
        "wall_s": wall_s,
        "attempted": 1,
        "failed": failed,
        "predictions": predictions.tolist(),
        "targets": targets.tolist(),
        "digest_targets": workerlib.digest(train.targets(), targets),
        "digest_predictions": workerlib.digest(predictions),
        "obs": obs.snapshot()["counters"],
        "counts": dict(tracer.counts),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    workerlib.add_worker_args(parser)
    workerlib.run_worker(parser.parse_args(), run)


if __name__ == "__main__":
    main()
