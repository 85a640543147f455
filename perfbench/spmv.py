"""``spmv-tune`` worker: one cold SpMV case study over the 11 Table-4 matrices.

Per matrix, every layer call is made (and timed) from here:

    table4_matrix -> SpMVSpace.bcsr / .trace for all 64 block sizes
    -> sample_dataset (train, validation) -> fit_spmv_model
    -> TuningSearch(space, model).coordinated_tuning(tuning_cache_candidates)

After the timed chain, each winner is re-measured on a fresh SpMVSpace;
a winner whose Mflop/s differs from that measurement fails the run.

Writes one JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import workerlib
from tracer import Tracer


def _obs_state(obs) -> tuple:
    """(batched pairs, per-pair simulations) from the obs registry."""
    snap = obs.snapshot()
    per_pair = snap["histograms"].get("span.kernel.cache_sim.wall_seconds", {})
    return snap["counters"].get("kernel.batched_pairs", 0), per_pair.get("count", 0)


def cross_validated_accuracy(outcomes, folds: int = 4):
    """Pooled held-out APEs and per-matrix Pearson rho by k-fold CV.

    Each matrix's train and validation samples are pooled and every sample
    is predicted by a model fitted without its fold.  Over ten seeds the
    median of per-matrix validation medians spread by 24% of its median;
    the cross-validated pooled median by 7-14%.  Uses no new simulations.
    """
    from repro.core import ProfileDataset, absolute_percentage_errors
    from repro.spmv import fit_spmv_model

    apes, rhos = [], []
    for _, _, _, train, val in outcomes:
        pooled = ProfileDataset(train.x_names, train.y_names, list(train) + list(val))
        fold = np.arange(len(pooled)) % folds
        predictions = np.empty(len(pooled))
        for k in range(folds):
            held = np.flatnonzero(fold == k)
            model = fit_spmv_model(pooled.subset(np.flatnonzero(fold != k)))
            predictions[held] = model.predict(pooled.subset(held))
        targets = pooled.targets()
        apes.append(absolute_percentage_errors(predictions, targets))
        rhos.append(workerlib.accuracy(predictions, targets)["rho"])
    return np.concatenate(apes), rhos


def run(args, tracer: Tracer) -> dict:
    from repro import obs
    from repro.spmv import (
        BLOCK_SIZES,
        MATRIX_NAMES,
        SpMVSpace,
        TuningSearch,
        fit_spmv_model,
        table4_matrix,
        tuning_cache_candidates,
    )

    scale = workerlib.scale(args.scale)
    span = tracer.span
    t_first = time.perf_counter()
    outcomes, targets_all, predictions_all = [], [], []
    for index, name in enumerate(MATRIX_NAMES):
        rng = np.random.default_rng([args.seed, index])
        with span("spmv.matrix"):
            # The Table-4 stand-ins are fixed inputs (generator seed 0, as in
            # the Figure 14 experiment); the workload seed drives sampling.
            matrix = table4_matrix(name)
        space = SpMVSpace(matrix)
        for r in BLOCK_SIZES:
            for c in BLOCK_SIZES:
                with span("spmv.bcsr"):
                    space.bcsr(r, c)
                with span("spmv.kernel_trace"):
                    trace = space.trace(r, c)
                tracer.count("spmv.kernel_trace.addresses", len(trace.addresses))
        batched0, per_pair0 = _obs_state(obs)
        with span("spmv.simulate"):
            train = space.sample_dataset(scale.spmv_train, rng, "mflops")
            val = space.sample_dataset(scale.spmv_val, rng, "mflops")
        batched1, per_pair1 = _obs_state(obs)
        tracer.count("spmv.simulate.random_policy_pairs", per_pair1 - per_pair0)
        tracer.count(
            "spmv.simulate.lru_pairs",
            (batched1 - batched0) - (per_pair1 - per_pair0),
        )
        with span("spmv.fit"):
            model = fit_spmv_model(train)
        with span("core.predict"):
            predictions = model.predict(val)
        caches = tuning_cache_candidates(scale.tuning_caches, rng)
        with span("spmv.tune"):
            result = TuningSearch(space, model).coordinated_tuning(caches)
        tracer.count("spmv.tune.candidates", len(caches) * len(BLOCK_SIZES) ** 2)
        targets_all.append(val.targets())
        predictions_all.append(predictions)
        outcomes.append((matrix, result, model, train, val))
    wall_s = time.perf_counter() - t_first

    apes, rhos = cross_validated_accuracy(outcomes)
    failed, speedups = 0, []
    for matrix, result, _, _, _ in outcomes:
        measured = SpMVSpace(matrix).evaluate(result.r, result.c, result.cache).mflops
        if measured != result.mflops:
            failed += 1
        else:
            tracer.count("spmv.tune.verified")
        speedups.append(result.speedup)
    return {
        "wall_s": wall_s,
        "median_ape": 100.0 * float(np.median(apes)),
        "rho": float(np.median(rhos)),
        "tuned_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "digest_targets": workerlib.digest(*targets_all),
        "digest_predictions": workerlib.digest(*predictions_all),
        "attempted": len(outcomes),
        "failed": failed,
        "obs": obs.snapshot()["counters"],
        "counts": dict(tracer.counts),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    workerlib.add_worker_args(parser)
    workerlib.run_worker(parser.parse_args(), run)


if __name__ == "__main__":
    main()
