"""Helpers shared by the benchmark's worker processes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource

import numpy as np

from tracer import SetupProbeDone, Tracer


def scale(name: str):
    """A Scale from ``experiments.common.SCALES``, or the self-test ``tiny``."""
    from repro.experiments.common import SCALES

    if name == "tiny":
        return dataclasses.replace(
            SCALES["small"],
            name="tiny",
            configs_per_app=12,
            shards_per_app=2,
            population=6,
            generations=1,
            spmv_train=30,
            spmv_val=10,
            tuning_caches=3,
        )
    return SCALES[name]


def digest(*arrays) -> str:
    """sha256 over the float64 bytes of ``arrays``, first 16 hex digits."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def accuracy(predictions, targets) -> dict:
    from repro.core import absolute_percentage_errors, pearson_correlation

    ape = absolute_percentage_errors(predictions, targets)
    return {
        "median_ape": 100.0 * float(np.median(ape)),
        "rho": float(pearson_correlation(predictions, targets)),
    }


def add_worker_args(parser) -> None:
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="spawn time (epoch s)")
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--probe", action="store_true", help="stop at the first layer call (set-up only)"
    )


def run_worker(args, body) -> None:
    """Run ``body(args, tracer)`` and write its result plus setup/RSS/spans."""
    tracer = Tracer(bool(args.trace), probe=args.probe)
    try:
        result = body(args, tracer)
    except SetupProbeDone:
        result = {}
    result["setup_s"] = tracer.first_call - args.t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
