"""Smoke/load client for a running prediction server.

Run against a detached server (CI does, after ``python -m
repro.experiments serve``)::

    python -m repro.serve --port 7654 --smoke
    python -m repro.serve --port 7654 --load 16 --requests 2000
    python -m repro.serve --port 7654 --check-metrics --shutdown

Exits non-zero when a smoke round-trip disagrees, a load run has failed
requests, or the metrics check finds nothing counted.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.serve.client import LoadGenerator, ServeError, wait_for_server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Smoke/load client for the repro prediction server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="ping, info, one predict, one predict_batch; exit non-zero on failure",
    )
    parser.add_argument(
        "--load",
        type=int,
        metavar="CONCURRENCY",
        default=0,
        help="run the load generator at this concurrency",
    )
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="load-driver processes (multi-process drive mode)",
    )
    parser.add_argument(
        "--soak",
        type=int,
        metavar="CLIENTS",
        default=0,
        help="soak profile: simulate this many short-lived clients over "
        "connection churn (requires --load for the live concurrency)",
    )
    parser.add_argument(
        "--requests-per-client",
        type=int,
        default=4,
        help="predictions each simulated soak client issues before "
        "disconnecting",
    )
    parser.add_argument(
        "--check-metrics",
        action="store_true",
        help="fetch the metrics op and fail unless the server has counted "
        "a non-zero number of requests and predictions",
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="stop the server when done"
    )
    parser.add_argument(
        "--wait",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="readiness-poll timeout before the first request (raise it "
        "when the server bootstraps a model or a sharded fleet first)",
    )
    args = parser.parse_args(argv)

    client = wait_for_server(args.host, args.port, timeout=args.wait)
    info = client.info()
    print(f"server up: model v{info['model_version']}, "
          f"{len(info['variables'])} variables, {info['n_terms']} terms")

    rng = np.random.default_rng(0)
    n_vars = len(info["variables"])
    rows = np.abs(rng.normal(loc=1.0, scale=0.3, size=(64, n_vars))) + 0.1

    status = 0
    if args.smoke:
        single = client.predict_row(rows[0].tolist())
        batch = client.predict_batch(rows[:8])
        same = single["prediction"] == batch["predictions"][0]
        print(f"predict: {single['prediction']:.6g} "
              f"(batch head matches: {same})")
        if not same:
            status = 1
    if args.load:
        generator = LoadGenerator(
            args.host, args.port, rows,
            concurrency=args.load, processes=args.processes,
        )
        if args.soak:
            report = generator.soak(
                args.soak, requests_per_client=args.requests_per_client
            )
        else:
            report = generator.run(args.requests)
        print(json.dumps(report.to_dict(), indent=2))
        if report.failed:
            status = 1
    if args.check_metrics:
        counters = client.metrics().get("counters", {})
        requests = counters.get("serve.requests", 0)
        predictions = counters.get("serve.predictions", 0)
        print(f"metrics: serve.requests={requests} "
              f"serve.predictions={predictions}")
        if requests <= 0 or predictions <= 0:
            print("metrics check failed: expected non-zero request and "
                  "prediction counts")
            status = 1
    if args.shutdown:
        try:
            client.shutdown()
        except (ServeError, ConnectionError):
            pass
    client.close()
    return status


if __name__ == "__main__":
    sys.exit(main())
