"""The repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload general-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every run is cold: each worker process and each server gets fresh cache,
store and registry directories, the ``REPRO_*`` environment is cleared so
the program runs at its defaults, and the workload seed reaches the program
only through the inputs generated from it.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with ``--trace 1``).
The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import busy_seconds, format_ledger, ledger  # noqa: E402

WORKLOADS = ("general-cold", "spmv-tune", "serve-mixed")
#: Host seconds of one cold general-study build and one cold SpMV study at
#: the small scale on a 2-core box; they set the builds per run from --seconds.
GENERAL_BUILD_S = 2.2
SPMV_STUDY_S = 40.0
#: Cold start-ups measured per run (set-up time is their median).
SETUP_SAMPLES = 10
SERVE_BOOTS = 5
WORKER_TIMEOUT_S = 170

#: End-to-end numbers that exist on one workload only, so they cannot be in
#: BENCHMARK.json's end_to_end list (every workload reports every entry).
#: The report prints them; the traced run emits them as per-layer metrics.
WORKLOAD_METRICS = {
    "tuned_speedup": ("x", "higher", "spmv.tune.speedup"),
    "rps": ("1/s", "higher", "serve.rps"),
    "predict_p50_ms": ("ms", "lower", "serve.predict_p50_ms"),
    "predict_p99_ms": ("ms", "lower", "serve.predict_p99_ms"),
    "batch_p50_ms": ("ms", "lower", "serve.batch_p50_ms"),
    "observe_p50_ms": ("ms", "lower", "serve.observe_p50_ms"),
    "observe_p95_ms": ("ms", "lower", "serve.observe_p95_ms"),
}


def clean_env(work_dir: Path) -> dict:
    """The program's environment: no REPRO_* settings, fresh directories."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    env["REPRO_STORE_DIR"] = str(work_dir / "store")
    return env


def fresh_dir(run_dir: Path, name: str) -> Path:
    path = run_dir / name
    path.mkdir(parents=True)
    return path


def spawn(run_dir: Path, tag: str, script: str, scale: str, seed: int, trace: int,
          probe: bool = False) -> dict:
    """Run one worker process cold and return its JSON result."""
    work = fresh_dir(run_dir, tag)
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / script), "--seed", str(seed),
           "--scale", scale, "--trace", str(trace), "--out", str(out)]
    if probe:
        cmd.append("--probe")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, cwd=work, env=clean_env(work), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    shutil.rmtree(work)
    return result


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


# -- batch workloads ----------------------------------------------------------


def run_batch(workload: str, run_dir: Path, scale: str, seed: int, seconds: float,
              trace: int) -> dict:
    """Cold worker processes for general-cold or spmv-tune.

    general-cold makes one build per GENERAL_BUILD_S of --seconds (at least
    SETUP_SAMPLES), spmv-tune one study per SPMV_STUDY_S (at least one),
    each on its own sub-seed; set-up probes that stop at the first layer
    call make up SETUP_SAMPLES start-ups.  With --trace 1, builds come in
    traced/untraced pairs on the same sub-seed, so the tracing overhead is
    the difference of their median walls.
    """
    if workload == "general-cold":
        script, n = "general.py", max(SETUP_SAMPLES, round(seconds / GENERAL_BUILD_S))
    else:
        script, n = "spmv.py", max(1, round(seconds / SPMV_STUDY_S))
    if trace:
        n = 2 * math.ceil(n / 2)
    reps = []
    for i in range(n):
        traced = int(bool(trace) and i % 2 == 0)
        sub_seed = seed * 1000 + (i // 2 if trace else i)
        reps.append(spawn(run_dir, f"rep{i}", script, scale, sub_seed, traced))
        reps[-1]["traced"] = traced
    probes = [
        spawn(run_dir, f"probe{i}", script, scale, seed, 0, probe=True)
        for i in range(max(0, SETUP_SAMPLES - n))
    ]
    untraced = [r for r in reps if not r["traced"]] or reps
    out = {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "setup_s": median([r["setup_s"] for r in reps + probes]),
        "wall_s": median([r["wall_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "digests": [(r["digest_targets"], r["digest_predictions"]) for r in reps],
        "reps": reps,
    }
    if workload == "general-cold":
        from repro.core import absolute_percentage_errors, pearson_correlation

        predictions = np.concatenate([r["predictions"] for r in reps])
        targets = np.concatenate([r["targets"] for r in reps])
        out["median_ape"] = 100.0 * float(np.median(absolute_percentage_errors(predictions, targets)))
        out["rho"] = float(pearson_correlation(predictions, targets))
    else:
        out["median_ape"] = median([r["median_ape"] for r in reps])
        out["rho"] = median([r["rho"] for r in reps])
        out["tuned_speedup"] = median([r["tuned_speedup"] for r in reps])
    return out


def ga_engine_layers(counters: dict) -> dict:
    """GA and fitness-engine counts and ratios from ``repro.obs`` counters."""
    scored = counters.get("ga.candidates_scored", 0)
    hits = counters.get("engine.column_hits", 0)
    columns = hits + counters.get("engine.column_builds", 0)
    return {
        "core.ga.candidates_scored": scored,
        "core.ga.memo_hit_rate": counters.get("ga.memo_hits", 0) / scored if scored else 0.0,
        "core.engine.column_hit_rate": hits / columns if columns else 0.0,
        "core.engine.gram_fits": counters.get("engine.gram_fits", 0),
        "core.engine.lstsq_fallbacks": counters.get("engine.lstsq_fallbacks", 0),
    }


def batch_layers(workload: str, result: dict) -> dict:
    """Per-layer metrics from the traced builds (medians across builds)."""
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"] if not r["traced"]]
    per_rep = []
    for r in traced:
        busy = busy_seconds(r["spans"])
        obs, counts = r["obs"], r["counts"]
        m = {f"{name}.busy_s": busy.get(name, 0.0) for name in (
            "workloads.generate_trace", "profiling.profile_shard", "uarch.shard_stats",
            "uarch.cpi", "core.ga", "core.fit", "core.predict", "spmv.bcsr",
            "spmv.kernel_trace", "spmv.simulate", "spmv.fit", "spmv.tune")}
        m.update({name: counts.get(name, 0.0) for name in (
            "workloads.generate_trace.instructions", "profiling.profile_shard.shards",
            "uarch.shard_stats.shards", "uarch.cpi.pairs", "spmv.kernel_trace.addresses",
            "spmv.simulate.lru_pairs", "spmv.simulate.random_policy_pairs",
            "spmv.tune.candidates", "spmv.tune.verified")})
        shard_busy = m["uarch.shard_stats.busy_s"]
        m["uarch.shard_stats.instr_per_s"] = (
            counts.get("uarch.shard_stats.instructions", 0.0) / shard_busy if shard_busy else 0.0
        )
        m.update(ga_engine_layers(obs))
        m.update({
            "kernels.batched_pairs": obs.get("kernel.batched_pairs", 0),
            "store.bytes_written": obs.get("store.bytes_written", 0),
            "store.puts": obs.get("store.puts", 0),
        })
        rows = ledger(r["spans"], r["wall_s"])
        prefix = "general" if workload == "general-cold" else "spmv"
        m[f"{prefix}.unattributed_s"] = rows[-1]["self_s"]
        m["ledger.attributed_pct"] = 100.0 - rows[-1]["pct_wall"]
        per_rep.append(m)
    layers = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
    layers["trace.spans"] = median([len(r["spans"]) for r in traced])
    layers["trace.overhead_s"] = (
        median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
    )
    return layers


# -- serving workload -----------------------------------------------------------


def run_serve(run_dir: Path, seed: int, seconds: float) -> dict:
    import serving
    from repro.core import absolute_percentage_errors, pearson_correlation

    pool = serving.request_pool(seed)
    segments = []
    for b in range(SERVE_BOOTS):
        work = fresh_dir(run_dir, f"boot{b}")
        segments.append(
            serving.segment(clean_env(work), work, seed * 100 + b, seconds / SERVE_BOOTS, pool)
        )
    log = [entry for seg in segments for entry in seg["log"]]
    by_op = {op: [1e3 * e[2] for e in log if e[0] == op] for op, _ in serving.OP_MIX}
    completed = sum(1 for e in log if e[3].get("ok"))
    elapsed = sum(seg["elapsed_s"] for seg in segments)
    # Every boot trains the same bootstrap model (server seed 0), so its
    # predictions of the pool must agree bit for bit across boots.
    predicted, truth = segments[0]["bootstrap_predictions"], pool[1]
    diverged = sum(
        not np.array_equal(seg["bootstrap_predictions"], predicted) for seg in segments
    )
    out = {
        "attempted": len(log) + len(segments),
        "failed": sum(seg["failed"] for seg in segments) + diverged,
        "setup_s": median([seg["setup_s"] for seg in segments]),
        "wall_s": 1000.0 * elapsed / max(1, completed),
        "peak_rss_mb": median([seg["peak_rss_mb"] for seg in segments]),
        "median_ape": 100.0 * float(np.median(absolute_percentage_errors(predicted, truth))),
        "rho": float(pearson_correlation(predicted, truth)),
        "predict_p50_ms": percentile(by_op["predict"], 50),
        "predict_p99_ms": percentile(by_op["predict"], 99),
        "batch_p50_ms": percentile(by_op["predict_batch"], 50),
        "rps": completed / elapsed,
        "observe_p50_ms": percentile(by_op["observe_stream"], 50),
        "observe_p95_ms": percentile(by_op["observe_stream"], 95),
        "samples": {op: len(v) for op, v in by_op.items()},
        "segments": segments,
        "pool": pool,
    }
    return out


def serve_layers(result: dict) -> dict:
    """Per-layer metrics from the servers' stats/metrics ops (segment medians)."""
    import serving

    per_seg = []
    for seg in result["segments"]:
        metrics, stats = seg["metrics"], seg["stats"]
        counters = metrics["counters"]
        hist = metrics["histograms"].get("serve.request_seconds", {})
        server_ms = 1e3 * hist["sum"] / hist["count"] if hist.get("count") else 0.0
        client_mean_ms = 1e3 * float(np.mean([e[2] for e in seg["log"]]))
        batching = stats["batching"]
        occupancy = float(batching["mean_occupancy"])
        rows = result["pool"][0]
        predict_rows_us = serving.time_predict_rows(
            seg["registry"], int(stats["model_version"]), rows, max(1, round(occupancy))
        )
        stream = stats.get("updates", {}).get("stream", {})
        per_seg.append({
            **ga_engine_layers(counters),
            "serve.server_ms": server_ms,
            "serve.transport_ms": client_mean_ms - server_ms,
            "serve.batch.ticks": batching["ticks"],
            "serve.batch.mean_occupancy": occupancy,
            "serve.batch.wait_ms": server_ms - predict_rows_us / 1e3,
            "serve.predict_rows_us": predict_rows_us,
            "stream.refreshes": stream.get("refreshes", 0),
            "stream.respecs": stream.get("respecs", 0),
            "registry.publishes": len(list((seg["registry"]).rglob("v*.json"))),
            "serve.stream_publish_deferred": counters.get("serve.stream_publish_deferred", 0),
        })
    return {name: median([m[name] for m in per_seg]) for name in per_seg[0]}


# -- command line ------------------------------------------------------------


def run_workload(spec: dict, workload: str, scale: str, seed: int, seconds: float,
                 trace: int) -> dict:
    run_dir = ROOT / ".perfbench_run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if workload == "serve-mixed":
            result = run_serve(run_dir, seed, seconds)
            layers = serve_layers(result) if trace else {}
        else:
            result = run_batch(workload, run_dir, scale, seed, seconds, trace)
            layers = batch_layers(workload, result) if trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        layers.update(
            {layer: result[name] for name, (_, _, layer) in WORKLOAD_METRICS.items() if name in result}
        )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float((layers if trace else result).get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    result["layers"] = layers
    result["json"] = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    return result


def report(spec: dict, workload: str, result: dict, trace: int) -> str:
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    units.update({name: (unit, better) for name, (unit, better, _) in WORKLOAD_METRICS.items()})
    lines = [f"== {workload}: attempted {result['attempted']}, failed {result['failed']}"]
    for name, (unit, better) in units.items():
        if name in result:
            lines.append(f"  {name:<16s} {result[name]:>12.4f} {unit:<6s} ({better} is better)")
    if "samples" in result:
        lines.append(f"  latency samples per op: {result['samples']}")
    for i, (targets, predictions) in enumerate(result.get("digests", [])):
        lines.append(f"  digest rep{i}: targets {targets} predictions {predictions}")
    if trace and "reps" in result:
        traced = [r for r in result["reps"] if r["traced"]]
        lines.append(format_ledger(f"  ledger ({workload}, first traced build)",
                                   ledger(traced[0]["spans"], traced[0]["wall_s"])))
    for name, value in result["layers"].items():
        lines.append(f"  {name:<36s} {value:>14.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="small",
        help="experiments.common.SCALES entry for the batch workloads ('tiny': self-test)",
    )
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Compile the program once up front, as an installed package would be,
    # so set-up time measures imports and not byte-compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                   check=True, stdout=subprocess.DEVNULL)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = {}
    for workload in workloads:
        result = run_workload(spec, workload, args.scale, args.seed, args.seconds, args.trace)
        print(report(spec, workload, result, args.trace), flush=True)
        outputs[workload] = result["json"]
    if args.workload == "all":
        print(json.dumps(outputs))
    else:
        print(json.dumps(outputs[args.workload]))
    return 0 if all(o["correct"] for o in outputs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
