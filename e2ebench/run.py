"""End-to-end benchmark of the pipe-failure reproduction.

Usage, from the root of the repository::

    python3 e2ebench/run.py --workload grid_small --seed 0 --seconds 10 --trace 0

Runs the workload in fresh child processes (``workload.py``) until
``--seconds`` have been measured (at least once), checks every output,
prints each metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs once untraced and once traced, and the metrics are the
per-layer self times folded from the traced run. ``--record`` stores the
run's AUCs or digests as the references for its seed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import fold
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench"
WORKLOADS = ("grid_small", "compare_large", "region_build")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 3
#: A child process that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0
#: How long helpers the child leaves behind (shared-memory resource
#: tracker) may take to exit before they are killed.
GROUP_GRACE_S = 10.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "auc_mean": "auc",
}
PER_LAYER = {
    "data.load_region_s": "s", "data.segments": "count", "features.build_s": "s",
    "core.fit_s.DPMHBP": "s", "core.fit_s.HBP": "s", "core.fit_s.Cox": "s",
    "core.fit_s.SVM": "s", "core.fit_s.Weibull": "s", "core.fit_s.AUC-Rank": "s",
    "core.predict_s": "s", "core.dpmhbp_visits": "count", "core.dpmhbp_us_per_visit": "us",
    "eval.experiment_s": "s", "eval.metrics_s": "s",
    "parallel.cache_s": "s", "parallel.map_s": "s", "parallel.busy_frac": "frac",
    "parallel.idle_s": "s",
    "runs.cell_s": "s", "runs.journal_s": "s", "runs.checkpoint_s": "s", "runs.resume_s": "s",
    "runs.retries": "count",
    "other_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "frac",
    "host.calibration_s": "s",
}


def child_env(workload: str) -> dict:
    """The user's environment without ``REPRO_*`` overrides (telemetry off)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if workload == "compare_large":  # the `repro compare` path fans out its chains
        env.update(REPRO_EXECUTOR="processes", REPRO_JOBS="2")
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def run_child(argv: list[str], env: dict):
    """Run ``argv`` to completion; its rusage covers it and every worker it reaped.

    The child leads its own process group, so a child that overruns is
    killed with all its workers, and the run returns only once every
    process of the group has ended.
    """
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    grace = time.monotonic() + GROUP_GRACE_S
    while _group_alive(proc.pid) and time.monotonic() < grace:
        time.sleep(0.02)
    if _group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return usage


def repetition(workload: str, seed: int, trace: int, out: Path) -> dict:
    """One cold run of the workload in its own process tree."""
    out.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out), "--trace", str(trace)]
    usage = run_child(argv, child_env(workload))
    result = json.loads((out / "result.json").read_text())
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - result["cpu_before_s"]
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing numpy, scipy and repro."""
    argv = [sys.executable, "-c", "import numpy, scipy, repro"]
    env = child_env("setup")
    subprocess.run(argv, env=env, check=True)  # compiles bytecode once, untimed
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibration_seconds() -> float:
    """Median time of a fixed NumPy plus interpreter loop: a host speed probe."""
    import numpy as np

    x = np.random.default_rng(0).random(100_000)

    def once() -> float:
        start = time.perf_counter()
        for _ in range(20):
            np.sort(x)
            np.exp(x).sum()
        total = 0.0
        for i in range(500_000):
            total += i * 0.5
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": calibration_seconds(),
    }


def end_to_end(reps: list[dict], setup_s: float, attempted: int, failed: int) -> dict:
    aucs = [auc for rep in reps for auc in rep["aucs"]]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - failed / attempted,
        "auc_mean": sum(aucs) / len(aucs),
    }


def per_layer(untraced: dict, traced: dict, spans: list[dict], calibration_s: float) -> dict:
    root = next(s for s in spans if s["pid"] == traced["pid"] and s["name"] == fold.ROOT)
    metrics = {name: 0.0 for name in PER_LAYER}
    times = fold.self_times(spans, traced["pid"])
    for name, seconds in times.items():
        metrics[fold.metric_name(name)] = seconds
    print(f"self times + other_s = {sum(times.values()):.6f} s of traced wall {fold.duration(root):.6f} s")
    visits = fold.span_sum(spans, "core.fit.DPMHBP", "visits")
    chain_s = sum(fold.duration(s) for s in spans if "visits" in s["attrs"])
    if "busy" in traced:  # grid_small: from the journal's cell_completed events
        busy, windows = traced["busy"]
    else:
        busy, windows = fold.fanout_busy(spans, traced["pid"])
    metrics["parallel.busy_frac"], metrics["parallel.idle_s"] = fold.busy_stats(busy, windows)
    metrics.update({
        "data.segments": fold.span_sum(spans, "features.build", "segments"),
        "core.dpmhbp_visits": visits,
        "core.dpmhbp_us_per_visit": 1e6 * chain_s / visits if visits else 0.0,
        "runs.retries": traced.get("retries", 0),
        "trace.wall_s": fold.duration(root),
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        "host.calibration_s": calibration_s,
    })
    return metrics


def record(workload: str, seed: int, observed: dict) -> None:
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    if refs.get("seed", seed) != seed:
        raise SystemExit(f"references are recorded for seed {refs['seed']}, not {seed}")
    refs["seed"] = seed
    refs[workload] = observed
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of repro.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's AUCs or digests as the seed's references")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        host = host_fingerprint()
        if args.trace:
            reps = [repetition(args.workload, args.seed, trace, scratch / f"trace{trace}")
                    for trace in (0, 1)]
            spans = tracer.read_spans(scratch / "trace1")
        else:
            setup_s = setup_seconds()
            reps = []
            start = time.perf_counter()
            while not reps or time.perf_counter() - start < args.seconds:
                reps.append(repetition(args.workload, args.seed, 0, scratch / f"rep{len(reps)}"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics, units = per_layer(*reps, spans, host["calibration_s"]), PER_LAYER
    else:
        metrics, units = end_to_end(reps, setup_s, attempted, failed), END_TO_END
    if args.record:
        record(args.workload, args.seed, reps[0]["observed"])

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} run(s)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(f"correct: {failed == 0} ({failed} of {attempted} units failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
