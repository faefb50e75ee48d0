"""walknet benchmark: one workload per process, closed loop, single caller.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A run builds the workload's task list from --seed (set-up), then makes the
workload's fixed number of passes over it (workloads.PASSES): light tasks
run in every pass, heavy ones in every few.  One caller runs each task only
after the previous one has finished.  --seconds caps the run: no pass
starts that would likely end after it.  --trace 0 reports the end-to-end
metrics; --trace 1 wraps the walknet layers in spans, makes only the passes
that run every task, and reports per-pass per-layer metrics instead.
--workload all runs every workload untraced and traced, each in its own
process, and reports the tracing overhead.

A task's latency (its walknet call plus the check of its output) is its
fastest repeat over the run's passes: task_ms_p50 and task_ms_p90 are
percentiles of those over the workload's tasks, and tasks_per_s is the
number of completed tasks over their sum.  The plain wall-clock rate is in
the record.
setup_s is the median of SETUP_SAMPLES set-ups: one in the run's process,
the rest in fresh processes spread between the passes.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The line before it is the full record: environment, sample counts, failures
with their messages, and a digest of the seeded outputs.

walknet is imported from src/ next to this directory and nowhere else; a
checkout without it exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "network", "mqss")
SETUP_SAMPLES = 7
MAX_FAILURE_RECORDS = 20


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def setup(workload: str, seed: int, small: bool):
    """Import walknet, load its bundled data and build the pass (timed)."""
    if not (SRC / "walknet" / "__init__.py").is_file():
        raise BenchError(f"no walknet sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    tasks = workloads.build(workload, seed, small)
    elapsed = time.perf_counter() - t0
    import walknet

    if SRC not in Path(walknet.__file__).resolve().parents:
        raise BenchError(f"walknet was imported from {walknet.__file__}, not {SRC}")
    return workloads, tasks, elapsed


def fresh_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"set-up process failed: {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_passes(workloads, tasks, passes: int, heavy_every: int, seconds: float,
               tracer=None, after_pass=None) -> dict:
    """``passes`` passes over ``tasks``, fewer if the next pass would likely
    end after ``seconds``; heavy tasks run only in passes 0, heavy_every,
    2 * heavy_every, ...  ``after_pass(done)`` runs between passes.

    ``fastest`` is each task's fastest execution over the passes, sorted.
    Every pass repeats the same seeded work, so the fastest repeat leaves out
    the stretches in which a shared machine runs slow; on wall time alone
    they move a 30-second run by up to a third.
    """
    fastest = [math.inf] * len(tasks)
    outputs: list[str | None] = [None] * len(tasks)   # status and digest data
    repeats_match = True
    failures: list[dict] = []
    failed = rejected = attempted = 0
    failed_tasks: set[int] = set()
    rejected_tasks: set[int] = set()
    light = [(i, t) for i, t in enumerate(tasks) if not t.heavy]
    pass_seconds: list[float] = []
    last_seconds: dict[bool, float] = {}
    task_nid = tracer.intern(tracing.TASK_SPAN) if tracer else None
    clock = time.perf_counter
    start = clock()
    for p in range(passes):
        heavy = p % heavy_every == 0
        estimate = last_seconds.get(heavy, pass_seconds[-1] if pass_seconds else 0.0)
        if p and clock() - start + estimate > seconds:
            break
        pass_start = clock()
        for i, task in (enumerate(tasks) if heavy else light):
            if tracer:
                tracer.task_id += 1
                span = tracer.open(task_nid)
            t0 = clock()
            try:
                try:
                    out = task.call()
                except workloads.NetworkError as exc:
                    if not task.refused(exc):
                        raise
                    status, data = "rejected", str(exc)
                else:
                    status, data = "ok", task.check(out)
            except Exception as exc:   # the run goes on; the task counts as failed
                status, data = "failed", None
                failures.append({"task": f"{task.name} {task.params}",
                                 "error": f"{type(exc).__name__}: {exc}"})
            fastest[i] = min(fastest[i], clock() - t0)
            if tracer:
                tracer.close(span)
            attempted += 1
            if status == "failed":
                failed += 1
                failed_tasks.add(i)
            elif status == "rejected":
                rejected += 1
                rejected_tasks.add(i)
            output = json.dumps([task.name, task.params, status, data],
                                sort_keys=True, default=str)
            if outputs[i] is None:
                outputs[i] = output
            repeats_match &= outputs[i] == output
        last_seconds[heavy] = clock() - pass_start
        pass_seconds.append(last_seconds[heavy])
        if after_pass:
            after_pass(len(pass_seconds))
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    return {"pass_seconds": pass_seconds, "attempted": attempted, "fastest": sorted(fastest),
            "failed": failed, "rejected": rejected, "failures": failures,
            "tasks_failed": len(failed_tasks), "tasks_rejected": len(rejected_tasks),
            "digest": digest, "digest_repeats": repeats_match}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> tuple[str | None, int | None]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:   # older numpy has no dict form
        return None, None
    # the library numpy loaded, asked for its thread count
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return name, int(getattr(lib, symbol)())
    return name, None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:   # no git installed
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    blas, blas_threads = _blas()
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "git_commit": _git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tasks_per_s(run: dict) -> float:
    """Completed tasks per second of one pass over every task, each run at
    its fastest latency."""
    return (len(run["fastest"]) - run["tasks_failed"]) / sum(run["fastest"])


def end_to_end(run: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    lat = run["fastest"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (tasks_per_s(run), "1/s"),
        "task_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "task_ms_p90": (1e3 * p90, "ms"),
        # tasks answered with a checked result, not refused by the library
        "served_frac": ((len(lat) - run["tasks_failed"] - run["tasks_rejected"]) / len(lat),
                        "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_one(args) -> int:
    workloads, tasks, setup_s = setup(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    planned, heavy_every = workloads.PASSES[args.workload]
    setups = [setup_s]
    tracer = after_pass = None
    if args.trace:
        # only the passes that run every task, so that layer counts are per pass
        planned, heavy_every = -(-planned // heavy_every), 1
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
    else:
        def after_pass(done: int) -> None:
            while len(setups) < 1 + (SETUP_SAMPLES - 1) * done // planned:
                setups.append(fresh_setup_seconds(args))

    run = run_passes(workloads, tasks, planned, heavy_every, args.seconds, tracer, after_pass)
    attempted, passes = run["attempted"], len(run["pass_seconds"])
    if tracer:
        metrics = tracing.layer_metrics(tracer, passes)
        metrics["trace.tasks_per_s"] = (tasks_per_s(run), "1/s")
        metrics["trace.spans"] = (len(tracer.start) / passes, "count")
        samples = dict.fromkeys(metrics, passes)
        if args.spans:
            tracer.dump(args.spans)
    else:
        metrics = end_to_end(run, setups)
        samples = dict.fromkeys(metrics, len(tasks))
        samples.update(setup_s=len(setups), peak_rss_mb=1)
        p90_s = metrics["task_ms_p90"][0] / 1e3
        samples["latencies_beyond_p90"] = sum(lat > p90_s for lat in run["fastest"])
        samples["repeats_per_latency"] = {"light": passes,
                                          "heavy": -(-passes // heavy_every)}

    record = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "passes_planned": planned, "pass_seconds": run["pass_seconds"],
        "tasks": len(tasks), "heavy_tasks": sum(t.heavy for t in tasks),
        "attempted": attempted, "failed": run["failed"], "rejected": run["rejected"],
        "wall_tasks_per_s": (attempted - run["failed"]) / sum(run["pass_seconds"]),
        "tasks_failed": run["tasks_failed"], "tasks_rejected": run["tasks_rejected"],
        "failures": run["failures"][:MAX_FAILURE_RECORDS],
        "digest": run["digest"], "digest_repeats": run["digest_repeats"],
        "setup_samples_s": setups, "samples": samples,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6g} {unit}")
    print(json.dumps(record))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": attempted,
                      "failed": run["failed"], "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    combined: dict[str, dict] = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"]
            combined.setdefault(workload, {})["traced" if trace else "untraced"] = \
                json.loads(lines[-2])
            for name, m in result["metrics"].items():
                print(f"{workload:8s} {name:45s} {m['value']:16.6g} {m['unit']}")
        entry = combined[workload]
        plain = entry["untraced"]["metrics"]["tasks_per_s"]["value"]
        traced = entry["traced"]["metrics"]["trace.tasks_per_s"]["value"]
        entry["tracing_overhead"] = 1 - traced / plain
        print(f"{workload:8s} {'tracing_overhead':45s} {entry['tracing_overhead']:16.6g} "
              "share of tasks_per_s")
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--spans", help="traced run: write every span to this JSONL file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
