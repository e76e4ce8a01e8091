"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the workers import mixerlab
from ``src/`` of that checkout and nowhere else.

``--trace 0`` splits the measuring window over two worker processes run
one after another and pools their repetitions, so that one process that
runs fast or slow throughout does not set the medians alone (on a shared
VM the speed of a process drifts by up to 25-30%). Every phase of a plain
repetition is timed between two runs of a fixed reference job
(``yardstick.py``); ``job_ref`` is the median over repetitions of the
job's time in reference units, which cancels the drift both share, and
``job_s`` is printed beside it. ``setup_s`` is the median over the
workers. ``--trace 1`` runs one worker that alternates plain and traced
repetitions and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object; the lines before it
list every metric with its unit, the environment and any failed check.
The full result (and, when traced, the spans) is written under
``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from worker import BLAS_THREADS, OUT, ROOT  # also pins the BLAS thread count for this process

WORKERS = 2
WORKER_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# environment


def openblas_info():
    import ctypes

    import numpy as np

    version, threads = "unknown", None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), get_threads()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("version", version), threads


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT, env=env
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args):
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_version, blas_threads = openblas_info()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": git_commit(),
        "command": [sys.executable] + sys.argv,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# pooling the workers


def run_workers(args):
    """Start the workers one after another; None if any failed to produce a result."""
    count = 1 if args.trace else WORKERS
    OUT.mkdir(exist_ok=True)
    results = []
    for i in range(count):
        out = OUT / f"worker-{args.workload}-seed{args.seed}-trace{args.trace}-{i}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / count), "--trace", str(args.trace),
               "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            return None
        results.append(json.loads(out.read_text()))
    return results


def pool(workload, results):
    """End-to-end metrics, per-phase rates and the operation counts of all workers."""
    plain = [r for res in results for r in res["reps"] if not r["traced"]]
    end_to_end = {"setup_s": (statistics.median(res["setup_s"] for res in results), "s")}
    rates = {"job_s": (statistics.median(sum(r["seconds"].values()) for r in plain), "s")}
    paired = [r for r in plain if r["ref_s"]]  # traced runs time no yardstick
    if paired:
        end_to_end["job_ref"] = (statistics.median(r["job_ref"] for r in paired), "ratio")
        rates["ref_s"] = (statistics.median(v for r in paired for v in r["ref_s"].values()), "s")
    end_to_end["peak_rss_mb"] = (max(res["peak_rss_mb"] for res in results), "MB")
    for phase in workload.phases:
        samples = [r["work"][phase.name][0] / r["work"][phase.name][1] for r in plain if phase.name in r["work"]]
        if samples:
            rates[phase.metric] = (statistics.median(samples), phase.unit)
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    failures = [f for res in results for f in res["failures"]]
    # every process must reproduce the first one's outputs
    first = results[0]["reference"]
    for i, res in enumerate(results[1:], 1):
        for phase, dig in first.items():
            attempted += 1
            if res["reference"].get(phase) != dig:
                failed += 1
                failures.append(f"{phase}.same_across_processes: worker {i}")
    return end_to_end, rates, attempted, failed, failures, len(plain)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "invert", "retrieve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    results = run_workers(args)
    if results is None:
        print("bench: a worker failed; no result", file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    end_to_end, rates, attempted, failed, failures, n_plain = pool(workload, results)
    fail_ratio = failed / max(attempted, 1)
    per_layer = {k: tuple(v) for k, v in results[0].get("per_layer", {}).items()}
    missing = results[0].get("missing", [])

    print("env " + json.dumps(env, sort_keys=True))
    print(f"reps {n_plain} plain from {len(results)} worker(s), warm-ups excluded")
    for name, (value, unit) in {**end_to_end, **rates}.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_ratio {fail_ratio:.6g} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in per_layer.items():
        print(f"layer {name} {value:.6g} {unit}")
    for name in missing:
        print(f"missing {name}")
    for failure in failures:
        print(f"FAILED {failure}")

    result = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fail_ratio": fail_ratio,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **rates}.items()},
        "workers": results,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
