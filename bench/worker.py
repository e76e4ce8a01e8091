"""One measuring process of a benchmark run.

    python3 bench/worker.py --workload train --seed 1 --seconds 10 --trace 0 --out result.json

``run.py`` starts these one after another and pools what they measure;
run this file directly only to look at one process. The worker imports
mixerlab from ``src/`` of the checkout (timing the import), sets the
workload up, runs the job once to warm up and to take the reference
digests, then repeats it until ``--seconds`` are used up. It writes its
repetitions, check counts and (when traced) per-layer metrics as JSON.
"""

import os

# One BLAS thread: the workloads are single-caller, and a second thread on
# a 2-vCPU box mostly adds run-to-run spread. Must precede the numpy import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_mixerlab():
    """Import the checkout's package, refusing any other copy; returns seconds taken."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import mixerlab
    except ImportError as e:
        raise SystemExit(f"bench: cannot import mixerlab from {SRC}: {e}") from e
    elapsed = time.perf_counter() - t0
    if SRC.resolve() not in Path(mixerlab.__file__).resolve().parents:
        raise SystemExit(f"bench: imported mixerlab from {mixerlab.__file__}, not from {SRC}")
    return elapsed


class Ops:
    """Operations attempted and failed: phase calls plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}{': ' + detail if detail else ''}")


class Rep:
    def __init__(self, traced):
        self.traced = traced
        self.seconds = {}
        self.work = {}
        self.outcomes = {}
        self.ref_s = {}  # phase -> reference-job seconds around it (plain runs only)

    @property
    def job_s(self):
        return sum(self.seconds.values())

    @property
    def job_ref(self):
        """The job's time in reference-job units, each phase against its own neighbours."""
        return sum(self.seconds[name] / ref for name, ref in self.ref_s.items())


def run_rep(workload, ctx, ops, reference, tracer=None, fresh=True, paired=False):
    """One repetition of the job, then its checks (checks are never traced).

    With `paired`, the reference job (yardstick.py) is timed before the
    first phase and after every phase; a phase's reference time is the
    mean of the two beside it.
    """
    import yardstick  # numpy loads with mixerlab, inside the timed import

    if fresh:
        workload.fresh(ctx)
    rep = Rep(traced=tracer is not None)
    if tracer is not None:
        tracer.install("mixerlab")
    last_ref = yardstick.timed() if paired else None
    try:
        for phase in workload.phases:
            try:
                with tracer.span(f"bench.{phase.name}") if tracer is not None else nullcontext():
                    t0 = time.perf_counter()
                    outcome = phase.run(ctx)
                    rep.seconds[phase.name] = time.perf_counter() - t0
                if paired:
                    before, last_ref = last_ref, yardstick.timed()
                    rep.ref_s[phase.name] = (before + last_ref) / 2
            except Exception as e:  # a failing phase is a result, not a crash
                traceback.print_exc(file=sys.stderr)
                ops.record(f"{phase.name}.call", False, repr(e))
                return rep
            ops.record(f"{phase.name}.call", True)
            rep.outcomes[phase.name] = outcome
            rep.work[phase.name] = (outcome.work, outcome.out.get("busy_s", rep.seconds[phase.name]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for name, outcome in rep.outcomes.items():
        if outcome.digest:
            if name not in reference:
                reference[name] = outcome.digest
            else:
                ops.record(f"{name}.rerun_identical", outcome.digest == reference[name])
    try:
        for name, ok in workload.checks(ctx, rep.outcomes):
            ops.record(name, ok)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        ops.record("checks", False, repr(e))
    if not rep.traced:
        rep.outcomes = {}  # keeps peak memory independent of the repetition count
    return rep


def measure(workload_name, seed, seconds, trace, import_s=0.0, spans_path=None):
    """Set up, warm up, then repeat the job for `seconds`; returns the result dict.

    With `trace`, plain and traced repetitions alternate after the warm-up.
    """
    import layers
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{workload_name}-{seed}-{os.getpid()}"
    tmp.mkdir()
    ops = Ops()
    try:
        t0 = time.perf_counter()
        ctx = workload.setup(seed, tmp)
        setup_s = import_s + time.perf_counter() - t0
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
        reference = {}
        # warm-up (the yardstick's too); its outputs are the reference
        run_rep(workload, ctx, ops, reference, fresh=False, paired=tracer is None)
        reps = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(reps) % 2 == 1
            t0 = time.perf_counter()
            rep = run_rep(workload, ctx, ops, reference, tracer if traced else None, paired=tracer is None)
            reps.append((rep, time.perf_counter() - t0))
            if len(rep.seconds) < len(workload.phases):  # a phase raised
                break
            enough = tracer is None or {r.traced for r, _ in reps} == {False, True}
            next_traced = tracer is not None and len(reps) % 2 == 1
            next_wall = statistics.median([w for r, w in reps if r.traced == next_traced] or [reps[-1][1]])
            # stop where the window ends nearest to `seconds`
            if enough and time.perf_counter() - start + next_wall / 2 > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reps = [r for r, _ in reps]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "reference": reference,
        "reps": [{"traced": r.traced, "seconds": r.seconds, "work": r.work, "ref_s": r.ref_s, "job_ref": r.job_ref}
                 for r in reps],
    }
    if tracer is not None:
        plain = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        per_layer, missing, detail = layers.per_layer_metrics(tracer, traced, plain)
        result.update(per_layer={k: list(v) for k, v in per_layer.items()}, missing=missing, trace=detail)
        if spans_path is not None:
            import numpy as np

            np.savez(spans_path, **tracer.arrays())
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "invert", "retrieve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path, required=True, help="result JSON; spans go beside it as .npz")
    args = p.parse_args(argv)
    import_s = import_mixerlab()
    result = measure(
        args.workload, args.seed, args.seconds, args.trace, import_s, spans_path=args.out.with_suffix(".npz")
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
