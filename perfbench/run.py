"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload answer --seed 1 --seconds 25 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json; `--trace 1` prints its per-layer metrics, taken from a pass
run under the tracer after an identical untraced pass. The line before the
result holds the details: environment stamp, output digest, checks.
Timed end-to-end metrics are rescaled to the host's full speed (see
hostspeed.py); the detail line also holds them in plain wall time.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread. The towers' matrices are tiny, so a second thread saves
# little, and on a shared few-vCPU host waking it measures the scheduler.
# Set before numpy loads OpenBLAS, which reads it once.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # tracing and workloads import retforge
try:
    import hostspeed
    import tracing
    import workloads
except ModuleNotFoundError as exc:
    sys.exit(f"error: run from a retforge checkout; {exc}")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 95


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "retforge").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Set-up and passes of one workload, with their timings."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.setups: list[tuple[float, float]] = []  # perf_counter around each set-up
        self.passes, self.outcomes = [], []

    def fresh(self):
        start = time.perf_counter()
        state = self.workload.setup(self.seed, self.work)
        self.setups.append((start, time.perf_counter()))
        return state

    def run(self, state, number: int, tracer=None):
        gc.collect()  # start every pass without the garbage of the one before
        try:
            p = self.workload.run_pass(state, number, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        outcome = self.workload.check(state, p)
        self.passes.append(p.counts())  # the outputs are checked; keep only the counts
        self.outcomes.append(outcome)
        return p, outcome


def measure(workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    runner = Runner(workload, seed, work)
    with hostspeed.SpeedClock() as speed:
        for _ in range(SETUP_REPEATS):
            state = None  # let the previous set-up go before building the next
            state = runner.fresh()
        need = stats.min_samples(TAIL_PERCENTILE)
        number = 0
        while True:
            if number and workload.fresh_state_per_pass:
                state = None
                state = runner.fresh()
            runner.run(state, number)
            if not runner.passes[-1].operations:
                raise RuntimeError(f"pass {number} of {workload.name} ran no operations")
            number += 1
            passes = runner.passes
            measured = sum(p.measured_s for p in passes)
            if measured >= seconds and sum(len(p.asked) for p in passes) >= need:
                break

    passes, outcomes = runner.passes, runner.outcomes
    metrics = timing_metrics(runner, speed.scaled)
    wall = timing_metrics(runner, lambda start, end: end - start)
    metrics.update({"peak_rss_mb": peak_rss_mb(), "final_loss": outcomes[0].final_loss})
    problems = [m for o in outcomes for m in o.failures]
    if workload.fresh_state_per_pass and len({o.digest for o in outcomes}) != 1:
        problems.append("repeated passes from one seed produced different digests")
    detail = {
        "passes": len(passes),
        "question_samples": sum(len(p.asked) for p in passes),
        "wall_metrics": wall,
        "host_speed": speed.summary(),
        "pass_s": [p.measured_s for p in passes],
        "setup_samples_s": [speed.scaled(*s) for s in runner.setups],
        "digest": outcomes[0].digest,
        "dev_top1": outcomes[0].dev_top1,
        "em": outcomes[0].em,
    }
    return metrics, _tally(passes, outcomes, problems, detail)


def timing_metrics(runner: Runner, duration) -> dict:
    """The timed end-to-end metrics, with `duration(start, end)` as the clock."""
    latencies = [duration(*a) for p in runner.passes for a in p.asked]
    question_s = sum(latencies)
    train_s = sum(duration(*p.train) for p in runner.passes)
    examples = sum(p.examples for p in runner.passes)
    return {
        "setup_s": stats.median([duration(*s) for s in runner.setups]),
        "examples_per_s": examples / (train_s if train_s else question_s),
        "questions_per_s": len(latencies) / question_s,
        "question_ms.p50": 1e3 * stats.median(latencies),
        "question_ms.p95": 1e3 * stats.tail_percentile(latencies, TAIL_PERCENTILE),
    }


def trace_layers(workload, seed: int, work: Path) -> tuple[dict, dict]:
    """One untraced pass, then the same pass under the tracer."""
    runner = Runner(workload, seed, work)
    state = runner.fresh()
    runner.run(state, 0)
    untraced = runner.passes[-1]
    if workload.fresh_state_per_pass:
        state = None
        state = runner.fresh()
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    missing = tracer.unwrapped_bindings()
    traced, outcome = runner.run(state, 0, tracer)  # restores the originals

    problems = [m for o in runner.outcomes for m in o.failures]
    problems += [f"binding not wrapped: {name}" for name in missing]
    problems += [f"wrapper left installed: {name}" for name in tracing.leftover_wrappers()]
    if len({o.digest for o in runner.outcomes}) != 1:
        problems.append("the traced pass produced different outputs than the untraced one")
    metrics = tracing.layer_metrics(tracer)
    for name, expected in workload.expected_calls(state, traced).items():
        if metrics[name] != expected:
            problems.append(f"{name} is {metrics[name]}, expected {expected}")
    metrics.update({
        "trace.run_s": traced.measured_s,
        "trace.untraced_run_s": untraced.measured_s,
        "trace.overhead_s": traced.measured_s - untraced.measured_s,
    })
    detail = {"digest": outcome.digest, "spans": {
        name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s}
        for name, s in sorted(tracer.spans.items())
    }}
    return metrics, _tally(runner.passes, runner.outcomes, problems, detail)


def _tally(passes, outcomes, problems, detail) -> dict:
    attempted = sum(p.operations for p in passes)
    failed = sum(o.failed_ops for o in outcomes)
    detail.update({
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "correct": not problems,
    })
    return detail


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: run from a retforge checkout; {spec_path.name} is missing",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    # per-batch duplicate-context notices would only add stderr noise
    warnings.filterwarnings("ignore", category=UserWarning, module=r"retforge\.|tracing$")

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            values, detail = trace_layers(workload, args.seed, work)
        else:
            values, detail = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": values,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
