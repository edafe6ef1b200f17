"""Benchmark entry point.

    python3 perfbench/run.py --workload {selftest,verify,search} --seed N \
        --seconds S --trace {0,1}

Runs in one process on one thread, from the root of a source checkout (it
imports ``src/extensor``; nothing needs building).  Set-up (importing the
package and generating the inputs) is repeated and timed; then

* ``--trace 0`` makes one pass over the workload's fixed job list, sharing
  the ``S`` seconds out over its jobs (see Pass), and reports the end-to-end
  metrics, taking each job's fastest run as its latency;
* ``--trace 1`` makes one untraced pass, installs the tracer, repeats the
  set-up and one pass under it, and reports the per-layer metrics together
  with the tracing overhead (traced minus untraced pass time); each job runs
  once in either pass.

Every job output is checked (see workloads.py).  The last stdout line is the
result JSON; the line before it carries the run's context (commit, versions,
tail percentile).  A copy of both, with the per-function table and the raw
spans of a traced run, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from math import floor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_BEFORE, SETUP_AFTER = 5, 4  # timed set-ups before and after the pass
REPEAT_MAX = 50  # runs of one job in a timed pass
SHORT_JOB_S = 0.25  # a job whose first run is shorter ...
SHORT_JOB_RUNS = 3  # ... runs at least this many times
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it


def percentile(values, p):
    """p-th percentile, linear between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest whole percentile of n samples with at least `beyond` samples above it."""
    for p in range(99, 0, -1):
        if n - 1 - floor((n - 1) * p / 100) >= beyond:
            return p
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")


class Pass:
    """One pass over the job list.

    Each job runs once and its output is checked.  With a ``budget`` (seconds
    per job), rounds over the job list follow, rerunning each job until its
    runs have taken that long (and, if it is short, until it has run
    SHORT_JOB_RUNS times), at most REPEAT_MAX times.  Rounds spread a job's
    reruns over the whole pass, so a slow spell of the machine does not cover
    all of them.  Each rerun's output is compared with the first.  ``best``
    keeps each job's fastest run, ``wall`` the sum of first runs.
    """

    def __init__(self, workload, reference=None, tracer=None, budget=0.0):
        jobs = workload.jobs
        self.summaries, self.ok, times = [], [], []
        gc.collect()
        for index, job in enumerate(jobs):
            out, elapsed = self._execute(job, tracer, index)
            times.append([elapsed])
            self.summaries.append(None if out is None else job.summary(out))
            self.ok.append(
                out is not None and self._verdict(job, out, self.summaries[index], reference, index)
            )
        check_pass = getattr(workload, "check_pass", None)
        if check_pass is not None and not check_pass(self.summaries):
            self.ok = [False] * len(self.ok)

        def wants_more(i):
            runs = times[i]
            short = runs[0] < SHORT_JOB_S
            return (
                self.ok[i]
                and len(runs) < REPEAT_MAX
                and (sum(runs) < budget or short and len(runs) < SHORT_JOB_RUNS)
            )

        pending = [i for i in range(len(jobs)) if budget and wants_more(i)]
        while pending:
            for i in pending:
                out, elapsed = self._execute(jobs[i])
                times[i].append(elapsed)
                self.ok[i] = out is not None and jobs[i].summary(out) == self.summaries[i]
            pending = [i for i in pending if wants_more(i)]
        self.best = [min(runs) for runs in times]
        self.runs = sum(map(len, times))
        self.wall = sum(runs[0] for runs in times)

    @staticmethod
    def _execute(job, tracer=None, index=-1):
        if tracer is not None:
            tracer.job = index
            tracer.active = True
        start = perf_counter()
        try:
            out = job.run()
        except Exception:  # a job that raises counts as failed
            out = None
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        return out, elapsed

    @staticmethod
    def _verdict(job, out, summary, reference, index):
        if reference is not None:
            return summary == reference[index]
        try:
            return bool(job.check(out))
        except Exception:  # a check that cannot complete is a failed output
            traceback.print_exc(file=sys.stderr)
            return False


def _commit():
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = res.stdout.split()
    if res.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "extensor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("selftest", "verify", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extensor" / "__init__.py").is_file():
        print(f"perfbench: no extensor sources under {SRC}", file=sys.stderr)
        return 2
    # one thread: keep numpy's BLAS pool single-threaded (before numpy loads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    from layers import function_table, layer_metrics
    from tracer import Tracer, span_table
    from workloads import WORKLOADS, import_package

    make = WORKLOADS[args.workload]

    def set_up():
        gc.collect()  # free the previous copy: peak RSS should not depend on GC timing
        start = perf_counter()
        ex = import_package()
        workload = make(ex, args.seed)
        setup_times.append(perf_counter() - start)
        return ex, workload

    setup_times = []
    for _ in range(SETUP_BEFORE):
        ex, workload = set_up()
    if not Path(ex.package.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported extensor from {ex.package.__file__}", file=sys.stderr)
        return 2

    n_jobs = len(workload.jobs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "jobs_per_pass": n_jobs,
    }
    record = {}

    if args.trace == 0:
        # the --seconds budget is shared out evenly over the jobs
        passes = [Pass(workload, budget=args.seconds / n_jobs)]
        for _ in range(SETUP_AFTER):  # set-up samples from both ends of the run
            set_up()
        job_ms = [t * 1e3 for t in passes[0].best]
        wall = sum(passes[0].best)
        metrics = {
            "wall_s": _metric(wall, "s"),
            "jobs_per_s": _metric(n_jobs / wall, "1/s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        # job latency percentiles: recorded, not gated (see README)
        tail_p = tail_percentile(n_jobs)
        info.update(
            job_runs=passes[0].runs,
            first_run_wall_s=passes[0].wall,
            setup_s_samples=setup_times,
            job_ms_p50=percentile(job_ms, 50),
            job_ms_tail=percentile(job_ms, tail_p),
            job_ms_tail_percentile=tail_p,
            job_ms_tail_samples=n_jobs,
            job_ms_tail_beyond=n_jobs - 1 - floor((n_jobs - 1) * tail_p / 100),
        )
        record["jobs_ms"] = {
            f"{i:03d} {job.label}": ms for i, (job, ms) in enumerate(zip(workload.jobs, job_ms))
        }
    else:
        passes = [Pass(workload)]
        tracer = Tracer()
        tracer.install(ex.package)
        try:
            tracer.active = True
            traced_workload = make(ex, args.seed)
            tracer.active = False
            setup_table = span_table(tracer)
            tracer.clear()
            passes.append(Pass(traced_workload, passes[0].summaries, tracer))
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics = layer_metrics(tracer, setup_table, passes[1].wall, passes[0].wall)
        info.update(untraced_wall_s=passes[0].wall, traced_wall_s=passes[1].wall)
        record["functions"] = function_table(tracer)

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    info["fail_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "info": info, **record}, indent=1) + "\n"
    )
    if args.trace:
        with gzip.open(OUT / f"{stem}.spans.csv.gz", "wt") as fh:
            fh.write("id,name,job,start_ns,end_ns,parent,leaf_ns\n")
            fh.writelines(",".join(map(str, span)) + "\n" for span in tracer.spans)

    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
