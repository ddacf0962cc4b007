"""qskein benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload traces --seed 0 --seconds 55 --trace 0

Runs the workload's jobs one after another in a closed loop with one
client, repeating the whole job list a fixed number of times per workload
(fewer if the next pass would not fit in --seconds), and checks every
output.  Each job's time is its median over the passes.  A probe run
between jobs measures how fast the machine ran, and the timings are
reported in seconds at a fixed reference speed (speed.py).
With --trace 0 it prints the end-to-end metrics, measured with no tracing
installed; with --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Full results, and the spans of a traced run, go to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1                  # BLAS/OpenMP pool size; one client, one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9            # fresh processes timed for setup_s
SETUP_PROBES = 3             # speed probe samples next to each of them
# Passes per run.  A job's time is its median over the passes.  The count
# is fixed rather than set by the time budget, so that two commits take the
# same samples.  Sized so that the passes, checks included, fill about 40 s
# of the default 55 s on a 2-vCPU VM and still fit when it runs a third
# slower.
PASSES = {"certify": 4, "flipwalk": 6, "traces": 6}
DEFAULT_SEED = 0
WORKLOADS = ("certify", "flipwalk", "traces")

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("top_rung_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "1"))


def configure_environment():
    """Cap the BLAS pools and make the checkout's qskein importable.

    Must run before numpy is first imported.  Raises ImportError when the
    checkout has no qskein sources."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qskein
    if not Path(qskein.__file__).resolve().is_relative_to(src):
        raise ImportError("qskein imported from %s, not from %s" % (qskein.__file__, src))


def environment(args, n_jobs):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": THREADS, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "jobs": n_jobs}


# ---------------------------------------------------------------------------
# passes


class Pass(NamedTuple):
    times: list              # wall seconds per job
    cpus: list               # user + system CPU seconds of the process per job

    @property
    def wall(self):
        return sum(self.times)


def run_pass(jobs, tracer=None, probe=None):
    """Run every job once; returns the Pass and [(output, error text)].

    The previous pass's garbage is collected first, so every pass starts
    from the same heap.  A given speed probe samples between jobs, outside
    their timing."""
    gc.collect()
    times, cpus, outputs = [], [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out, error = job.run(), None
        except Exception:       # a failed job is counted, the run goes on
            out, error = None, traceback.format_exc()
        times.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        outputs.append((out, error))
        if probe is not None:
            probe.maybe()
    return Pass(times, cpus), outputs


def judge(jobs, outputs, golden, reference=None):
    """Digests and problems of one pass.  A job fails on an exception, a
    failed check, a digest other than its golden one (golden.json holds
    every input that any seed draws, so a missing one is a failure too), or
    (given reference digests from another pass) a digest other than the
    reference.  Only make_golden.py passes golden=None."""
    import checks
    digests, problems = [], []
    for i, (job, (out, error)) in enumerate(zip(jobs, outputs)):
        if error is not None:
            digests.append(None)
            problems.append(["exception: " + error.strip().splitlines()[-1]])
            sys.stderr.write(error)
            continue
        found = job.check(out)
        d = checks.digest(job.digest(out))
        if golden is not None and job.key not in golden:
            found.append("no golden digest for this input")
        elif golden is not None and golden[job.key] != d:
            found.append("digest %s != golden %s" % (d, golden[job.key]))
        if reference is not None and reference[i] != d:
            found.append("digest differs between traced and untraced passes")
        digests.append(d)
        problems.append(found)
    return digests, problems


class Budget:
    """Start another pass only if the workload's pass count is not reached
    and a typical pass, its checks included, still fits in the time budget."""

    def __init__(self, workload, seconds):
        self.passes = PASSES[workload]
        self.seconds = seconds
        self.start = time.perf_counter()
        self.spent = []          # seconds per pass, checks included

    def allows(self):
        now = time.perf_counter()
        self.spent.append(now - self.start - sum(self.spent))
        typical = statistics.median(self.spent)
        return (len(self.spent) < self.passes
                and now - self.start + typical <= self.seconds)


def load_golden(workload):
    return json.loads((HERE / "golden.json").read_text()).get(workload, {})


def job_median(samples):
    """Each job's median sample over the passes."""
    return [statistics.median(ts) for ts in zip(*samples)]


def measure(workload, seconds, jobs, golden, probe):
    """End-to-end metrics of untraced passes, in seconds at the reference
    speed, and the same metrics as measured.  Each job's time is its median
    over the run's passes; wall_s sums those times, and cpu_s sums each
    job's median CPU time the same way.  Other tenants of a shared host
    slow the machine for minutes at a time; the probe samples taken between
    the jobs measure by how much, and every timing is divided by that
    factor."""
    budget, passes, judged = Budget(workload, seconds), [], []
    probe.sample()
    while True:
        done, outputs = run_pass(jobs, probe=probe)
        passes.append(done)
        judged.append(judge(jobs, outputs, golden))
        del outputs
        if not budget.allows():
            break
    times = job_median(p.times for p in passes)
    top = [i for i, job in enumerate(jobs) if job.top]
    raw = {
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "top_rung_s": times[top[0]] if top else 0.0,
        "cpu_s": sum(job_median(p.cpus for p in passes)),
    }
    factor = probe.factor()
    metrics = {name: value / factor for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, raw, factor, passes, judged, budget.spent


def measure_traced(workload, seed, seconds, jobs, golden):
    """Per-layer metrics: untraced and traced passes alternate; the layer
    numbers come from the first traced pass together with a traced build of
    the inputs, the overhead from the median pass of each kind."""
    import tracing
    import workloads
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_jobs = workloads.build(workload, seed)
    budget, plain, traced, judged = Budget(workload, seconds), [], [], []
    while True:
        done, outputs = run_pass(jobs)
        plain.append(done)
        judged.append(judge(jobs, outputs, golden))
        pass_tracer = tracer if not traced else tracing.Tracer()
        with pass_tracer.installed():
            done, outputs = run_pass(traced_jobs, pass_tracer)
        traced.append(done)
        judged.append(judge(traced_jobs, outputs, golden, reference=judged[-1][0]))
        del outputs
        if not budget.allows():
            break
    overhead = (statistics.median(t.wall for t in traced)
                / statistics.median(p.wall for p in plain) - 1)
    return (tracer, tracing.layer_metrics(tracer, overhead), plain + traced, judged,
            budget.spent)


def setup_seconds(workload, seed, probe):
    """Median, over fresh processes, of process start until the workload's
    inputs are built (interpreter start, ``import qskein``, seeded input
    generation), as measured and in seconds at the reference speed, with
    the speed factor of probe samples taken between the processes.
    time.monotonic is one clock for every process."""
    samples, first = [], len(probe.samples)
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe.sample()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    raw, factor = statistics.median(samples), probe.factor(first)
    return raw / factor, raw, factor


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        configure_environment()
    except ImportError as exc:
        print("perfbench: cannot import qskein from the checkout: %s" % exc,
              file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        print(time.monotonic())
        return 0

    golden = load_golden(args.workload)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    jobs = workloads.build(args.workload, args.seed)
    speeds, raw = {}, {}
    if args.trace:
        tracer, metrics, passes, judged, spent = measure_traced(
            args.workload, args.seed, args.seconds, jobs, golden)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        probe = speed.Probe()
        metrics, raw, speeds["passes"], passes, judged, spent = measure(
            args.workload, args.seconds, jobs, golden, probe)
        units = dict(END_TO_END)
    attempted = sum(len(problems) for _, problems in judged)
    failed = sum(bool(p) for _, problems in judged for p in problems)
    if not args.trace:
        metrics["setup_s"], raw["setup_s"], speeds["setup"] = setup_seconds(
            args.workload, args.seed, probe)
        metrics["pass_ratio"] = 1 - failed / attempted
        metrics = {name: metrics[name] for name, _ in END_TO_END}

    env = environment(args, len(jobs))
    table = [{"job": job.key, "top": job.top, "median_s": statistics.median(times),
              "times_s": times,
              "problems": sorted({x for _, problems in judged for x in problems[i]})}
             for i, (job, times) in enumerate(zip(jobs, zip(*(p.times for p in passes))))]
    if args.trace:
        tracer.dump(out_dir / ("spans-" + stem + ".json"), env)
    (out_dir / (stem + ".json")).write_text(json.dumps(
        {"env": env, "passes": len(passes), "pass_s": spent, "attempted": attempted,
         "failed": failed, "metrics": metrics, "speed_factor": speeds,
         "raw_metrics": raw, "jobs": table}, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    for row in table:
        status = "ok" if not row["problems"] else "FAILED " + "; ".join(row["problems"])
        print("job %-60s %9.4f s  %s" % (row["job"][:60], row["median_s"], status))
    print("passes %d  attempted %d  failed %d  fail_ratio %.4f"
          % (len(passes), attempted, failed, failed / attempted))
    for name, value in speeds.items():
        print("speed factor %-30s %.4f" % (name, value))
    for name, value in metrics.items():
        print("metric %-36s %.6g %s" % (name, value, units[name]))
    for name, value in raw.items():
        print("measured %-34s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
