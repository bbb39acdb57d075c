"""gbsolve benchmark: seeded problem files through ``gbsolve.cli.main``.

    python3 bench/run.py --workload solve-random --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client in one process sends one job at a
time (a closed loop) and times each ``cli.main`` call, which covers parsing,
the kernel and printing.  The workload's fixed job list is run in whole
rounds, at least ``MIN_ROUNDS``, while the next round should end within
``--seconds``.  Between jobs, at least every ``REFERENCE_EVERY_S``, the fixed
kernel of ``reference.py`` is timed; each job time is scaled by the kernel
times next to it (see ``reference.py``), and a job's time is the median of
its rounds.
Every output is checked by ``check.py``; an exit code of 2 or 3 or a failed
check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced round and prints per-layer metrics from ``tracing.py``
(wall times, not scaled); its spans are written to ``bench/out/``.  The last
line of stdout is one JSON object; the lines before it repeat the metrics for
a reader, with units and sample counts, and the unscaled wall-clock figures.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import check
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
MIN_ROUNDS = 1
REFERENCE_EVERY_S = 0.05

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup(workload, seed, workdir):
    """Import gbsolve afresh, generate the job list and write its files."""
    start = time.perf_counter()
    for name in [n for n in sys.modules if n.partition(".")[0] == "gbsolve"]:
        del sys.modules[name]
    cli = importlib.import_module("gbsolve.cli")
    jobs = workloads.make_jobs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, job in enumerate(jobs):
        path = workdir / f"{i:04d}.gb"
        # Overwritten in place, not truncated to zero first: ext4 writes a file
        # truncated to zero and written again to disk when it is closed, and
        # that took from 41 to 245 ms per 1000 files, varying between runs.
        with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as f:
            f.write(job.text.encode())
            f.truncate()
        argvs.append([job.args[0], str(path), *job.args[1:]])
    return time.perf_counter() - start, cli, jobs, argvs


def host_factor(kernel_times):
    """How many times slower than nominal the host ran, from kernel times."""
    return statistics.median(kernel_times) / reference.NOMINAL_S


def run_round(cli, argvs, tracer=None, calibrate=False):
    """One closed-loop round: (wall seconds, per-job seconds, exit codes,
    stdouts, per-job host factors).

    With ``calibrate`` the reference kernel is timed before the first job,
    after the last and between jobs at least every ``REFERENCE_EVERY_S``.  A
    job's host factor is the mean of the two kernel times that bracket it:
    the host's speed changes within seconds, so only the nearest kernel
    times match the job's.  Without ``calibrate`` every factor is 1.
    """
    latencies, codes, outs = [], [], []
    kernel_times, segment = [], []
    last = -REFERENCE_EVERY_S
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if calibrate and time.perf_counter() - last >= REFERENCE_EVERY_S:
            kernel_times.append(reference.timed())
            last = time.perf_counter()
        segment.append(len(kernel_times) - 1)
        if tracer is not None:
            tracer.job = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse refusing the arguments
                code = e.code if isinstance(e.code, int) else 2
            latencies.append(time.perf_counter() - t0)
        codes.append(code)
        outs.append(out.getvalue())
    if not calibrate:
        return time.perf_counter() - start, latencies, codes, outs, [1.0] * len(argvs)
    kernel_times.append(reference.timed())
    wall = time.perf_counter() - start
    factors = [host_factor(kernel_times[k : k + 2]) for k in segment]
    return wall, latencies, codes, outs, factors


class Verdicts:
    """Checks each distinct (job, exit code, stdout) once and counts failures.

    Every round must print what the first round printed, byte for byte.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = None
        self.cache = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add_round(self, codes, outs):
        if self.first is None:
            self.first = list(zip(codes, outs))
        for i, (code, out) in enumerate(zip(codes, outs)):
            key = (i, code, out)
            if key not in self.cache:
                if code not in (0, 1):
                    reason = f"exit {code}"
                elif (code, out) != self.first[i]:
                    reason = "output differs from the first round"
                else:
                    reason = check.check(self.jobs[i], code, out)
                self.cache[key] = reason
                if reason and len(self.reasons) < 5:
                    self.reasons.append(f"job {i}: {reason}")
            self.attempted += 1
            self.failed += self.cache[key] is not None


def transcript_digest(outs):
    return hashlib.sha256("".join(outs).encode()).hexdigest()


def answers(codes, outs):
    """Tally of exit code and first word (solve) or line count (gb)."""
    tally = {}
    for code, out in zip(codes, outs):
        head = out.partition("\n")[0]
        lines = out.count("\n")
        key = f"exit {code}: " + (head if head.isalpha() else f"{lines} lines")
        tally[key] = tally.get(key, 0) + 1
    return dict(sorted(tally.items()))


def timed_setup(workload, seed, workdir):
    """One set-up, its wall time scaled by kernel times around it."""
    before = [reference.timed() for _ in range(3)]
    seconds, cli, jobs, argvs = setup(workload, seed, workdir)
    after = [reference.timed() for _ in range(3)]
    return seconds, host_factor(before + after), cli, jobs, argvs


def measure(args, workdir):
    # The first set-up is not counted: it creates the files, and creating a
    # file took from 60 to 600 us on a shared 2-vCPU VM, changing from one
    # minute to the next.  The timed set-ups rewrite the files.
    setup(args.workload, args.seed, workdir)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        seconds, factor, cli, jobs, argvs = timed_setup(args.workload, args.seed, workdir)
        setups.append(seconds / factor)
        raw_setups.append(seconds)
    verdicts = Verdicts(jobs)
    rounds, raw_rounds, round_factors = [], [], []
    begin = time.perf_counter()
    elapsed = 0.0
    # Another round runs only when it should end within --seconds.
    while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) <= args.seconds:
        _, latencies, codes, outs, factors = run_round(cli, argvs, calibrate=True)
        elapsed = time.perf_counter() - begin
        rounds.append([t / f for t, f in zip(latencies, factors)])
        raw_rounds.append(latencies)
        round_factors.append(statistics.median(factors))
        verdicts.add_round(codes, outs)
    # A job's time is the median of its scaled round times.
    per_job = [statistics.median(times) for times in zip(*rounds)]
    raw_per_job = [statistics.median(times) for times in zip(*raw_rounds)]
    metrics = {
        "jobs_per_s": len(per_job) / sum(per_job),
        "latency_p50_ms": statistics.median(per_job) * 1e3,
        "latency_p90_ms": statistics.quantiles(per_job, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "jobs per list": len(jobs),
        "rounds": len(rounds),
        "latency samples (one median time per job)": len(per_job),
        "samples above p90": sum(t * 1e3 > metrics["latency_p90_ms"] for t in per_job),
        "setup repeats": SETUP_REPEATS,
        "host factor per round": " ".join(f"{f:.3f}" for f in round_factors),
        "unscaled jobs_per_s": f"{len(raw_per_job) / sum(raw_per_job)} jobs/s",
        "unscaled latency_p50_ms": f"{statistics.median(raw_per_job) * 1e3} ms",
        "unscaled latency_p90_ms": f"{statistics.quantiles(raw_per_job, n=10)[8] * 1e3} ms",
        "unscaled setup_s": f"{statistics.median(raw_setups)} s",
        "answers per round": answers(codes, outs),
        "stdout_sha256": transcript_digest(outs),
    }
    return verdicts, metrics, END_TO_END_UNITS, info


def measure_traced(args, workdir):
    _, cli, jobs, argvs = setup(args.workload, args.seed, workdir)
    verdicts = Verdicts(jobs)
    plain_wall, _, codes, outs, _ = run_round(cli, argvs)
    verdicts.add_round(codes, outs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_codes, traced_outs, _ = run_round(cli, argvs, tracer)
    finally:
        tracer.uninstall()
    verdicts.add_round(traced_codes, traced_outs)
    metrics = tracer.metrics(len(jobs))
    metrics.update(
        {
            "trace.jobs": len(jobs),
            "trace.untraced_s": plain_wall,
            "trace.traced_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
        }
    )
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    info = {
        "jobs per list": len(jobs),
        "spans": len(tracer.spans),
        "spans file": str(spans_path.relative_to(ROOT)),
        "answers per round": answers(codes, outs),
        "stdout_sha256": transcript_digest(outs),
    }
    return verdicts, metrics, tracing.metric_units(), info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gbsolve" / "cli.py").is_file():
        print(f"error: no gbsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = BENCH / "work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        measured = (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts, metrics, units, info = measured
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  attempted: {verdicts.attempted}  failed: {verdicts.failed}")
    print(f"  failed_frac: {verdicts.failed / verdicts.attempted} ratio")
    for reason in verdicts.reasons:
        print(f"  FAILED {reason}")
    for name, value in metrics.items():
        print(f"  {name}: {value} {units[name]}")
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
