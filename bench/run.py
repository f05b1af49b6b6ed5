#!/usr/bin/env python3
"""tfred's layered benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload transport-scaling --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  transport-scaling  `reduce` on transport_binding(N), N = 2..4, from model files
  ladder             `converge` eps-ladder studies and the demo-linex pair
  survey             ~200 small check/ltc/conditions/reduce jobs

``--size large`` runs larger variants instead (N = 3..6, the default eps
ladder, ~300 survey jobs) for a one-off scaling curve; a round of those takes
too long to repeat inside one timed run.

Every job is an in-process ``tfred.cli.main(argv)`` call, one process, one
thread.  With ``--trace 0`` the workload's rounds (one pass over its jobs) are
repeated while another fits in ``--seconds``, at least five times, and the
end-to-end metrics are reported; with ``--trace 1`` one traced round runs
after an untraced one and before untraced ones that fill ``--seconds``, and
the per-layer metrics of the traced round are reported (see tracing.py).
Outputs are checked after the timed part; a wrong output counts as a failed
job.

Times are normalised to a reference host speed (see hostspeed.py): on a
shared host the speed of a core drifts by up to 1.5x over tens of seconds to
minutes, and a raw time measures that drift as much as the program.  After
every job a fixed reference kernel runs for 15% of the job's time; a time
reported in seconds is the measured time times REFERENCE_UNIT_S over the
kernel's mean unit time in the run.  The measured times and the host speed
are printed as well.

End-to-end metrics of every workload (gated in BENCHMARK.json): setup_s is the
median of nine set-ups (import plus input generation), one in this process
and eight in fresh interpreters started between the rounds; wall_s is the
sum over the jobs of each job's mean time over the rounds, the time of one
pass over the workload; peak_rss_mb is this process's peak resident set after
the untraced rounds.  Workload-specific ones, printed but not gated, also
from mean job times: fail_ratio; survey job_s.p50 and job_s.p90, percentiles
over the jobs; transport-scaling reduce_s.N<N>; ladder verdict_s.mm2d and
verdict_s.mm3d; wall_measured_s, wall_s before normalisation; host_speed,
the reference kernel's speed relative to REFERENCE_UNIT_S.  Per-layer times
of a traced run are measured, not normalised.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it name every metric with its unit,
the workload-specific ones included.  Full results (and the spans of a traced
run) go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
MIN_ROUNDS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_sources():
    """Exit 2, before anything is written, when the checkout has no tfred sources."""
    if not (SRC / "tfred" / "cli.py").is_file():
        print(f"error: no tfred sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_program():
    """Import tfred from the checkout's src/, or exit 2 when it is not there."""
    require_sources()
    # one BLAS/OpenMP thread, set before numpy is imported; set-up children inherit it
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import tfred.cli

    return tfred.cli


def set_up(args, workdir: Path):
    """Import the program and generate the workload's inputs; returns (cli, jobs)."""
    cli = import_program()
    return cli, workloads.build_jobs(args.workload, args.seed, workdir, args.size)


def make_workdir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter, measured inside a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(cli, job):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a benchmark abort
            code = f"crash: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


def run_round(cli, jobs, tracer=None, first=None, meter=None):
    """One pass over the jobs: (wall seconds, [(code, stdout, seconds)]).

    The wall time is the sum of the job times; the ``meter``, if given, takes
    its host-speed sample after each job, outside the job's time.  An output
    equal to the ``first`` round's is replaced by that round's copy, so that
    memory does not grow with the number of rounds.
    """
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        code, stdout, seconds = run_job(cli, job)
        if meter is not None:
            meter.sample(seconds)
        if first is not None and stdout == first[i][1]:
            stdout = first[i][1]
        results.append((code, stdout, seconds))
    return sum(r[2] for r in results), results


def verdict(job, code, stdout) -> "str | None":
    """None when the job's output is right, else the reason it is not."""
    if not isinstance(code, int):
        return code
    try:
        return job.check(code, stdout)
    except Exception as exc:  # output the check cannot read is wrong output
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_rounds(jobs, rounds, corrupt=None) -> list[str]:
    """Failure lines of all rounds; ``corrupt`` may rewrite a job's result first.

    Equal outputs of one job get one check.
    """
    verdicts = {}
    failures = []
    for _, results in rounds:
        for i, (job, (code, stdout, _)) in enumerate(zip(jobs, results)):
            if corrupt is not None:
                code, stdout = corrupt(i, job, code, stdout)
            key = (i, code, stdout)
            if key not in verdicts:
                verdicts[key] = verdict(job, code, stdout)
            if verdicts[key] is not None:
                failures.append(f"{job.name}: {verdicts[key]}")
    return failures


def host_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def mean_times(jobs, rounds) -> list[float]:
    """Each job's mean measured time over the rounds."""
    return [statistics.mean(results[i][2] for _, results in rounds) for i in range(len(jobs))]


def workload_metrics(workload, jobs, times) -> dict[str, tuple[float, str]]:
    """Workload-specific end-to-end metrics, from each job's normalised mean time."""
    if workload == "survey":
        deciles = statistics.quantiles(times, n=10, method="inclusive")
        return {"job_s.p50": (deciles[4], "s"), "job_s.p90": (deciles[8], "s")}
    out = {}
    for job, seconds in zip(jobs, times):
        what = job.name.partition("/")[2]
        if workload == "transport-scaling":
            out[f"reduce_s.{what}"] = (seconds, "s")
        elif what in ("mm2d", "mm3d"):
            out[f"verdict_s.{what}"] = (seconds, "s")
    return out


def growth_per_n(metrics) -> float:
    """(reduce_s at the largest N / at the smallest N) ** (1 / (N range))."""
    ns = sorted(int(k.split(".N")[1]) for k in metrics if k.startswith("reduce_s.N"))
    if len(ns) < 2:
        return 0.0
    ratio = metrics[f"reduce_s.N{ns[-1]}"][0] / metrics[f"reduce_s.N{ns[0]}"][0]
    return ratio ** (1 / (ns[-1] - ns[0]))


def measure(args, corrupt=None) -> dict:
    """Run the workload as the arguments say; returns the full result record."""
    workdir = make_workdir()
    try:
        t0 = time.perf_counter()
        cli, jobs = set_up(args, workdir)
        setup_s = [time.perf_counter() - t0]

        rounds = []
        meter = hostspeed.Meter()
        traced = tracer = None
        begin = time.perf_counter()
        if args.trace:
            import tracing

            # untraced rounds on both sides of the traced one, so that the
            # overhead is not confused with the first round's warm-up
            rounds.append(run_round(cli, jobs, meter=meter))
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced = run_round(cli, jobs, tracer, first=rounds[0][1])
            finally:
                tracing.uninstall(patches)
            min_rounds = 2
        else:
            min_rounds = MIN_ROUNDS
        # rounds while one more fits in --seconds; one fresh-interpreter
        # set-up after each, so that the samples are spread over the run
        last = 0.0
        while len(rounds) < min_rounds or time.perf_counter() - begin + last < args.seconds:
            started = time.perf_counter()
            rounds.append(run_round(cli, jobs, first=rounds[0][1] if rounds else None, meter=meter))
            if len(setup_s) < SETUP_REPEATS:
                setup_s.append(setup_sample(args))
                meter.sample(setup_s[-1])
            last = time.perf_counter() - started
        while len(setup_s) < SETUP_REPEATS:
            setup_s.append(setup_sample(args))
            meter.sample(setup_s[-1])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_rounds(jobs, rounds + ([traced] if traced else []), corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) * (len(rounds) + (1 if traced else 0))
    measured = mean_times(jobs, rounds)
    times = [meter.normalised(t) for t in measured]
    e2e = {
        "setup_s": (meter.normalised(statistics.median(setup_s)), "s"),
        "wall_s": (sum(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "fail_ratio": (len(failures) / attempted, "ratio"),
        "wall_measured_s": (sum(measured), "s"),
        "host_speed": (hostspeed.REFERENCE_UNIT_S / meter.unit_s(), "x"),
    }
    extra.update(workload_metrics(args.workload, jobs, times))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "host": host_info(),
        "rounds": len(rounds),
        "round_walls": [w for w, _ in rounds],
        "setup_measured_s": setup_s,
        "reference_unit_s": meter.unit_s(),
        "job_mean_s": {job.name: t for job, t in zip(jobs, measured)},
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["reduction.growth_per_N"] = growth_per_n(extra)
        layers["trace.overhead_s"] = traced[0] - sum(measured)
        layers["trace.wall_s"] = traced[0]
        record["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["spans"] = tracing.spans_as_records(tracer)
    return record


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("sim.us_per"):
        return "us"
    if name == "reduction.growth_per_N":
        return "x/N"
    return "count"


def result_line(record) -> dict:
    key = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record[key],
    }


def write_record(record):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def print_summary(record):
    host = record["host"]
    print(f"workload {record['workload']} seed {record['seed']} size {record['size']}: "
          f"{record['rounds']} round(s) of {record['jobs']} jobs")
    print(f"host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}, cpu {host['cpu']}")
    for group in ("end_to_end", "workload_metrics", "per_layer"):
        for name, m in record.get(group, {}).items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for line in record["failures"][:20]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    if args.setup_only:
        workdir = make_workdir()
        try:
            t0 = time.perf_counter()
            set_up(args, workdir)
            print(repr(time.perf_counter() - t0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    record = measure(args)
    write_record(record)
    print_summary(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
