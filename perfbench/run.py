#!/usr/bin/env python3
"""vdwlayers benchmark: drive CLI workloads in-process and report metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload halfspace-scan --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``.  Each run generates the
workload's configs from ``--seed``, repeats the workload's CLI command
sequence for about ``--seconds`` seconds, checks the outputs (row flags,
byte-identical repeats, tight-tolerance references), and prints one detail
line followed by the result line.  ``--trace 0`` reports the end-to-end
metrics from untraced repeats; ``--trace 1`` alternates untraced and traced
repeats at one worker and reports the per-layer metrics.  The exit code is 0
whenever a result is printed, 1 when a probe fails, 2 on bad usage or when
the checkout has no ``src/vdwlayers``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread per process, so that a run never has more threads than
# CPUs.  Set before numpy is first imported, and inherited by every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import gate  # noqa: E402
import hostspeed  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_REPEATS = 2

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import vdwlayers
from vdwlayers.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(repr(time.perf_counter() - t0))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


@dataclass(frozen=True)
class Job:
    """One pass over a workload's CLI steps.

    ``job_s`` and ``cpu_s`` exclude the host-speed chunks run during the job;
    ``speed`` is the host speed over the job (1.0 when it was not sampled).
    """

    job_s: float
    cpu_s: float
    speed: float
    rows: gate.Rows
    hashes: dict


class Runner:
    def __init__(self, workload, work: Path) -> None:
        from vdwlayers.config import load_config, with_overrides

        self.workload = workload
        self.work = work
        self.configs = []
        self.specs = []
        for i, step in enumerate(workload.steps):
            path = work / f"step{i}_{step.command}.json"
            path.write_text(json.dumps(step.config, indent=2) + "\n")
            self.configs.append(path)
            self.specs.append(with_overrides(load_config(path), step.rel_tol, None))
        self.codes: list[int] = []

    def out_dir(self, i: int) -> Path:
        return self.work / f"out{i}_{self.workload.steps[i].command}"

    def run(self, threads: int | None = None, sample: bool = True) -> Job:
        """Run every step through ``vdwlayers.cli.main``.

        ``threads`` overrides each step's worker count.  With ``sample`` the
        host speed is sampled around the job, and during it unless the job
        runs worker processes.
        """
        import vdwlayers.cli as cli

        for i in range(len(self.workload.steps)):
            shutil.rmtree(self.out_dir(i), ignore_errors=True)
        counts = [threads or step.threads for step in self.workload.steps]
        sampler = hostspeed.Sampler(inside=max(counts) == 1) if sample else nullcontext()
        self.codes = codes = []
        with sampler:
            cpu0 = _cpu_s()
            t0 = perf_counter()
            for i, step in enumerate(self.workload.steps):
                argv = [step.command, "--config", str(self.configs[i]),
                        "--out", str(self.out_dir(i)), "--threads", str(counts[i])]
                if step.rel_tol is not None:
                    argv += ["--rel-tol", repr(step.rel_tol)]
                codes.append(cli.main(argv))  # looked up per call, so probes see it
            job_s = perf_counter() - t0
            cpu_s = _cpu_s() - cpu0
        speed = 1.0
        if sample:
            job_s -= sampler.spent_s
            cpu_s -= sampler.spent_cpu_s
            speed = sampler.speed()
        rows = gate.Rows()
        hashes = {}
        for i, step in enumerate(self.workload.steps):
            rows.add(gate.step_rows(step.command, self.out_dir(i), codes[i]))
            for path in sorted(self.out_dir(i).glob("*")):
                hashes[f"{i}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return Job(job_s, cpu_s, speed, rows, hashes)

    def check(self, seed: int) -> gate.Gate:
        """Tight-tolerance references for the outputs of the last job.

        A step that exited non-zero is skipped: its rows already failed.
        """
        checker = gate.Gate(seed, self.workload.name)
        for i, step in enumerate(self.workload.steps):
            if self.codes[i] == 0:
                checker.step(step.command, self.specs[i], self.out_dir(i))
        return checker

    def setup_time(self) -> tuple[float, float]:
        """Import plus ``load_config`` in a fresh process, timed inside it, and the host speed."""
        with hostspeed.Sampler(inside=False) as sampler:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *map(str, self.configs)],
                cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
                check=True)
        return float(proc.stdout.strip().splitlines()[-1]), sampler.speed()


def _repeat(seconds: float, once) -> list:
    """Call ``once`` until the next call would end past ``seconds`` (at least twice)."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(once())
        last = perf_counter() - t0
        if len(results) >= MIN_REPEATS and perf_counter() - start + last > seconds:
            return results


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _determinism(jobs: list[Job], label: str, reference: Job) -> list[dict]:
    problems = []
    for k, job in enumerate(jobs):
        if job.hashes != reference.hashes:
            diff = sorted(n for n in set(job.hashes) | set(reference.hashes)
                          if job.hashes.get(n) != reference.hashes.get(n))
            problems.append({"row": f"{label} repeat {k}", "why": "output bytes differ",
                             "files": diff})
    return problems


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, list, list]:
    """Untraced repeats; times are reported in reference seconds (see hostspeed)."""
    jobs = _repeat(seconds, runner.run)
    peak = _peak_rss_mb()  # before any set-up subprocess adds to the children's peak
    problems = _determinism(jobs, "untraced", jobs[0])
    setups = [runner.setup_time() for _ in range(SETUP_REPEATS)]
    raw = {"job_s": [j.job_s for j in jobs], "cpu_s": [j.cpu_s for j in jobs],
           "setup_s": [s for s, _ in setups]}
    norm = {"job_s": [j.job_s * j.speed for j in jobs],
            "cpu_s": [j.cpu_s * j.speed for j in jobs],
            "setup_s": [s * speed for s, speed in setups]}
    metrics = {key: {"value": statistics.median(vals), "unit": "s"}
               for key, vals in norm.items()}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    detail = {key: _quartiles(vals) for key, vals in norm.items()}
    detail.update({f"raw_{key}": _quartiles(vals) for key, vals in raw.items()})
    detail["host_speed"] = _quartiles([j.speed for j in jobs] + [s for _, s in setups])
    return metrics, detail, problems, jobs


def trace(runner: Runner, seconds: float) -> tuple[dict, dict, list, list]:
    """Alternate untraced and traced one-worker jobs; per-layer metrics from the traced ones."""
    pairs = []

    def pair():
        plain = runner.run(threads=1, sample=False)
        with probes.Tracer() as tracer:
            traced = runner.run(threads=1, sample=False)
        tracer.require(runner.workload.active)
        pairs.append((plain, traced, tracer))

    _repeat(seconds, pair)
    plain_jobs = [p[0] for p in pairs]
    traced_jobs = [p[1] for p in pairs]
    tracers = [p[2] for p in pairs]
    reference = plain_jobs[0]
    problems = _determinism(plain_jobs, "untraced 1 worker", reference)
    problems += _determinism(traced_jobs, "traced 1 worker", reference)
    jobs = plain_jobs + traced_jobs
    if any(step.threads > 1 for step in runner.workload.steps):
        pooled = runner.run(sample=False)
        problems += _determinism([pooled], "untraced pooled", reference)
        jobs.append(pooled)

    counts = tracers[0].counts()
    for k, tracer in enumerate(tracers[1:], 1):
        if tracer.counts() != counts:
            raise probes.ProbeError(f"probe counts differ between traced repeats 0 and {k}: "
                                    f"{counts} != {tracer.counts()}")
    values = {**counts, **tracers[0].ratios()}
    timings = [t.timings() for t in tracers]
    for key in timings[0]:
        values[key] = statistics.median(t[key] for t in timings)
    values["trace.overhead_frac"] = (statistics.median(j.job_s for j in traced_jobs)
                                     / statistics.median(j.job_s for j in plain_jobs))
    metrics = {k: {"value": values[k], "unit": u} for k, u in probes.PER_LAYER_UNITS.items()}
    detail = {"traced_jobs": len(traced_jobs), **tracers[0].samples(),
              "traced_job_s": _quartiles([j.job_s for j in traced_jobs]),
              "untraced_job_s": _quartiles([j.job_s for j in plain_jobs])}
    return metrics, detail, problems, jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vdwlayers" / "__init__.py").is_file():
        print(f"error: no vdwlayers package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vdwlayers

    if Path(vdwlayers.__file__).resolve().parent != (SRC / "vdwlayers").resolve():
        print(f"error: imported vdwlayers from {vdwlayers.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, work)
        try:
            if args.trace:
                metrics, detail, problems, jobs = trace(runner, args.seconds)
            else:
                metrics, detail, problems, jobs = measure(runner, args.seconds)
        except probes.ProbeError as exc:
            print(f"probe failure: {exc}", file=sys.stderr)
            return 1
        rows = gate.Rows()
        for job in jobs:
            rows.add(job.rows)
        checker = runner.check(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = rows.failed + problems + checker.failures
    attempted = rows.attempted + checker.checked + len(jobs)
    detail.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "jobs": len(jobs), "rows_per_job": rows.attempted // len(jobs),
        "gate_checks": checker.checked, "failed_frac": len(failures) / attempted,
        "failures": failures, "environment": _environment(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
