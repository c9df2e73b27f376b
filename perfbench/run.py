"""padicdisc benchmark: one workload, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  A job is ``run(spec)`` followed
by ``serialize_report(report)``; jobs run one at a time in this process (a
closed loop with one caller).  Every report is checked by ``oracle.py``
outside the timed region, and a job that raises, fails a check or disagrees
with its oracle counts as failed.

With ``--trace 0`` the benchmark repeats passes over the workload's jobs
until the next pass would end after S seconds and prints the end-to-end
metrics.  Their times are scaled to a nominal host speed (``hostspeed.py``);
the unscaled times go to standard error.  With ``--trace 1`` it runs one
untraced and one traced pass, checks that both give byte-identical reports,
writes the spans under ``.perfbench_out/`` and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB")]
SETUP_REPEATS = 11
# Order and digits of the untimed closed-form diff tables of the examples.
DIFF_TABLE_ORDER = 16
# Fiber jobs run untimed before measuring, so that lazy caches are filled.
FIBER_WARMUP_JOBS = 16


def load_padicdisc():
    """Import padicdisc from this checkout's sources, never from elsewhere."""
    if not (SRC / "padicdisc" / "__init__.py").is_file():
        raise SystemExit("error: no padicdisc sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import padicdisc
    import padicdisc.cli
    if Path(padicdisc.__file__).resolve().parent != (SRC / "padicdisc").resolve():
        raise SystemExit("error: padicdisc imported from %s" % padicdisc.__file__)
    return padicdisc


def build_jobs(workload: str, seed: int, cli) -> list:
    if workloads.WORKLOADS[workload]["kind"] == "examples":
        return workloads.example_jobs(workload, seed, cli.example_spec)
    return workloads.fiber_jobs(seed)


def check(job: dict, report: dict) -> str:
    if "roots" in job:
        return oracle.check_fiber_job(report, job["roots"])
    return oracle.check_example_job(report, job["floor"])


class Ledger:
    """Job times, failures and report digests of one run."""

    def __init__(self):
        self.times = {}          # job name -> (start, seconds) of each pass
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def fail(self, job, why):
        self.failures.append("%s: %s" % (job["name"], why))
        print("FAILED %s: %s" % (job["name"], why[:500]), file=sys.stderr)

    def run_pass(self, jobs, cli) -> list:
        """Run every job once; returns (start, seconds) per job, oracle time excluded."""
        spans = []
        for job in jobs:
            self.attempted += 1
            start = time.perf_counter()
            try:
                report = cli.run(job["spec"])
                text = cli.serialize_report(report)
            except Exception as err:  # a job that raises is a failed job
                spans.append((start, time.perf_counter() - start))
                self.fail(job, "%s: %s" % (type(err).__name__, err))
                continue
            spans.append((start, time.perf_counter() - start))
            self.times.setdefault(job["name"], []).append(spans[-1])
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(job["name"], digest) != digest:
                self.fail(job, "report bytes differ between passes")
            problem = check(job, report)
            if problem:
                self.fail(job, problem)
        return spans


def check_diff_tables(workload: str, seed: int, cli) -> list:
    """Closed-form diff tables of the canned examples: no blocking mismatch."""
    digits = workloads.WORKLOADS[workload]["digits"]
    problems = []
    for name in workloads.EXAMPLES:
        result = cli.run_example(name, order=DIFF_TABLE_ORDER, digits=digits, seed=seed)
        if not result["passed"]:
            bad = [row["quantity"] for row in result["diffs"]
                   if row.get("blocking", True) and not row["match"]]
            problems.append("%s diff table: %s" % (name, bad))
    return problems


def warm_up(workload: str, seed: int, jobs: list, cli) -> list:
    """Untimed: the examples' diff tables, or the first few fiber jobs."""
    if workloads.WORKLOADS[workload]["kind"] == "examples":
        return check_diff_tables(workload, seed, cli)
    scratch = Ledger()
    scratch.run_pass(jobs[:FIBER_WARMUP_JOBS], cli)
    return scratch.failures


def measure_setup(jobs: list) -> tuple:
    """Median over fresh interpreters of import plus building the fields.

    Returns the medians of the scaled and of the unscaled probe times.
    """
    fields = []
    for job in jobs:
        if job["spec"]["field"] not in fields:
            fields.append(job["spec"]["field"])
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(fields)],
            capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT))
        seconds, seconds_scaled = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds_scaled)
    return statistics.median(scaled), statistics.median(raw)


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(args, jobs, cli) -> tuple:
    setup_s, setup_raw = measure_setup(jobs)
    clock = hostspeed.HostClock()
    ledger = Ledger()
    problems = warm_up(args.workload, args.seed, jobs, cli)
    passes = []
    with clock.ticking():
        start = time.perf_counter()
        while True:
            passes.append(ledger.run_pass(jobs, cli))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(sum(t for _, t in p) for p in passes) \
                    > args.seconds:
                break

    def scaled(span):
        start, seconds = span
        return seconds * clock.scale(start, start + seconds)

    walls = [sum(map(scaled, p)) for p in passes]
    # a job's time is its median over passes; the quantiles run over jobs
    times = sorted(statistics.median(map(scaled, spans))
                   for spans in ledger.times.values()) or [math.nan]
    print("setup %.4f s unscaled; pass times %s scaled, %s unscaled"
          % (setup_raw, ["%.3f" % w for w in walls],
             ["%.3f" % sum(t for _, t in p) for p in passes]), file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "job_p50_s": quantile(times, 0.5),
        "job_p90_s": quantile(times, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ledger, problems, {name: {"value": metrics[name], "unit": unit}
                              for name, unit in END_TO_END}


def per_layer(args, jobs, package) -> tuple:
    cli = package.cli
    problems = warm_up(args.workload, args.seed, jobs, cli)
    ledger = Ledger()
    untraced = sum(t for _, t in ledger.run_pass(jobs, cli))
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        traced = sum(t for _, t in ledger.run_pass(jobs, cli))
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("not traced (absent): %s" % ", ".join(tracer.missing), file=sys.stderr)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / ("spans-%s-%d.json" % (args.workload, args.seed)))
    values = tracer.metrics()
    values["trace_overhead"] = traced / untraced
    return ledger, problems, {name: {"value": values[name], "unit": unit}
                              for name, unit in tracing.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_padicdisc()
    jobs = build_jobs(args.workload, args.seed, package.cli)
    if args.trace:
        ledger, problems, metrics = per_layer(args, jobs, package)
    else:
        ledger, problems, metrics = end_to_end(args, jobs, package.cli)
    for problem in problems:
        print("FAILED %s" % problem, file=sys.stderr)
    result = {"correct": not ledger.failures and not problems,
              "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
