"""Tests of the benchmark's own code: oracle, generator and tracer."""

import hashlib
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import padicdisc  # noqa: E402
from padicdisc.cli import example_spec, run  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fields import FIELDS  # noqa: E402

F = Fraction


def test_oracle_reproduces_paper_trees():
    for name, want in (("p2-trivial", [(F(1), F(2), 2, (1, 1))]),
                       ("p3-trivial", [(F(1, 2), F(3, 2), 3, (1, 1, 1))])):
        spec = example_spec(name)
        field = FIELDS["Q2" if name.startswith("p2") else "Q3(sqrt-3)"]
        assert oracle.tree_oracle(field, oracle.example_roots(spec)) == want


def test_oracle_nested_cluster_by_hand():
    # roots 0, 2, 4, 12 in Q_2: {2} | {0, 4, 12} at level 1, {0} | {4, 12} at
    # level 2, {4} | {12} at level 3; branching radius sum_j min(v(a_j - a), l)
    q2 = FIELDS["Q2"]
    roots = [q2.elem(a) for a in (0, 2, 4, 12)]
    want = [(F(1), F(4), 2, (1, 3)), (F(2), F(7), 2, (1, 2)), (F(3), F(9), 2, (1, 1))]
    assert oracle.tree_oracle(q2, roots) == want
    spec = {"field": q2.spec(64), "N": 32, "outputs": ["tree"],
            "morphism": {"f": [q2.coeff_json(c) for c in q2.poly_from_roots(roots)],
                         "d": 4}}
    assert oracle.check_fiber_job(run(spec), roots) == ""


def test_oracle_rejects_a_wrong_tree():
    q2 = FIELDS["Q2"]
    roots = [q2.elem(a) for a in (0, 2, 4, 12)]
    report = {"spec": {"field": q2.spec(64)}, "errors": [], "outputs": {"tree": {
        "branch_points": [{"t_radius": "1", "branch_radius": "4", "delta": 2,
                           "branches": [[0], [1, 2, 3]]}]}}}
    assert oracle.check_fiber_job(report, roots).startswith("tree")


def test_extension_valuations():
    eis, unr = FIELDS["Q3(sqrt-3)"], FIELDS["Q4"]
    assert eis.valuation(eis.elem(3, 1)) == F(1, 2)
    assert eis.valuation(eis.mul(eis.elem(0, 1), eis.elem(0, 1))) == 1
    assert unr.valuation(unr.elem(2, 4)) == 1
    assert unr.valuation(unr.mul(unr.elem(0, 1), unr.elem(1, 1))) == 0


def test_fiber_jobs_are_seeded_and_planted():
    jobs = workloads.fiber_jobs(5)
    assert [j["spec"] for j in jobs] == [j["spec"] for j in workloads.fiber_jobs(5)]
    assert [j["spec"] for j in jobs] != [j["spec"] for j in workloads.fiber_jobs(6)]
    degrees = sorted({j["spec"]["morphism"]["d"] for j in jobs})
    assert degrees == list(workloads.WORKLOADS["fibers"]["degrees"])
    for job in jobs[:24]:
        assert oracle.check_fiber_job(run(job["spec"]), job["roots"]) == ""


def _traced(specs):
    """Per-layer metrics of one traced pass, and whether reports kept their bytes."""
    cli = padicdisc.cli

    def digests():
        # module attributes, looked up at call time, so that wrappers are seen
        return [hashlib.sha256(cli.serialize_report(cli.run(s)).encode()).digest()
                for s in specs]

    plain = digests()
    tracer = tracing.Tracer()
    tracer.install(padicdisc)
    try:
        traced = digests()
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return tracer.metrics(), plain == traced


def test_every_per_layer_metric_is_observed():
    examples = [example_spec(name, order=12) for name in workloads.EXAMPLES]
    fibers = [job["spec"] for job in workloads.fiber_jobs(0)[:8]]
    on_examples, same_examples = _traced(examples)
    on_fibers, same_fibers = _traced(fibers)
    assert same_examples and same_fibers
    assert on_examples["morphism.local_solution.per_point"] == 2.0
    assert on_fibers["series.mul.calls"] == 0
    assert on_fibers["padic.hensel_lift.calls"] > 0
    names = [name for name, _ in tracing.metric_names() if name != "trace_overhead"]
    unseen = [n for n in names if not (on_examples[n] or on_fibers[n])]
    assert unseen == []


def test_uninstall_restores_the_package():
    before = padicdisc.series.taylor_shift, padicdisc.morphism.taylor_shift
    tracer = tracing.Tracer()
    tracer.install(padicdisc)
    assert padicdisc.morphism.taylor_shift is padicdisc.series.taylor_shift
    assert padicdisc.morphism.taylor_shift is not before[0]
    tracer.uninstall()
    assert (padicdisc.series.taylor_shift, padicdisc.morphism.taylor_shift) == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_quantile_is_nearest_rank(q):
    values = list(range(1, 11))
    assert bench.quantile(values, q) == int(q * 10)


def test_host_scale_is_the_harmonic_mean_of_reference_speed():
    clock = hostspeed.HostClock()
    clock.starts = [0.0, 0.1, 0.2, 5.0]
    clock.durations = [0.002, 0.004, 0.004, 0.1]
    # samples within WINDOW_S of [0, 0.2]: speeds 1, 1/2, 1/2 of nominal
    assert clock.scale(0.0, 0.2) == pytest.approx(2 / 3)


def test_host_clock_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.HostClock()
    with clock.ticking():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(clock.durations) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
