"""Self-tests of the benchmark: determinism, tracing non-interference,
restoration of wrapped attributes, and the output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Episodes are shortened so the suite takes seconds, not minutes.
"""

import json
import math

import numpy as np
import pytest

import bench
import tracing


def short_inputs(workload, scale=0.05):
    pkg = bench.fresh_import()
    return pkg, bench.build_inputs(pkg, workload, scale=scale)


@pytest.fixture
def short_sweep(tmp_path):
    """The gamma sweep over 1 s episodes, written to a temporary directory."""
    pkg, inputs = short_inputs("gamma-sweep", scale=0.1)
    return pkg, inputs, tmp_path / "out"


@pytest.mark.parametrize("workload", ["nominal-cbf", "obstacle-course",
                                      "nmpc-baseline"])
def test_counts_repeat_across_passes_and_tracing(workload):
    pkg, inputs = short_inputs(workload)
    plain = [bench.run_round(pkg, inputs) for _ in range(2)]
    traced = [bench.traced_round(pkg, inputs) for _ in range(2)]
    for rnd in plain[1:] + [r for r, _ in traced]:
        assert bench.same_work(plain[0], rnd)
    layers = [bench.per_layer(t, r, plain[0]) for r, t in traced]
    for key in bench.DETERMINISTIC:
        assert layers[0][key] == layers[1][key], key
    for key, value in bench.untraced_counts(plain[0]).items():
        assert layers[0][key] == value, key
    assert layers[0]["mpc.sqp_iters.total"] > 0
    rounds, metrics, _, problems = bench.traced_rounds(pkg, inputs, 0.0)
    assert problems == [] and len(rounds) == 2
    assert metrics["mpc.sqp_iters.total"] == layers[0]["mpc.sqp_iters.total"]


def test_sweep_counts_repeat_and_tracing_leaves_csvs_unchanged(short_sweep):
    pkg, inputs, out = short_sweep
    plain = bench.run_round(pkg, inputs, out_dir=out)
    rnd, tracer = bench.traced_round(pkg, inputs, out_dir=out)
    assert len(plain.episodes) == 6
    assert bench.same_work(plain, rnd)
    m = bench.per_layer(tracer, rnd, plain)
    assert m["cli.run_closed_loop.s"] > 0.0
    assert m["cli.write_trajectory_csv.s"] > 0.0
    assert 0.0 < m["cli.parallel_eff"] <= 1.0
    for key, value in bench.untraced_counts(plain).items():
        assert m[key] == value, key


def test_benchmark_json_lists_the_steady_workloads_with_their_reasons():
    spec = json.loads(bench.Path("BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert tuple(listed) == bench.BENCHMARK_WORKLOADS
    assert all(bench.WORKLOADS[name] == why for name, why in listed.items())


def test_only_obstacle_course_is_noisy():
    pkg = bench.fresh_import()
    for workload in ("nominal-cbf", "nmpc-baseline"):
        for sc in bench.build_inputs(pkg, workload).scenarios:
            assert not sc.noise.enabled
    course = bench.build_inputs(pkg, "obstacle-course").scenarios
    assert [sc.noise.seed for sc in course] == list(bench.COURSE_NOISE_SEEDS)
    assert all(sc.noise.enabled and sc.noise.variance == 0.05 for sc in course)
    # Apart from the noise seed the episodes are identical.
    first = course[0]
    for sc in course[1:]:
        assert sc.obstacles == first.obstacles and sc.mpc.horizon == 14
        assert sc.start == first.start and sc.duration == first.duration
    assert not bench.build_inputs(pkg, "gamma-sweep").config["noise"]["enabled"]


@pytest.mark.parametrize("workload", ["nominal-cbf", "nmpc-baseline"])
def test_self_times_are_nonnegative_and_fit_in_the_round(workload):
    pkg, inputs = short_inputs(workload)
    rnd, tracer = bench.traced_round(pkg, inputs)
    assert bench.trace_problems(tracer, rnd) == []
    names = tracer.names_seen()
    assert "qp.solve_qp" in names and "model.rk4_step" in names
    assert all(tracer.stat(n, "self_s") >= 0.0 for n in names)
    total = sum(tracer.stat(n, "self_s") for n in names)
    assert total <= rnd.wall


def test_wrappers_are_restored_after_an_error():
    pkg = bench.fresh_import()
    before = {(path, attr): tracing.resolve(pkg, path).__dict__[attr]
              for _, path, attr in tracing.LAYER_TARGETS}
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.install(pkg):
            assert pkg.mpc.solve_qp is not before[("mpc", "solve_qp")]
            1 / 0
    for (path, attr), original in before.items():
        assert tracing.resolve(pkg, path).__dict__[attr] is original


def test_spans_nest_by_step():
    pkg, inputs = short_inputs("nominal-cbf")
    rnd, tracer = bench.traced_round(pkg, inputs)
    steps = rnd.episodes[0].completed
    assert tracer.stat("mpc.linear_solve", "calls") == steps
    assert tracer.stat("model.rk4_step", "calls") == steps
    assert tracer.stat("dfl.closed_loop_rhs", "calls") == 4 * steps


def _episode(clearance, final_error=0.01, aborted=False, planned=4,
             status=("optimal",) * 4):
    n = len(clearance)
    return bench.Episode("cbf", planned, np.zeros(n), np.ones(n), list(status),
                         [1] * len(status), np.array(clearance, dtype=float),
                         final_error, aborted, b"")


def test_output_checks_and_failure_accounting():
    good = bench.Round(1.0, [_episode([0.5, 0.4, 0.3, 0.2])])
    assert bench.check_outputs("nominal-cbf", good) == []
    unsafe = bench.Round(1.0, [_episode([0.5, -0.1, 0.3, 0.2])])
    assert bench.check_outputs("nominal-cbf", unsafe)
    far = bench.Round(1.0, [_episode([0.5, 0.4, 0.3, 0.2], final_error=0.2)])
    assert bench.check_outputs("nominal-cbf", far)
    assert bench.check_outputs("obstacle-course", far) == []  # noise: < 0.5
    # An aborted course episode is counted as failed steps, not rejected.
    aborted = bench.Round(1.0, [_episode([0.5], final_error=math.inf,
                                         aborted=True,
                                         status=("max_iter", "infeasible"))])
    assert bench.check_outputs("obstacle-course", aborted) == []
    f = bench.failures(aborted)
    assert f == {"attempted": 4, "status": 1, "clearance": 0, "abort": 3,
                 "failed": 4}
    f = bench.failures(unsafe)
    assert f["clearance"] == 1 and f["failed"] == 1
