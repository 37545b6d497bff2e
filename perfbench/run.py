"""Closed-loop control-step benchmark of scmpc.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nominal-cbf --seed 1 --seconds 15 --trace 0

``--trace 0`` times rounds with no wrappers except the per-step status
recorder and reports the end-to-end metrics. ``--trace 1`` alternates
untraced and fully traced rounds and reports the per-layer metrics, the
tracing overhead, and whether tracing changed any trajectory. A table for
people comes first; the last line of standard output is one JSON object.
Details, the environment record and (traced) spans go to .perfbench_out/.
The exit code is 0 only if every output check passed.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()


def _abort(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(bench, seed):
    """Machine, library and run settings recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scmpc_threads": bench.SWEEP_THREADS,
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scmpc" / "__init__.py").is_file():
        _abort("run from a source checkout: src/scmpc not found")
    if not (ROOT / "BENCHMARK.json").is_file():
        _abort("BENCHMARK.json not found")
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # after sys.path points at the checkout's sources

    if args.workload not in bench.WORKLOADS:
        _abort(f"unknown workload '{args.workload}'")
    if args.workload == "gamma-sweep" and not bench.CONFIG.is_file():
        _abort(f"{bench.CONFIG} not found")
    pkg, inputs, setup_times = bench.setup(args.workload)
    if Path(pkg.__file__).resolve().parent != (ROOT / "src" / "scmpc").resolve():
        _abort(f"scmpc imported from {pkg.__file__}, not from this checkout")
    bench.OUT.mkdir(exist_ok=True)

    if args.trace:
        rounds, metrics, tracer, problems = bench.traced_rounds(
            pkg, inputs, args.seconds)
        tracer.save(bench.OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        samples = {"rounds": len(rounds)}
    else:
        # Set-ups between rounds spread setup_s over the whole run.
        rounds = bench.timed_rounds(
            pkg, inputs, args.seconds, between=lambda: setup_times.extend(
                bench.setup(args.workload, bench.SETUP_PER_ROUND)[2]))
        metrics, samples = bench.end_to_end(rounds, setup_times)
        problems = []

    for i, rnd in enumerate(rounds[1:], 1):
        if not bench.same_work(rounds[0], rnd):
            problems.append(f"round {i} produced a different trajectory "
                            "or solver log than round 0")
    problems += bench.check_outputs(args.workload, rounds[0])
    fails = bench.failures(rounds[0])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(bench, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}")
    print(f"  env {json.dumps(env)}")
    for name, unit in declared.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_step_frac':<34} {fails['failed'] / fails['attempted']:>14.6g} "
          f"frac  ({fails['failed']}/{fails['attempted']} steps per round; "
          f"status {fails['status']}, clearance {fails['clearance']}, "
          f"abort {fails['abort']})")
    for key, value in samples.items():
        print(f"  {key:<34} {value:>14}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    n_rounds = len(rounds)
    result = {
        "correct": not problems,
        "attempted": fails["attempted"] * n_rounds,
        "failed": fails["failed"] * n_rounds,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in declared.items()},
    }
    detail = dict(result, env=env, failures=fails, samples=samples,
                  problems=problems, setup_times=setup_times,
                  all_metrics={k: float(v) for k, v in metrics.items()})
    (bench.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
