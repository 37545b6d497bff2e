"""Dump the closed-loop trajectories of a fixed run set, and diff two dumps.

A dump records, for every run, each control step's StepRecord fields
except solve_time, plus the solver status and the SQP and QP iteration
counts of every controller call, whether the run aborted and its final
state. The run set is nominal cbf and euclid (50 s), nominal cbf with 4
plant substeps (10 s), nominal cbf with start, goal and obstacle moved by
(-3, -3) (10 s), euclid on the library's default MpcConfig (30 s), the
gamma points below 1 of configs/nominal.json (10 s each), the obstacle
course at N = 14 under noise seeds 0-3 (30 s), the nominal scenario under
noise seeds 0-3 at gamma 0.5, at gamma 0.9 and in euclid mode (10 s
each; most abort by step 14, after an infeasible solve and its gamma
retry), the nmpc baseline (8 s) and the nmpc baseline under noise seed 0
with 2 plant substeps (8 s). A run that aborts mid-way keeps its partial
log. The runs share two worker
processes.

Compare two checkouts from the root of either:

    PYTHONPATH=/path/to/old/src python tools/trajdiff.py dump old.json
    PYTHONPATH=src python tools/trajdiff.py dump new.json
    python tools/trajdiff.py diff old.json new.json

The diff prints one line per run that both dumps have: the largest
absolute deviation of any step field but the SQP count (and where it is,
and the largest in the position and in the virtual input v on their own),
the minimum obstacle distance on both sides and whether it agrees to 7
decimals, the step and abort counts, the number of steps whose status
differs, the steps that take more and fewer SQP iterations, the SQP and QP
iteration totals, and the largest QP iteration count of one step. A second
line lists each step whose SQP count changed, with the change. A run that
only one dump has is listed as missing from the other. A totals line
follows: the shared runs' summed SQP iterations and QP KKT solves on each
side, and how many runs take more and fewer KKT solves.

diff exits 0 when the two dumps are bit-identical: the same runs, and in
each every step field, the final state, every call's status and SQP and
QP counts, the step count and the abort flag. Otherwise it names the runs
that differ on a last line and exits 1.
"""

import argparse
import json
import math
import multiprocessing
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nominal.json"
COURSE_OBSTACLES = ((4.5, 4.5, 1.0), (2.0, 2.0, 0.8), (5.5, 2.0, 0.7))
SKIPPED = ("solve_time",)
COUNT = "sqp_iterations"  # compared step by step, not as a deviation
# Field groups whose largest deviation is printed on its own.
GROUPS = {"position": ("x1", "x2"), "v": ("v1", "v2")}


def run_set(config_path):
    """The named scenarios of the run set, in a fixed order."""
    from scmpc import MpcConfig, NoiseConfig, Obstacle
    from scmpc.cli import _build_scenario, load_config

    cfg = load_config(config_path)
    seed = cfg["seed"]
    base = _build_scenario(cfg, None, None, None, seed)
    runs = {
        "nominal-cbf-50s": replace(base, duration=50.0),
        "nominal-euclid-50s": replace(
            _build_scenario(cfg, None, None, "euclid", seed), duration=50.0),
        "nominal-cbf-substeps4-10s": replace(base, substeps=4, duration=10.0),
        # A nonzero goal: LinearMpc shifts the state, the obstacles and the
        # position box by it.
        "nominal-cbf-goal-3-10s": replace(
            base, start=replace(base.start, x1=base.start.x1 - 3.0,
                                x2=base.start.x2 - 3.0),
            goal=(base.goal[0] - 3.0, base.goal[1] - 3.0),
            obstacles=tuple(Obstacle(o.x - 3.0, o.y - 3.0, o.radius)
                            for o in base.obstacles),
            duration=10.0),
        # The input box of +-10 binds, and it is the one run whose SQP
        # solves also stop at the exit after the line search.
        "default-bounds-euclid-30s": replace(
            base, mode="euclid", mpc=MpcConfig(gamma=0.1, horizon=8),
            duration=30.0),
    }
    # gamma = 1 is the euclid run's first 10 s.
    for gamma in (g for g in cfg["sweep"]["gamma"] if g < 1.0):
        runs[f"sweep-gamma{gamma:g}-10s"] = replace(
            _build_scenario(cfg, gamma, None, None, seed), duration=10.0)
    course = replace(_build_scenario(cfg, None, 14, None, seed),
                     obstacles=tuple(Obstacle(*o) for o in COURSE_OBSTACLES),
                     duration=30.0)
    for noise_seed in range(4):
        runs[f"course-seed{noise_seed}-30s"] = replace(
            course, noise=NoiseConfig(enabled=True, variance=0.05,
                                      seed=noise_seed))
    for label, gamma, mode in (("gamma0.5", 0.5, None), ("gamma0.9", 0.9, None),
                               ("euclid", None, "euclid")):
        noisy = replace(_build_scenario(cfg, gamma, None, mode, seed),
                        duration=10.0)
        for noise_seed in range(4):
            runs[f"noisy-{label}-seed{noise_seed}-10s"] = replace(
                noisy, noise=NoiseConfig(enabled=True, variance=0.05,
                                         seed=noise_seed))
    runs["nmpc-8s"] = replace(base, mode="nmpc", duration=8.0)
    runs["nmpc-seed0-substeps2-8s"] = replace(
        runs["nmpc-8s"], substeps=2,
        noise=NoiseConfig(enabled=True, variance=0.05, seed=0))
    return runs


_CALLS = []  # in a worker: status and counts of the current run's calls


def _install_recorder():
    """Wrap both controllers' solve to record each call in _CALLS."""
    from scmpc.mpc import LinearMpc, NonlinearMpc

    for cls in (LinearMpc, NonlinearMpc):
        def wrapper(controller, state, _solve=cls.solve):
            res = _solve(controller, state)
            _CALLS.append([res.status, res.sqp_iterations,
                           res.qp_iterations_total])
            return res
        cls.solve = wrapper


def _dump_run(job):
    """(name, the run's dump entry, or the error it raised) of one run."""
    from scmpc import InfeasibleError, run_closed_loop

    config_path, name, names = job
    _CALLS.clear()
    try:
        log = run_closed_loop(run_set(config_path)[name])
    except InfeasibleError as exc:
        return name, f"run raised {exc!r}"
    return name, {
        "steps": [[_plain(getattr(r, f)) for f in names] for r in log.records],
        "calls": list(_CALLS),
        "aborted": bool(log.aborted),
        "final_state": [float(x) for x in log.final_state],
    }


def dump(path, config_path=CONFIG):
    """Run the run set with the importable scmpc on a pool of two spawned
    worker processes, each with its own call recorder, and write the dump.
    The runs are kept in run-set order, so the file is the same as one
    written by running them one after another."""
    from scmpc.sim import StepRecord

    names = [f.name for f in fields(StepRecord) if f.name not in SKIPPED]
    out = {"fields": names, "runs": {}}
    jobs = [(config_path, name, names) for name in run_set(config_path)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2, initializer=_install_recorder) as pool:
        for name, run in pool.imap(_dump_run, jobs):
            if isinstance(run, str):
                sys.exit(f"{name}: {run}")
            out["runs"][name] = run
            print(f"{name}: {len(run['steps'])} steps", file=sys.stderr)
    Path(path).write_text(json.dumps(out))


def _plain(value):
    if isinstance(value, tuple):
        return [float(x) for x in value]
    return float(value)


def _flat(step, skip):
    for i, value in enumerate(step):
        if i == skip:
            continue
        if isinstance(value, list):
            for j, x in enumerate(value):
                yield (i, j), x
        else:
            yield (i, None), value


def _min_distance(run, names):
    col = names.index("distances")
    return min((min(s[col]) for s in run["steps"] if s[col]), default=math.nan)


def _dumped(run):
    """The run as JSON text: floats in shortest round-trip form, so equal
    text means equal bits (NaN matches NaN, -0.0 differs from 0.0)."""
    return json.dumps(run, sort_keys=True)


def diff_run(a, b, names):
    """Largest deviation and count deltas between two dumps of one run."""
    count = names.index(COUNT)
    worst, where = 0.0, None
    per_field = [0.0] * len(names)
    for k, (sa, sb) in enumerate(zip(a["steps"], b["steps"])):
        for (key, x), (_, y) in zip(_flat(sa, count), _flat(sb, count)):
            dev = abs(x - y)
            per_field[key[0]] = max(per_field[key[0]], dev)
            if dev > worst or (math.isnan(dev) and where is None):
                worst, where = dev, (k, key)
    for x, y in zip(a["final_state"], b["final_state"]):
        if abs(x - y) > worst:
            worst, where = abs(x - y), ("final", None)
    label = None
    if where == ("final", None):
        label = "final state"
    elif where is not None:
        k, (i, j) = where
        label = f"step {k} {names[i]}" + (f"[{j}]" if j is not None else "")
    status_changed = sum(x[0] != y[0] for x, y in zip(a["calls"], b["calls"]))
    sqp_delta = [sb[count] - sa[count]
                 for sa, sb in zip(a["steps"], b["steps"])]
    return {
        "identical": _dumped(a) == _dumped(b),
        "max_dev": worst,
        "at": label,
        "groups": {g: max(per_field[names.index(f)] for f in members)
                   for g, members in GROUPS.items()},
        "min_dist": (_min_distance(a, names), _min_distance(b, names)),
        "steps": (len(a["steps"]), len(b["steps"])),
        "aborted": (a["aborted"], b["aborted"]),
        "status_changed": status_changed,
        "sqp_more": sum(x > 0 for x in sqp_delta),
        "sqp_fewer": sum(x < 0 for x in sqp_delta),
        "sqp_changed": [(k, int(x)) for k, x in enumerate(sqp_delta) if x],
        "status": tuple(dict(Counter(c[0] for c in r["calls"]))
                        for r in (a, b)),
        "sqp": tuple(sum(c[1] for c in r["calls"]) for r in (a, b)),
        "qp": tuple(sum(c[2] for c in r["calls"]) for r in (a, b)),
        "qp_max": tuple(max((c[2] for c in r["calls"]), default=0)
                        for r in (a, b)),
    }


def diff(path_a, path_b):
    """Print one line per run shared by the two dumps, and one per run
    that only one of them has. Returns whether the dumps are bit-identical."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["fields"] != b["fields"]:
        sys.exit("the dumps record different StepRecord fields")
    names = a["fields"]
    differ = []
    totals = Counter()
    for name in a["runs"]:
        if name not in b["runs"]:
            print(f"{name}: missing from {path_b}")
            differ.append(name)
            continue
        d = diff_run(a["runs"][name], b["runs"][name], names)
        if not d["identical"]:
            differ.append(name)
        totals.update(sqp_a=d["sqp"][0], sqp_b=d["sqp"][1], qp_a=d["qp"][0],
                      qp_b=d["qp"][1], qp_more=d["qp"][1] > d["qp"][0],
                      qp_fewer=d["qp"][1] < d["qp"][0])
        da, db = d["min_dist"]
        same = f"{da:.7f}" == f"{db:.7f}"
        groups = ", ".join(f"{g} {dev:.2e}" for g, dev in d["groups"].items())
        print(f"{name}: max dev {d['max_dev']:.2e} ({d['at']}; {groups}); "
              f"min dist {da:.9g} / {db:.9g} ({'equal' if same else 'DIFFERS'} "
              f"to 7 decimals); steps {d['steps'][0]} / {d['steps'][1]}; "
              f"aborted {d['aborted'][0]} / {d['aborted'][1]}; "
              f"status changed on {d['status_changed']} steps, "
              f"{d['status'][0]} / {d['status'][1]}; "
              f"steps with more / fewer SQP iterations "
              f"{d['sqp_more']} / {d['sqp_fewer']}; "
              f"SQP iterations {d['sqp'][0]} / {d['sqp'][1]}; "
              f"QP iterations {d['qp'][0]} / {d['qp'][1]}, "
              f"worst step {d['qp_max'][0]} / {d['qp_max'][1]}")
        if d["sqp_changed"]:
            print("  SQP count changed at step (delta): " + ", ".join(
                f"{k} ({x:+d})" for k, x in d["sqp_changed"]))
    for name in b["runs"]:
        if name not in a["runs"]:
            print(f"{name}: missing from {path_a}")
            differ.append(name)
    print(f"totals: SQP iterations {totals['sqp_a']} / {totals['sqp_b']}; "
          f"QP iterations {totals['qp_a']} / {totals['qp_b']}; "
          f"runs with more / fewer QP iterations "
          f"{totals['qp_more']} / {totals['qp_fewer']}")
    if differ:
        print(f"{len(differ)} runs differ: {', '.join(differ)}")
    else:
        print(f"all {len(a['runs'])} runs bit-identical")
    return not differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the run set and write a dump")
    p_dump.add_argument("out")
    p_dump.add_argument("--config", default=str(CONFIG))
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.config)
    elif not diff(args.a, args.b):
        sys.exit(1)


if __name__ == "__main__":
    main()
