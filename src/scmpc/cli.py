"""Command-line front end: scenario configs, batch runs, CSV and JSON output.

Subcommands:
  simulate        run one scenario or a sweep, writing one CSV per run plus
                  a summary.json with metrics recomputable from the CSVs
  compare-timing  run the linear and nonlinear controllers over a list of
                  horizons and tabulate per-step solve times
  verify          run the built-in property checks (coordinate maps,
                  terminal machinery, sampled terminal safety) and report

A single hierarchical JSON document configures everything; command-line
flags override individual fields. All randomness derives from one seed in
the config, split per run index. Sweep points run one after another.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dfl import DflGuard, decoupling_matrix, map_x_array_to_z, map_z_to_x
from .errors import ConfigError, InfeasibleError
from .lti import discretize_double_integrator, terminal_data
from .model import ExtendedState, RobotParams
from .mpc import FEAS_TOL, MpcConfig, estimate_flops_ip, estimate_flops_sqp
from .safety import Obstacle, sample_terminal_box, terminal_safety_check
from .sim import (NoiseConfig, Scenario, first_deviation_step, run_closed_loop)

__all__ = ["RunManifest", "run", "compare_timing", "verify_report",
           "load_config", "write_trajectory_csv", "main"]

DEVIATION_THRESHOLD = 0.05


@dataclass
class RunManifest:
    """What to execute: config file, output directory, overrides, sweep."""

    config_path: Path
    out_dir: Path
    gamma: float | None = None
    horizon: int | None = None
    mode: str | None = None
    seed: int | None = None
    sweep: bool = False


def _require_keys(section, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}")


def _value(section: dict, key: str, default, where: str, kind=float):
    """section[key] (default if absent) converted by kind.

    A missing required key (default None) or a value kind cannot convert
    raises ConfigError naming the key.
    """
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing key {where}.{key}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key} has an invalid value {value!r} "
                          f"({exc})") from None


def _list(kind, size=None):
    """A converter to a list of kind values, of the given length if any."""
    def convert(value):
        out = [kind(v) for v in value]
        if size is not None and len(out) != size:
            raise ValueError(f"expected {size} entries")
        return out
    return convert


def load_config(path) -> dict:
    """Parse and validate the JSON config into plain python values."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _require_keys(raw, {"seed", "robot", "scenario", "mpc", "dfl", "sweep",
                        "timing"}, "config")
    out = {"seed": _value(raw, "seed", 0, "config", int)}

    robot = raw.get("robot", {})
    _require_keys(robot, {"wheel_radius", "axle_length"}, "robot")
    out["robot"] = RobotParams(
        wheel_radius=_value(robot, "wheel_radius", 0.1, "robot"),
        axle_length=_value(robot, "axle_length", 0.5, "robot"),
    )

    sc = raw.get("scenario", {})
    _require_keys(sc, {"start", "goal", "duration", "mode", "substeps",
                       "obstacles", "noise"}, "scenario")
    out["start"] = ExtendedState(*_value(sc, "start", [7.0, 7.0, math.pi, 0.5],
                                         "scenario", _list(float, 4)))
    out["goal"] = tuple(_value(sc, "goal", [0.0, 0.0], "scenario",
                               _list(float, 2)))
    out["duration"] = _value(sc, "duration", 30.0, "scenario")
    out["mode"] = _value(sc, "mode", "cbf", "scenario", str)
    out["substeps"] = _value(sc, "substeps", 1, "scenario", int)
    obstacles = []
    for i, entry in enumerate(_value(sc, "obstacles", [], "scenario", list)):
        where = f"scenario.obstacles[{i}]"
        _require_keys(entry, {"x", "y", "radius"}, where)
        obstacles.append(Obstacle(*[_value(entry, key, None, where)
                                    for key in ("x", "y", "radius")]))
    out["obstacles"] = tuple(obstacles)
    noise = sc.get("noise", {})
    _require_keys(noise, {"enabled", "variance", "mask"}, "scenario.noise")
    out["noise"] = {
        "enabled": _value(noise, "enabled", False, "scenario.noise", bool),
        "variance": _value(noise, "variance", 0.05, "scenario.noise"),
        "mask": tuple(_value(noise, "mask", [True, True, True],
                             "scenario.noise", _list(bool, 3))),
    }

    mp = raw.get("mpc", {})
    _require_keys(mp, {"horizon", "constraint_horizon", "gamma", "ts", "q",
                       "r", "v_min", "v_max", "pos_min", "pos_max", "u_min",
                       "u_max", "nmpc_q", "nmpc_r", "nmpc_p"}, "mpc")
    kwargs = {}
    for key, kind in (("horizon", int), ("constraint_horizon", int),
                      ("gamma", float), ("ts", float)):
        if key in mp:
            kwargs[key] = _value(mp, key, None, "mpc", kind)
    for json_key, attr in (("q", "Q"), ("r", "R"), ("nmpc_q", "nmpc_Q"),
                           ("nmpc_r", "nmpc_R"), ("nmpc_p", "nmpc_P"),
                           ("v_min", "v_min"), ("v_max", "v_max"),
                           ("pos_min", "pos_min"), ("pos_max", "pos_max"),
                           ("u_min", "u_min"), ("u_max", "u_max")):
        if json_key in mp:
            kwargs[attr] = _value(mp, json_key, None, "mpc",
                                  lambda v: np.asarray(v, dtype=float))
    try:
        out["mpc"] = MpcConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"mpc: {exc}")

    dfl = raw.get("dfl", {})
    _require_keys(dfl, {"zeta_threshold"}, "dfl")
    out["guard"] = DflGuard(zeta_threshold=_value(dfl, "zeta_threshold", 0.01,
                                                  "dfl"))

    sweep = raw.get("sweep", {})
    _require_keys(sweep, {"gamma", "horizon", "mode"}, "sweep")
    out["sweep"] = {key: _value(sweep, key, [], "sweep", _list(kind))
                    for key, kind in (("gamma", float), ("horizon", int),
                                      ("mode", str))}

    timing = raw.get("timing", {})
    _require_keys(timing, {"horizons", "duration"}, "timing")
    out["timing"] = {
        "horizons": _value(timing, "horizons", [8, 10, 12, 14], "timing",
                           _list(int)),
        "duration": _value(timing, "duration", 8.0, "timing"),
    }
    return out


def _derive_seed(base_seed: int, run_index: int) -> int:
    ss = np.random.SeedSequence((int(base_seed), int(run_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _build_scenario(cfg: dict, gamma, horizon, mode, noise_seed) -> Scenario:
    """The config's scenario with gamma, horizon and mode overridden where
    not None."""
    mpc = cfg["mpc"]
    if gamma is not None or horizon is not None:
        updates = {}
        if gamma is not None:
            updates["gamma"] = float(gamma)
        if horizon is not None:
            updates["horizon"] = int(horizon)
        mpc = replace(mpc, **updates)
    return Scenario(
        start=cfg["start"],
        goal=cfg["goal"],
        obstacles=cfg["obstacles"],
        mpc=mpc,
        guard=cfg["guard"],
        duration=cfg["duration"],
        noise=NoiseConfig(enabled=cfg["noise"]["enabled"],
                          variance=cfg["noise"]["variance"],
                          seed=noise_seed,
                          mask=cfg["noise"]["mask"]),
        mode=mode if mode is not None else cfg["mode"],
        substeps=cfg["substeps"],
        robot=cfg["robot"],
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trajectory_csv(log, path) -> None:
    """Write one run as CSV with one barrier/distance column pair per
    obstacle; numeric fields carry full float precision."""
    n_obs = len(log.scenario.obstacles)
    head = ["t", "x1", "x2", "x3", "zeta", "u1", "u2", "omega_r", "omega_l",
            "v1", "v2"]
    for i in range(n_obs):
        head += [f"H{i}", f"dist{i}"]
    head += ["cost", "sqp_iters", "solve_ms"]
    lines = [",".join(head)]
    for r in log.records:
        row = [r.t, r.x1, r.x2, r.x3, r.zeta, r.u1, r.u2, r.omega_r,
               r.omega_l, r.v1, r.v2]
        for i in range(n_obs):
            row += [r.barriers[i], r.distances[i]]
        fields = [_fmt(v) for v in row]
        fields += [_fmt(r.cost), str(int(r.sqp_iterations)),
                   _fmt(r.solve_time * 1e3)]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def _ip_iteration_model(horizon: int) -> int:
    # Interior-point iteration count model O(sqrt(Nm) log(1/eps)).
    return int(math.ceil(math.sqrt(horizon * 2) * math.log10(1.0 / FEAS_TOL)))


def _run_summary(log, name, noise_seed) -> dict:
    s = log.summary
    horizon = log.scenario.mpc.horizon
    times_ms = np.array([r.solve_time * 1e3 for r in log.records])
    sqp_iters = np.array([r.sqp_iterations for r in log.records])
    ip_model = _ip_iteration_model(horizon)
    sqp_median = float(np.median(sqp_iters)) if sqp_iters.size else 0.0
    entry = {
        "file": name,
        "mode": log.scenario.mode,
        "gamma": log.scenario.mpc.gamma,
        "horizon": horizon,
        "noise_seed": noise_seed,
        "aborted": log.aborted,
        "steps": s.steps,
        "goal": list(log.scenario.goal),
        "obstacles": [[o.x, o.y, o.radius] for o in log.scenario.obstacles],
        "min_distance": s.min_distance if log.scenario.obstacles else None,
        "final_position_error": s.final_position_error,
        "solve_ms": {
            "median": float(np.median(times_ms)) if times_ms.size else 0.0,
            "p90": float(np.percentile(times_ms, 90)) if times_ms.size else 0.0,
            "max": float(np.max(times_ms)) if times_ms.size else 0.0,
        },
        "max_solve_le_ts": bool(times_ms.size
                                and np.max(times_ms) <= log.scenario.mpc.ts * 1e3),
        "first_deviation_step": first_deviation_step(log, DEVIATION_THRESHOLD),
        "flops": {
            "ip_iterations_model": ip_model,
            "sqp_iterations_median": sqp_median,
            "flops_ip": estimate_flops_ip(horizon, 2, ip_model),
            "flops_sqp": (estimate_flops_sqp(sqp_median, horizon, 2, ip_model)
                          if sqp_median > 0 else None),
        },
    }
    return entry


def _aggregate_reports(entries) -> dict:
    reports = {}
    # Clearance monotonicity along gamma, per (mode, horizon) group.
    groups = {}
    for e in entries:
        if e["min_distance"] is None:
            continue
        groups.setdefault((e["mode"], e["horizon"]), []).append(e)
    monot = {}
    for (mode, horizon), items in groups.items():
        if len(items) < 2:
            continue
        items = sorted(items, key=lambda e: e["gamma"])
        dists = [e["min_distance"] for e in items]
        monot[f"{mode}_N{horizon}"] = {
            "gammas": [e["gamma"] for e in items],
            "min_distances": dists,
            "monotone_nonincreasing": bool(
                all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))),
        }
    if monot:
        reports["gamma_monotonicity"] = monot
    # First-deviation comparison between cbf and euclid at matching settings.
    by_key = {}
    for e in entries:
        by_key.setdefault((e["gamma"], e["horizon"], e["mode"]), e)
    comparisons = []
    for (gamma, horizon, mode), e in by_key.items():
        if mode != "cbf":
            continue
        other = by_key.get((gamma, horizon, "euclid"))
        if other is None:
            continue
        ks, ke = e["first_deviation_step"], other["first_deviation_step"]
        comparisons.append({
            "gamma": gamma,
            "horizon": horizon,
            "cbf_first_deviation_step": ks,
            "euclid_first_deviation_step": ke,
            "cbf_deviates_earlier": bool(ks is not None and
                                         (ke is None or ks < ke)),
        })
    if comparisons:
        reports["mode_comparison"] = comparisons
    return reports


def run(manifest: RunManifest) -> int:
    """Execute the manifest; returns the process exit code.

    0 for success, 2 if any run aborted infeasible, 3 for config errors.
    The manifest's gamma, horizon and mode stand in for empty sweep axes
    and, without a sweep, override the config's values.
    """
    try:
        cfg = load_config(manifest.config_path)
        seed = cfg["seed"] if manifest.seed is None else int(manifest.seed)
        points = [(manifest.gamma, manifest.horizon, manifest.mode)]
        if manifest.sweep:
            sweep = cfg["sweep"]
            gammas = sweep["gamma"] or [manifest.gamma]
            horizons = sweep["horizon"] or [manifest.horizon]
            modes = sweep["mode"] or [manifest.mode]
            points = [(g, n, m) for m in modes for n in horizons
                      for g in gammas]

        out_dir = Path(manifest.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for idx, (gamma, horizon, mode) in enumerate(points):
            noise_seed = _derive_seed(seed, idx)
            scenario = _build_scenario(cfg, gamma, horizon, mode, noise_seed)
            name = (f"run{idx:03d}_{scenario.mode}_g{scenario.mpc.gamma:g}"
                    f"_N{scenario.mpc.horizon}.csv")
            jobs.append((scenario, name, noise_seed))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    entries = []
    any_infeasible = False
    for scenario, name, noise_seed in jobs:
        try:
            log = run_closed_loop(scenario)
        except InfeasibleError as exc:
            any_infeasible = True
            entries.append({"file": name, "mode": scenario.mode,
                            "gamma": scenario.mpc.gamma,
                            "horizon": scenario.mpc.horizon,
                            "noise_seed": noise_seed, "aborted": True,
                            "error": str(exc)})
            continue
        write_trajectory_csv(log, out_dir / name)
        entries.append(_run_summary(log, name, noise_seed))
        if log.aborted:
            any_infeasible = True

    summary = {"seed": seed, "runs": entries}
    summary.update(_aggregate_reports([e for e in entries if "steps" in e]))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(entries)} run(s) to {out_dir}")
    return 2 if any_infeasible else 0


def compare_timing(manifest: RunManifest, horizons=None) -> dict:
    """Run cbf and nmpc modes over a horizon list and tabulate solve times.

    Returns the summary dict; also writes timing_summary.json and prints a
    table with the per-horizon medians, maxima, the Ts check for the cbf
    mode, and the flop-model columns.
    """
    cfg = load_config(manifest.config_path)
    seed = cfg["seed"] if manifest.seed is None else int(manifest.seed)
    horizons = horizons or cfg["timing"]["horizons"]
    duration = cfg["timing"]["duration"]
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in horizons:
        entry = {"horizon": int(n)}
        for mode in ("cbf", "nmpc"):
            scenario = _build_scenario(cfg, None, int(n), mode, seed)
            scenario = replace(scenario, duration=duration)
            log = run_closed_loop(scenario)
            run_stats = _run_summary(log, None, seed)
            times, flops = run_stats["solve_ms"], run_stats["flops"]
            entry[mode] = {
                "median_ms": times["median"],
                "max_ms": times["max"],
                "aborted": log.aborted,
                "sqp_iterations_median": flops["sqp_iterations_median"],
                "flops_ip": flops["flops_ip"],
                "flops_sqp": flops["flops_sqp"],
            }
        entry["cbf_max_le_ts"] = bool(entry["cbf"]["max_ms"]
                                      <= cfg["mpc"].ts * 1e3)
        entry["nmpc_median_gt_cbf"] = bool(entry["nmpc"]["median_ms"]
                                           > entry["cbf"]["median_ms"])
        rows.append(entry)
    summary = {"ts_ms": cfg["mpc"].ts * 1e3, "horizons": rows}
    (out_dir / "timing_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    print(f"{'N':>4} {'cbf med':>9} {'cbf max':>9} {'nmpc med':>9} "
          f"{'nmpc max':>9} {'max<=Ts':>8} {'nmpc>cbf':>9}")
    for row in rows:
        print(f"{row['horizon']:>4} {row['cbf']['median_ms']:>9.3f} "
              f"{row['cbf']['max_ms']:>9.2f} {row['nmpc']['median_ms']:>9.3f} "
              f"{row['nmpc']['max_ms']:>9.2f} {str(row['cbf_max_le_ts']):>8} "
              f"{str(row['nmpc_median_gt_cbf']):>9}")
    return summary


def verify_report(config_path=None) -> bool:
    """Run the library's property checks and print one line per check."""
    rng = np.random.default_rng(20240501)
    checks = []

    worst = 0.0
    for _ in range(200):
        z = rng.uniform(-5.0, 5.0, size=4)
        if math.hypot(z[1], z[3]) <= 0.02:
            continue
        x, _ = map_z_to_x(z, zeta_threshold=0.01)
        worst = max(worst, float(np.max(np.abs(map_x_array_to_z(x) - z))))
    checks.append(("coordinate map round trip <= 1e-12", worst <= 1e-12,
                   f"worst {worst:.2e}"))

    worst = 0.0
    for _ in range(200):
        s = ExtendedState(rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(-10, 10), rng.uniform(0.01, 5.0))
        _, det = decoupling_matrix(s)
        worst = max(worst, abs(det - s.zeta))
    checks.append(("decoupling determinant equals speed <= 1e-14",
                   worst <= 1e-14, f"worst {worst:.2e}"))

    if config_path is not None:
        # The terminal box is sampled around the origin, so the obstacles
        # move to goal-centered coordinates as in LinearMpc.
        cfg = load_config(config_path)
        gx, gy = cfg["goal"]
        mpc_cfg = cfg["mpc"]
        obstacles = tuple(Obstacle(o.x - gx, o.y - gy, o.radius)
                          for o in cfg["obstacles"])
    else:
        mpc_cfg, obstacles = MpcConfig(), (Obstacle(3.5, 3.5, 1.5),)
    model = discretize_double_integrator(mpc_cfg.ts)
    td = terminal_data(model, mpc_cfg.Q, mpc_cfg.R)
    A_cl = model.A + model.B @ td.K
    resid = td.Qbar - A_cl.T @ td.Qbar @ A_cl - (mpc_cfg.Q + td.K.T @ mpc_cfg.R @ td.K)
    lyap = float(np.max(np.abs(resid)))
    checks.append(("terminal Lyapunov residual <= 1e-9", lyap <= 1e-9,
                   f"residual {lyap:.2e}"))
    checks.append(("terminal closed loop is a contraction",
                   td.spectral_radius < 1.0, f"rho {td.spectral_radius:.6f}"))

    z0 = rng.uniform(-1.0, 1.0, size=4)
    cost = 0.0
    z = z0.copy()
    for _ in range(2000):
        v = td.K @ z
        cost += float(z @ mpc_cfg.Q @ z + v @ mpc_cfg.R @ v)
        z = A_cl @ z
    target = float(z0 @ td.Qbar @ z0)
    rel = abs(cost - target) / max(abs(target), 1e-30)
    checks.append(("closed-loop cost equals terminal quadratic (rel 1e-6)",
                   rel <= 1e-6, f"rel err {rel:.2e}"))

    ok_all = True
    for i, obs in enumerate(obstacles):
        samples = sample_terminal_box(1.0, 0.5, obstacles, 10000, rng)
        rep = terminal_safety_check(model, td.K, mpc_cfg.gamma, obs, samples)
        checks.append((f"terminal safe invariance near goal (obstacle {i})",
                       rep.passed, f"worst margin {rep.worst_margin:.3e}"))

    for name, passed, detail in checks:
        ok_all &= bool(passed)
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return ok_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scmpc",
        description="Barrier-constrained MPC simulator for differential-drive robots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run scenarios from a JSON config")
    sim.add_argument("--config", required=True, help="path to the JSON config")
    sim.add_argument("--gamma", type=float, default=None)
    sim.add_argument("--horizon", type=int, default=None)
    sim.add_argument("--mode", choices=["cbf", "euclid", "nmpc"], default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default="out")
    sim.add_argument("--sweep", action="store_true",
                     help="expand the config's sweep axes")

    timing = sub.add_parser("compare-timing",
                            help="compare per-step solve times of cbf and nmpc")
    timing.add_argument("--config", required=True)
    timing.add_argument("--out", default="out")
    timing.add_argument("--seed", type=int, default=None)
    timing.add_argument("--horizons", default=None,
                        help="comma-separated horizon list, e.g. 8,10,12,14")

    ver = sub.add_parser("verify", help="run the built-in property checks")
    ver.add_argument("--config", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return run(RunManifest(config_path=Path(args.config),
                                   out_dir=Path(args.out), gamma=args.gamma,
                                   horizon=args.horizon, mode=args.mode,
                                   seed=args.seed, sweep=args.sweep))
        if args.command == "compare-timing":
            horizons = None
            if args.horizons:
                try:
                    horizons = [int(tok) for tok in args.horizons.split(",")]
                except ValueError:
                    raise ConfigError(f"--horizons has an invalid value "
                                      f"{args.horizons!r}") from None
            compare_timing(RunManifest(config_path=Path(args.config),
                                       out_dir=Path(args.out), seed=args.seed),
                           horizons)
            return 0
        return 0 if verify_report(args.config) else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"run aborted infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
