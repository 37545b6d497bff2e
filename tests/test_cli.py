import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import nominal_scenario
from scmpc.cli import (RunManifest, compare_timing, load_config, main, run,
                       write_trajectory_csv, _ip_iteration_model)
from scmpc import DflGuard, NoiseConfig, Obstacle, run_closed_loop
from scmpc.errors import ConfigError
from scmpc.model import RobotParams
from scmpc.mpc import estimate_flops_ip, estimate_flops_sqp

EXPECTED_HEADER = ("t,x1,x2,x3,zeta,u1,u2,omega_r,omega_l,v1,v2,"
                   "H0,dist0,cost,sqp_iters,solve_ms")


def _read_csv(path):
    with open(path) as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


def _strict_json(path):
    """The JSON document at path. NaN and Infinity, which JSON does not
    have, raise instead of parsing."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_single_run_exit_zero_and_schema(cli_config_file, tmp_path):
    out = tmp_path / "out"
    code = run(RunManifest(config_path=Path(cli_config_file()), out_dir=out))
    assert code == 0
    csv_files = sorted(out.glob("*.csv"))
    assert len(csv_files) == 1
    header_line = csv_files[0].read_text().splitlines()[0]
    assert header_line == EXPECTED_HEADER
    header, rows = _read_csv(csv_files[0])
    assert rows.shape[0] == 600
    # >= 12 significant digits survive the round trip
    assert float(f"{rows[5, 1]:.12g}") == pytest.approx(rows[5, 1], rel=1e-12)
    summary = _strict_json(out / "summary.json")
    assert len(summary["runs"]) == 1
    assert summary["runs"][0]["aborted"] is False


def test_gamma_sweep_layout_and_monotonicity_report(cli_config_file, tmp_path):
    out = tmp_path / "sweep"
    code = run(RunManifest(config_path=Path(cli_config_file()), out_dir=out,
                           sweep=True))
    assert code == 0
    csv_files = sorted(out.glob("*.csv"))
    assert len(csv_files) == 6
    summary = _strict_json(out / "summary.json")
    assert len(summary["runs"]) == 6
    report = summary["gamma_monotonicity"]["cbf_N8"]
    assert report["gammas"] == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    dists = report["min_distances"]
    assert report["monotone_nonincreasing"] is True
    assert all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))


def test_mode_comparison_report(cli_config_file, tmp_path):
    heading = math.atan2(-7.0, -7.0) + 0.2
    cfg_path = cli_config_file({
        "scenario.start": [7.0, 7.0, heading, 0.5],
        "sweep": {"gamma": [], "horizon": [], "mode": ["cbf", "euclid"]},
    })
    out = tmp_path / "modes"
    code = run(RunManifest(config_path=Path(cfg_path), out_dir=out, sweep=True))
    assert code == 0
    summary = _strict_json(out / "summary.json")
    comp = summary["mode_comparison"][0]
    assert comp["cbf_first_deviation_step"] < comp["euclid_first_deviation_step"]
    assert comp["cbf_deviates_earlier"] is True


def test_overrides_apply(cli_config_file, tmp_path):
    out = tmp_path / "ovr"
    code = run(RunManifest(config_path=Path(cli_config_file()), out_dir=out,
                           gamma=0.5, horizon=6, mode="euclid", seed=99))
    assert code == 0
    summary = _strict_json(out / "summary.json")
    entry = summary["runs"][0]
    assert entry["gamma"] == 0.5
    assert entry["horizon"] == 6
    assert entry["mode"] == "euclid"
    assert summary["seed"] == 99
    assert entry["file"].endswith("euclid_g0.5_N6.csv")


def test_bad_config_value_exits_three(cli_config_file, tmp_path, capsys):
    cfg = cli_config_file({"mpc.gamma": 1.5})
    code = run(RunManifest(config_path=Path(cfg), out_dir=tmp_path / "x"))
    assert code == 3
    assert "gamma" in capsys.readouterr().err
    # Values of the wrong type exit 3 through the CLI as well, naming the key.
    # Booleans take only JSON true/false (bool("false") is True), integers
    # only integral numbers (int(2.5) truncates).
    for key, value in (("mpc.gamma", "fast"), ("mpc.horizon", "eight"),
                       ("scenario.start", 5), ("seed", "abc"),
                       ("scenario.noise.variance", "big"),
                       ("scenario.noise.variance", float("nan")),
                       ("mpc.q", [float("nan"), 1.0, 1.0, 1.0]),
                       ("mpc.q", [float("inf"), 1.0, 1.0, 1.0]),
                       ("mpc.gamma", float("nan")),
                       ("scenario.noise", 5),
                       ("scenario.noise.enabled", "false"),
                       ("scenario.noise.enabled", 0),
                       ("scenario.noise.mask", ["no", "no", "no"]),
                       ("scenario.noise.mask", [1, 1, 0]),
                       ("scenario.substeps", 2.5), ("scenario.substeps", True),
                       ("mpc.horizon", 8.7), ("mpc.constraint_horizon", 1.5),
                       ("seed", 1.9), ("seed", "12"), ("seed", -1),
                       ("sweep.horizon", [8.5]),
                       ("timing.horizons", [8, True]),
                       # Reals take only finite numbers, not strings or bools.
                       ("scenario.obstacles",
                        [{"x": True, "y": 0.0, "radius": 1.0}]),
                       ("mpc.gamma", "0.5"), ("mpc.gamma", 10**400),
                       ("scenario.noise.variance", True),
                       ("mpc.q", [True, 1.0, 1.0, 1.0]),
                       # Values only a dataclass checked, now with key paths.
                       ("scenario.obstacles[0].radius", -1),
                       ("scenario.duration", -1), ("timing.duration", -1)):
        cfg = cli_config_file({key: value})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 3
        assert key in capsys.readouterr().err
    # A negative seed on the command line as well, before any run.
    for command in ("simulate", "compare-timing"):
        assert main([command, "--config", cli_config_file(), "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 3
        assert "--seed" in capsys.readouterr().err
    cfg = load_config(cli_config_file({"scenario.substeps": 2.0, "seed": 7.0,
                                       "mpc.horizon": 6.0}))
    assert (cfg["substeps"], cfg["seed"], cfg["mpc"].horizon) == (2, 7, 6)
    assert isinstance(cfg["substeps"], int) and isinstance(cfg["seed"], int)


def test_a_duration_of_no_sample_exits_three(cli_config_file, tmp_path,
                                            capsys):
    # 0.01 s rounds to no sample of ts = 0.05 s: the run would have no step.
    for key, command in (("scenario.duration", "simulate"),
                         ("timing.duration", "compare-timing")):
        out = tmp_path / command
        assert main([command, "--config", cli_config_file({key: 0.01}),
                     "--out", str(out)]) == 3
        assert "duration" in capsys.readouterr().err
        assert not list(out.glob("*.json"))


def test_unknown_key_exits_three(cli_config_file, tmp_path, capsys):
    cfg_path = Path(cli_config_file())
    raw = json.loads(cfg_path.read_text())
    raw["scenario"]["typo_key"] = 1
    cfg_path.write_text(json.dumps(raw))
    code = run(RunManifest(config_path=cfg_path, out_dir=tmp_path / "x"))
    assert code == 3
    assert "typo_key" in capsys.readouterr().err


def test_missing_config_exits_three(tmp_path):
    code = run(RunManifest(config_path=tmp_path / "none.json",
                           out_dir=tmp_path / "x"))
    assert code == 3


def test_infeasible_run_exits_two(cli_config_file, tmp_path):
    cfg = cli_config_file({
        "scenario.start": [5.0, 0.0, math.pi, 1.0],
        "scenario.obstacles": [{"x": 1.8, "y": 0.0, "radius": 0.5}],
        "scenario.duration": 8.0,
        "mpc.r": [10.0, 10.0],
        "mpc.v_min": [-0.5, -0.5],
        "mpc.v_max": [0.5, 0.5],
        "mpc.constraint_horizon": 0,
    })
    out = tmp_path / "abort"
    code = run(RunManifest(config_path=Path(cfg), out_dir=out))
    assert code == 2
    summary = _strict_json(out / "summary.json")
    assert summary["runs"][0]["aborted"] is True


def test_start_inside_an_obstacle_aborts_every_run(cli_config_file, tmp_path,
                                                   capsys):
    # Every run raises InfeasibleError before its first step.
    cfg = cli_config_file({"scenario.start": [3.5, 3.5, math.pi, 0.5]})
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--sweep"]) == 2
    assert not list(out.glob("*.csv"))
    runs = _strict_json(out / "summary.json")["runs"]
    assert [e["gamma"] for e in runs] == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for entry in runs:
        assert entry["aborted"] is True and "steps" not in entry
        assert "infeasible" in entry["error"]
    capsys.readouterr()
    assert main(["compare-timing", "--config", cfg,
                 "--out", str(tmp_path / "t")]) == 2
    assert "run aborted infeasible" in capsys.readouterr().err


def test_summary_recomputable_from_csv(cli_config_file, tmp_path):
    out = tmp_path / "rt"
    code = run(RunManifest(config_path=Path(cli_config_file()), out_dir=out))
    assert code == 0
    summary = _strict_json(out / "summary.json")
    entry = summary["runs"][0]
    header, rows = _read_csv(out / entry["file"])
    col = {name: i for i, name in enumerate(header)}

    dist = rows[:, col["dist0"]]
    assert entry["min_distance"] == pytest.approx(float(np.min(dist)), abs=1e-9)

    gx, gy = entry["goal"]
    final = math.hypot(rows[-1, col["x1"]] - gx, rows[-1, col["x2"]] - gy)
    assert entry["final_position_error"] == pytest.approx(final, abs=1e-9)

    times = rows[:, col["solve_ms"]]
    assert entry["solve_ms"]["median"] == pytest.approx(float(np.median(times)), abs=1e-9)
    assert entry["solve_ms"]["max"] == pytest.approx(float(np.max(times)), abs=1e-9)

    ip_model = _ip_iteration_model(entry["horizon"])
    assert entry["flops"]["ip_iterations_model"] == ip_model
    sqp_med = float(np.median(rows[:, col["sqp_iters"]]))
    assert entry["flops"]["sqp_iterations_median"] == pytest.approx(sqp_med, abs=1e-12)
    assert entry["flops"]["flops_ip"] == pytest.approx(
        estimate_flops_ip(entry["horizon"], 2, ip_model), abs=1e-9)
    assert entry["flops"]["flops_sqp"] == pytest.approx(
        estimate_flops_sqp(sqp_med, entry["horizon"], 2, ip_model), abs=1e-9)

    # lateral-deviation step from the raw columns
    sx, sy = rows[0, col["x1"]], rows[0, col["x2"]]
    dxg, dyg = gx - sx, gy - sy
    norm = math.hypot(dxg, dyg)
    lateral = np.abs((rows[:, col["x1"]] - sx) * dyg
                     - (rows[:, col["x2"]] - sy) * dxg) / norm
    crossing = np.flatnonzero(lateral > 0.05)
    expect = int(crossing[0]) if crossing.size else None
    assert entry["first_deviation_step"] == expect


def test_multi_obstacle_csv_columns(cli_config_file, tmp_path):
    cfg = cli_config_file({
        "scenario.obstacles": [{"x": 4.5, "y": 4.5, "radius": 1.0},
                               {"x": 2.0, "y": 2.0, "radius": 0.8}],
        "scenario.duration": 2.0,
    })
    out = tmp_path / "multi"
    assert run(RunManifest(config_path=Path(cfg), out_dir=out)) == 0
    header_line = next(out.glob("*.csv")).read_text().splitlines()[0]
    assert header_line == ("t,x1,x2,x3,zeta,u1,u2,omega_r,omega_l,v1,v2,"
                           "H0,dist0,H1,dist1,cost,sqp_iters,solve_ms")


def test_csv_fields_are_the_record_fields_at_full_precision(tmp_path):
    # Two obstacles under noise: every float column, the barrier and
    # distance pairs among them, is format(value, ".17g") of its field.
    sc = replace(nominal_scenario(noise_seed=0, duration=1.0),
                 obstacles=(Obstacle(3.5, 3.5, 1.5), Obstacle(6.0, 5.0, 0.5)))
    log = run_closed_loop(sc)
    path = tmp_path / "run.csv"
    write_trajectory_csv(log, path)
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    assert len(lines) == len(log.records) + 1 > 1
    names = ("t", "x1", "x2", "x3", "zeta", "u1", "u2", "omega_r", "omega_l",
             "v1", "v2", "cost")
    for r, line in zip(log.records, lines[1:]):
        text = dict(zip(head, line.split(",")))
        floats = {name: getattr(r, name) for name in names}
        for i in range(2):
            floats[f"H{i}"], floats[f"dist{i}"] = r.barriers[i], r.distances[i]
        floats["solve_ms"] = r.solve_time * 1e3
        assert sorted(text) == sorted([*floats, "sqp_iters"])
        assert {k: text[k] for k in floats} == {
            k: format(v, ".17g") for k, v in floats.items()}
        assert text["sqp_iters"] == str(r.sqp_iterations)


def test_csv_determinism_excluding_wall_clock(cli_config_file, tmp_path):
    cfg = cli_config_file({"scenario.noise": {"enabled": True,
                                              "variance": 0.05,
                                              "mask": [True, True, True]},
                           "scenario.duration": 5.0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(RunManifest(config_path=Path(cfg), out_dir=out_a)) == 0
    assert run(RunManifest(config_path=Path(cfg), out_dir=out_b)) == 0
    _, rows_a = _read_csv(next(out_a.glob("*.csv")))
    _, rows_b = _read_csv(next(out_b.glob("*.csv")))
    # everything except the wall-clock column is bit-identical
    assert np.array_equal(rows_a[:, :-1], rows_b[:, :-1])


def test_compare_timing_table(cli_config_file, tmp_path):
    cfg = cli_config_file({"timing": {"horizons": [8], "duration": 3.0}})
    summary = compare_timing(RunManifest(config_path=Path(cfg),
                                         out_dir=tmp_path / "t"))
    assert _strict_json(tmp_path / "t" / "timing_summary.json") == summary
    row = summary["horizons"][0]
    assert row["horizon"] == 8
    assert row["nmpc"]["median_ms"] > 0.0
    assert row["cbf"]["median_ms"] > 0.0
    ip_model = _ip_iteration_model(8)
    assert row["cbf"]["flops_ip"] == pytest.approx(
        estimate_flops_ip(8, 2, ip_model), abs=1e-9)
    assert row["cbf"]["flops_sqp"] == pytest.approx(
        estimate_flops_sqp(row["cbf"]["sqp_iterations_median"], 8, 2, ip_model),
        abs=1e-9)


def test_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_config_errors_exit_three_in_every_subcommand(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["verify", "--config", missing]) == 3
    assert main(["compare-timing", "--config", missing,
                 "--out", str(tmp_path / "t")]) == 3
    assert main(["simulate", "--config", missing,
                 "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err.count("config file not found") == 3
    assert main(["compare-timing", "--config", missing, "--horizons", "8,x",
                 "--out", str(tmp_path / "t")]) == 3
    assert "--horizons" in capsys.readouterr().err


def test_verify_terminal_safety_is_goal_centered(cli_config_file, capsys):
    # Translating goal and obstacle together leaves the scene around the
    # goal unchanged, so the sampled terminal-safety lines must not move.
    def safety_lines(updates):
        main(["verify", "--config", cli_config_file(updates)])
        return [line for line in capsys.readouterr().out.splitlines()
                if "terminal safe invariance" in line]

    base = safety_lines({})
    moved = safety_lines({
        "scenario.goal": [-3.0, -3.0],
        "scenario.obstacles": [{"x": 0.5, "y": 0.5, "radius": 1.5}],
    })
    assert len(base) == 1
    assert moved == base


def test_main_simulate_round_trip(cli_config_file, tmp_path):
    cfg = cli_config_file({"scenario.duration": 2.0})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "summary.json").exists()


def test_load_config_defaults(tmp_path):
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")
    # Absent robot, dfl and noise keys take the dataclasses' defaults.
    path = tmp_path / "empty.json"
    path.write_text("{}")
    cfg = load_config(path)
    assert cfg["robot"] == RobotParams() and cfg["guard"] == DflGuard()
    assert NoiseConfig(**cfg["noise"]) == NoiseConfig()


NO_SCIPY_SCRIPT = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")

import scmpc
import scmpc.cli  # noqa: F401
from conftest import nominal_scenario

log = scmpc.run_closed_loop(nominal_scenario(duration=0.25))
assert len(log.records) == 5 and not log.aborted
print("ran without scipy")
"""


def test_runs_without_scipy():
    # pyproject.toml declares numpy only; scipy must stay optional.
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "ran without scipy" in proc.stdout
