import json
import math

import numpy as np
import pytest

from scmpc import ExtendedState, MpcConfig, NoiseConfig, Obstacle, Scenario

GOAL_HEADING = math.atan2(-7.0, -7.0)


def tuned_mpc_config(gamma=0.1, horizon=8, **overrides) -> MpcConfig:
    """The weight set used for the obstacle-course scenarios.

    The position weights follow the library defaults; the velocity weights
    and input bounds are tuned for a brisk pass that keeps a wide berth at
    gamma = 0.1 and stays feasible under measurement noise.
    """
    base = dict(
        horizon=horizon,
        constraint_horizon=10,
        gamma=gamma,
        ts=0.05,
        Q=np.diag([1.0, 0.08, 1.0, 0.08]),
        R=np.diag([0.05, 0.05]),
        v_min=[-50.0, -50.0],
        v_max=[50.0, 50.0],
        pos_min=[-10.0, -10.0],
        pos_max=[10.0, 10.0],
    )
    base.update(overrides)
    return MpcConfig(**base)


def nominal_scenario(gamma=0.1, horizon=8, mode="cbf", noise_seed=None,
                     heading=math.pi, zeta0=0.5, duration=30.0, substeps=1,
                     **cfg_overrides) -> Scenario:
    """Start (7, 7), goal at the origin, obstacle of radius 1.5 between."""
    noise = NoiseConfig()
    if noise_seed is not None:
        noise = NoiseConfig(enabled=True, variance=0.05, seed=noise_seed)
    return Scenario(
        start=ExtendedState(7.0, 7.0, heading, zeta0),
        goal=(0.0, 0.0),
        obstacles=(Obstacle(3.5, 3.5, 1.5),),
        mpc=tuned_mpc_config(gamma=gamma, horizon=horizon, **cfg_overrides),
        duration=duration,
        noise=noise,
        mode=mode,
        substeps=substeps,
    )


def regulation_scenario(duration=30.0) -> Scenario:
    """Obstacle-free run used for the cost-descent checks.

    The start faces the goal exactly, so the optimal motion stays on the
    straight line, all constraints stay inactive, and the plant follows
    the discrete prediction model to machine precision.
    """
    cfg = MpcConfig(v_min=[-1e6, -1e6], v_max=[1e6, 1e6],
                    pos_min=[-1e6, -1e6], pos_max=[1e6, 1e6])
    return Scenario(
        start=ExtendedState(7.0, 7.0, GOAL_HEADING, 0.5),
        goal=(0.0, 0.0),
        obstacles=(),
        mpc=cfg,
        duration=duration,
    )


def comparison_scenario(mode: str) -> Scenario:
    """Scenario for the cbf-versus-euclid deviation comparison.

    The heading is offset 0.2 rad from goal-facing: enough asymmetry to
    pick a side of the obstacle decisively, small enough that the
    unconstrained path stays within the deviation threshold until the
    safety constraints act.
    """
    return nominal_scenario(mode=mode, heading=GOAL_HEADING + 0.2)


def base_cli_config() -> dict:
    return {
        "seed": 1234,
        "robot": {"wheel_radius": 0.1, "axle_length": 0.5},
        "scenario": {
            "start": [7.0, 7.0, math.pi, 0.5],
            "goal": [0.0, 0.0],
            "duration": 30.0,
            "mode": "cbf",
            "substeps": 1,
            "obstacles": [{"x": 3.5, "y": 3.5, "radius": 1.5}],
            "noise": {"enabled": False, "variance": 0.05,
                      "mask": [True, True, True]},
        },
        "mpc": {
            "horizon": 8,
            "constraint_horizon": 10,
            "gamma": 0.1,
            "ts": 0.05,
            "q": [1.0, 0.08, 1.0, 0.08],
            "r": [0.05, 0.05],
            "v_min": [-50.0, -50.0],
            "v_max": [50.0, 50.0],
            "pos_min": [-10.0, -10.0],
            "pos_max": [10.0, 10.0],
        },
        "dfl": {"zeta_threshold": 0.01},
        "sweep": {"gamma": [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]},
        "timing": {"horizons": [8, 10], "duration": 4.0},
    }


@pytest.fixture
def cli_config_file(tmp_path):
    def _write(updates=None) -> str:
        cfg = base_cli_config()
        if updates:
            for dotted, value in updates.items():
                node = cfg
                parts = dotted.split(".")
                for part in parts[:-1]:  # "name" or "name[index]"
                    name, _, index = part.partition("[")
                    node = node[name]
                    if index:
                        node = node[int(index.rstrip("]"))]
                node[parts[-1]] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write
