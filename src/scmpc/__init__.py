"""Barrier-constrained linear MPC for differential-drive robots.

An integrator extension and a linearizing feedback turn the unicycle into
a pair of double integrators; a receding-horizon controller with barrier
decay constraints then plans safe motions as small dense QCQPs. The
package bundles the robot models, the coordinate maps, the terminal-cost
machinery, an embedded SQP/active-set solver, a closed-loop simulator,
and a CLI for running and sweeping scenarios.
"""

from .errors import ConfigError, InfeasibleError, NumericalError
from .model import ExtendedState
from .dfl import DflGuard
from .lti import discretize_double_integrator, terminal_data
from .safety import Obstacle
from .mpc import LinearMpc, MpcConfig, NonlinearMpc, build_qcqp, solve_sqp
from .sim import (NoiseConfig, Scenario, cost_sequence, first_deviation_step,
                  run_closed_loop)

__all__ = [
    "ConfigError", "InfeasibleError", "NumericalError", "ExtendedState",
    "DflGuard", "discretize_double_integrator", "terminal_data", "Obstacle",
    "MpcConfig", "LinearMpc", "NonlinearMpc", "build_qcqp", "solve_sqp",
    "NoiseConfig", "Scenario", "run_closed_loop", "cost_sequence",
    "first_deviation_step",
]

__version__ = "0.1.0"
