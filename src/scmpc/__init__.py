"""Barrier-constrained linear MPC for differential-drive robots.

An integrator extension and a linearizing feedback turn the unicycle into
a pair of double integrators; a receding-horizon controller with barrier
decay constraints then plans safe motions as small dense QCQPs. The
package bundles the robot models, the coordinate maps, the terminal-cost
machinery, an embedded SQP/active-set solver, a closed-loop simulator,
and a CLI for running and sweeping scenarios.
"""

from .errors import ConfigError, InfeasibleError, NumericalError
from .model import (ExtendedState, RobotParams, RobotState, UnicycleInput,
                    WheelSpeeds, extended_derivative, nonholonomic_residual,
                    rk4_step, unicycle_derivative, unicycle_to_wheel,
                    wheel_to_unicycle)
from .dfl import (DflGuard, LinearState, VirtualInput, decoupling_matrix,
                  dfl_control, input_map_v_from_U, map_x_to_z, map_z_to_x,
                  verify_relative_degree)
from .lti import (LtiModel, TerminalData, discretize_double_integrator,
                  dlqr_gain, riccati_solution, spectral_radius, terminal_data,
                  terminal_weight)
from .safety import (CbfParams, Obstacle, barrier, cbf_residual,
                     sample_terminal_box, terminal_safety_check)
from .mpc import (LinearMpc, MpcConfig, NonlinearMpc, QcqpProblem,
                  SolveResult, build_qcqp, estimate_flops_ip,
                  estimate_flops_sqp, solve_sqp)
from .qp import QpResult, solve_qp
from .sim import (NoiseConfig, Scenario, TrajectoryLog, cost_sequence,
                  first_deviation_step, inject_noise, min_obstacle_distance,
                  run_closed_loop)

__version__ = "0.1.0"
