"""The package attributes that perfbench's tracer replaces must exist and
be reached, and the controller API that perfbench's constructors rely on.

perfbench/tracing.py patches each target by reading it from its owner's
own __dict__, so a method inherited from a base class or a renamed
function only fails there, inside the benchmark's timed pass, and a call
that bypasses a target reads as zero calls. The file is loaded read-only;
only its own patched() replaces targets, for the length of one run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import scmpc
import scmpc.cli  # noqa: F401  (LAYER_TARGETS reaches into scmpc.cli)
from conftest import nominal_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_live_in_their_owners():
    tracing = _tracing()
    targets = [(path, attr) for _, path, attr in tracing.LAYER_TARGETS]
    targets += list(tracing.CONTROLLER_SOLVES)
    assert ("mpc.QuadraticRow", "value") in targets
    assert ("mpc.LinearMpc", "solve") in targets
    for path, attr in targets:
        owner = tracing.resolve(scmpc, path)
        assert attr in vars(owner), f"{path}.{attr} is not in its own __dict__"
        assert callable(vars(owner)[attr])


def test_every_traced_layer_of_the_linear_path_is_called():
    # A one-second nominal cbf run, whose first steps run the SQP, under
    # counting wrappers: each target on the linear path must be called, or
    # its per-layer counters would silently read 0. The cli layer and the
    # nmpc baseline are off this path.
    tracing = _tracing()
    targets = [(f"{path}.{attr}", path, attr)
               for _, path, attr in tracing.LAYER_TARGETS]
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    with tracing.patched(scmpc, targets, counting):
        log = scmpc.sim.run_closed_loop(nominal_scenario(duration=1.0))
    assert len(log.records) == 20
    linear_path = [name for name, path, _ in targets
                   if not path.startswith("cli") and "Nonlinear" not in path]
    assert "mpc.QuadraticRow.gradient" in linear_path
    assert [name for name in linear_path if not calls[name]] == []
    # The plant-side layers per step: one map to z, one RK4 step of four
    # right-hand sides, one barrier per obstacle, plus the start check.
    plant = {name: calls[name] for name in (
        "sim.map_x_array_to_z", "sim.rk4_step", "sim.closed_loop_rhs",
        "sim.barrier_xy")}
    assert plant == {"sim.map_x_array_to_z": 20, "sim.rk4_step": 20,
                     "sim.closed_loop_rhs": 80, "sim.barrier_xy": 21}


def test_linear_mpc_takes_the_mode_fourth_and_keeps_its_config():
    # perfbench passes the mode by position and keys the sweep's calls by
    # controller.cfg.gamma, so euclid's gamma = 1 copy must stay internal.
    cfg = scmpc.MpcConfig(gamma=0.3)
    for mode in ("cbf", "euclid"):
        assert scmpc.LinearMpc(cfg, (), (0.0, 0.0), mode).cfg is cfg
