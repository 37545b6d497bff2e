"""The package attributes that perfbench's tracer replaces must exist.

perfbench/tracing.py patches each target by reading it from its owner's
own __dict__, so a method inherited from a base class or a renamed
function only fails there, inside the benchmark's timed pass. The file is
loaded read-only; nothing is patched.
"""

import importlib.util
from pathlib import Path

import scmpc
import scmpc.cli  # noqa: F401  (LAYER_TARGETS reaches into scmpc.cli)

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
