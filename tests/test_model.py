import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import closed_loop_rhs_array, rk4_step_array, unicycle_rhs_array
from scmpc import ConfigError, DflGuard
from scmpc.dfl import closed_loop_rhs
from scmpc.model import RobotParams, rk4_step, unicycle_rhs, unicycle_to_wheel

P = RobotParams(wheel_radius=0.1, axle_length=0.5)
# Wheel rates (omega_r, omega_l) to body velocity (u1, u2):
# [[r/2, r/2], [r/d, -r/d]] with r = 0.1, d = 0.5.
WHEEL_TO_BODY = np.array([[0.05, 0.05], [0.2, -0.2]])


def test_params_validation():
    with pytest.raises(ConfigError):
        RobotParams(wheel_radius=0.0)
    with pytest.raises(ConfigError):
        RobotParams(axle_length=-1.0)
    for kwargs in ({"wheel_radius": math.inf}, {"wheel_radius": "x"},
                   {"axle_length": True}):
        with pytest.raises(ConfigError):
            RobotParams(**kwargs)


def test_unicycle_to_wheel_examples():
    w = unicycle_to_wheel(0.1, 0.0, P)
    assert w == pytest.approx((1.0, 1.0), abs=1e-12)
    w = unicycle_to_wheel(0.0, 0.0, P)
    assert w == (0.0, 0.0)
    # closed-form 2x2 inverse
    inv = np.linalg.inv(WHEEL_TO_BODY)
    expect = inv @ np.array([0.1, 0.4])
    w = unicycle_to_wheel(0.1, 0.4, P)
    assert w == pytest.approx(tuple(expect), abs=1e-12)
    assert w == pytest.approx((2.0, 0.0), abs=1e-12)


def test_unicycle_derivative_examples():
    d = unicycle_rhs(np.array([0.0, 0.0, 0.0]), (1.0, 0.0))
    assert d == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    d = unicycle_rhs(np.array([0.0, 0.0, math.pi / 2]), (1.0, 0.0))
    assert d == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    d = unicycle_rhs(np.array([1.0, 1.0, math.pi / 4]), (math.sqrt(2.0), 0.3))
    assert d == pytest.approx([1.0, 1.0, 0.3], abs=1e-12)


def test_extended_coasting_conserves_speed():
    # With v = 0 the simulated plant neither accelerates nor turns, on
    # either side of the guard.
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=4).tolist()
        x_next = rk4_step(lambda s, v: closed_loop_rhs(s, v, GUARD), x,
                          (0.0, 0.0), 0.05)
        assert x_next[2:] == x[2:]


def test_rk4_zero_field_is_identity():
    x = np.array([1.0, -2.0, 0.5])
    out = rk4_step(lambda s, u: np.zeros(3), x, None, 0.1)
    assert np.array_equal(out, x)


def test_rk4_matches_exponential():
    out = rk4_step(lambda s, u: s, np.array([1.0]), None, 0.1)
    assert abs(out[0] - math.exp(0.1)) <= 1e-7


def test_rk4_rejects_nonpositive_step():
    with pytest.raises(ConfigError):
        rk4_step(lambda s, u: s, np.array([1.0]), None, 0.0)


def test_rk4_straight_line_is_exact():
    x = np.array([0.3, -0.7, 1.1])
    u = (1.7, 0.0)
    out = rk4_step(unicycle_rhs, x, u, 0.05)
    expect = x + np.array([1.7 * math.cos(1.1), 1.7 * math.sin(1.1), 0.0]) * 0.05
    np.testing.assert_allclose(out, expect, atol=1e-14)


def test_rk4_matches_arc_closed_form():
    # Constant turn rate: the pose follows a circular arc.
    x0 = np.array([0.2, -0.4, 0.6])
    u1, u2, ts = 1.3, 0.8, 0.05
    out = rk4_step(unicycle_rhs, x0, (u1, u2), ts)
    th = x0[2] + u2 * ts
    expect = np.array([
        x0[0] + (u1 / u2) * (math.sin(th) - math.sin(x0[2])),
        x0[1] - (u1 / u2) * (math.cos(th) - math.cos(x0[2])),
        th,
    ])
    np.testing.assert_allclose(out, expect, atol=1e-8)


GUARD = DflGuard(zeta_threshold=0.01)
POSE = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
                 st.floats(-10.0, 10.0))
V = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
TS = st.floats(1e-9, 0.1)


def _plant_steps(fn, fn_array, x, u, ts, substeps):
    """The float steps of the simulator and the array steps of the oracle,
    from the same start, as lists of floats after each substep."""
    h = ts / substeps
    xs, xa = [float(c) for c in x], np.array(x, dtype=float)
    for _ in range(substeps):
        xs = rk4_step(fn, xs, u, h)
        xa = rk4_step_array(fn_array, xa, u, h)
        assert type(xs) is list and all(type(c) is float for c in xs)
        yield xs, xa.tolist()


@settings(max_examples=400, deadline=None)
@given(pose=POSE,
       zeta=st.one_of(st.floats(-1.0, 5.0),
                      st.sampled_from([0.0, -0.0, GUARD.zeta_threshold,
                                       math.nextafter(GUARD.zeta_threshold, 1.0),
                                       math.nextafter(GUARD.zeta_threshold, 0.0),
                                       -GUARD.zeta_threshold])),
       v=V, ts=TS, substeps=st.integers(1, 3))
@example(pose=(1.0, -2.0, 0.3), zeta=GUARD.zeta_threshold, v=(50.0, -50.0),
         ts=0.1, substeps=1)
@example(pose=(0.0, 0.0, math.pi), zeta=0.0, v=(0.0, 0.0), ts=0.05,
         substeps=2)
@example(pose=(7.0, 7.0, -2.0), zeta=-0.4, v=(-3.0, 12.0), ts=1e-6,
         substeps=3)
def test_float_plant_step_equals_the_array_step(pose, zeta, v, ts, substeps):
    # The closed-loop plant of cbf and euclid mode: every entry after every
    # substep is the array form's, bit for bit.
    if zeta > GUARD.zeta_threshold:
        event("zeta above the guard")
    elif zeta == GUARD.zeta_threshold:
        event("zeta at the guard")
    else:
        event("zeta below the guard")
    fn = lambda s, vv: closed_loop_rhs(s, vv, GUARD)
    fn_array = lambda s, vv: closed_loop_rhs_array(s, vv, GUARD.zeta_threshold)
    for xs, xa in _plant_steps(fn, fn_array, (*pose, zeta), v, ts, substeps):
        assert len(xs) == 4
        for a, b in zip(xs, xa):
            assert a == b


@settings(max_examples=200, deadline=None)
@given(pose=POSE, u=V, ts=TS, substeps=st.integers(1, 3))
def test_float_unicycle_step_equals_the_array_step(pose, u, ts, substeps):
    # The plant of nmpc mode, driven by (u1, u2) directly.
    for xs, xa in _plant_steps(unicycle_rhs, unicycle_rhs_array, pose, u, ts,
                               substeps):
        assert len(xs) == 3
        for a, b in zip(xs, xa):
            assert a == b
