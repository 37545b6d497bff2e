"""Span recording around the public functions the closed loop calls.

The benchmark owns every wrapper here; nothing under ``src/`` changes.
A wrapper replaces one module or class attribute for the duration of a
``with`` block and puts the original back on exit, even on error.

Two recorders exist:

* ``StepRecorder`` wraps only the controllers' ``solve`` methods. It keeps
  the solver status, the SQP iteration count and the entry time of every
  control step, which the untimed parts of the report need (status is not
  part of ``StepRecord``). This is the only wrapper in the timed pass.
* ``Tracer`` wraps every layer boundary listed in ``LAYER_TARGETS``. Each
  call becomes a span (name, start, end, parent span, episode, step) kept
  in per-thread arrays; per-name call counts, inclusive and self time are
  accumulated as spans close. Self time is the span's duration minus the
  time covered by its child spans.
"""

import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module or class path inside scmpc, attribute). Module-level
# names are patched in the module that calls them, because the package
# imports them by name (``from .qp import solve_qp``).
LAYER_TARGETS = (
    ("sim.run_closed_loop", "sim", "run_closed_loop"),
    ("cli.run_closed_loop", "cli", "run_closed_loop"),
    ("cli.write_trajectory_csv", "cli", "write_trajectory_csv"),
    ("mpc.controller_init", "mpc.LinearMpc", "__init__"),
    ("mpc.controller_init", "mpc.NonlinearMpc", "__init__"),
    ("lti.terminal_data", "mpc", "terminal_data"),
    ("mpc.linear_solve", "mpc.LinearMpc", "solve"),
    ("mpc.nmpc_solve", "mpc.NonlinearMpc", "solve"),
    ("mpc.build_qcqp", "mpc", "build_qcqp"),
    ("mpc.solve_sqp", "mpc", "solve_sqp"),
    ("qp.solve_qp", "mpc", "solve_qp"),
    ("mpc.barrier_row.value", "mpc.QuadraticRow", "value"),
    ("mpc.barrier_row.gradient", "mpc.QuadraticRow", "gradient"),
    ("dfl.map_x_array_to_z", "sim", "map_x_array_to_z"),
    ("dfl.closed_loop_rhs", "sim", "closed_loop_rhs"),
    ("model.rk4_step", "sim", "rk4_step"),
    ("safety.barrier_xy", "sim", "barrier_xy"),
)

CONTROLLER_SOLVES = (("mpc.LinearMpc", "solve"), ("mpc.NonlinearMpc", "solve"))


def resolve(pkg, path):
    """The module or class object named by a dotted path inside ``pkg``."""
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(pkg, targets, make_wrapper):
    """Replace each (name, path, attr) target by ``make_wrapper(name, fn)``.

    Restores every original on exit and raises if any attribute does not
    read back as the original object afterwards.
    """
    saved = []
    try:
        for name, path, attr in targets:
            owner = resolve(pkg, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")


class StepRecorder:
    """Per-controller log of (entry time, status, SQP iterations)."""

    def __init__(self):
        self.by_controller = {}

    def wrapper(self, _name, solve):
        log = self.by_controller

        def recorded_solve(controller, *args, **kwargs):
            t = time.perf_counter()
            res = solve(controller, *args, **kwargs)
            log.setdefault(controller, []).append(
                (t, res.status, res.sqp_iterations))
            return res

        return recorded_solve

    def install(self, pkg):
        return patched(pkg, [(None, p, a) for p, a in CONTROLLER_SOLVES],
                       self.wrapper)


class _ThreadBuffer:
    """Spans and counters of one thread, so the hot path needs no lock."""

    def __init__(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.episode = array("i")
        self.step = array("i")
        self.stack = []  # frames: [span index, name, t0, child s, child QP calls]
        self.episode_id = -1
        self.step_id = -1
        self.agg = {}  # name -> [calls, inclusive s, self s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.qp_iters = []
        self.steps = []  # (controller kind, status, sqp iterations)
        self.cli_runs = []  # (wall s, thread cpu s) per cli run


COUNTERS = ("qp.rows", "qp.active", "qp.phase1", "qp.infeasible",
            "qp.under_sqp", "sqp.iters_in_solve_sqp", "nmpc.relaxations")


class Tracer:
    """Records spans at layer boundaries and the counts the report needs."""

    def __init__(self):
        self._name_ids = {}
        self._buffers = []
        self._episodes = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name):
        with self._lock:
            return self._name_ids.setdefault(name, len(self._name_ids))

    def _open(self, buf, name):
        if name in ("sim.run_closed_loop", "cli.run_closed_loop"):
            with self._lock:
                buf.episode_id = self._episodes
                self._episodes += 1
            buf.step_id = -1
        elif name in ("mpc.linear_solve", "mpc.nmpc_solve"):
            buf.step_id += 1
        idx = len(buf.start)
        buf.name_id.append(self._name_id(name))
        buf.parent.append(buf.stack[-1][0] if buf.stack else -1)
        buf.episode.append(buf.episode_id)
        buf.step.append(buf.step_id)
        buf.end.append(0.0)
        frame = [idx, name, 0.0, 0.0, 0]
        buf.stack.append(frame)
        frame[2] = time.perf_counter()
        buf.start.append(frame[2])
        return frame

    def _close(self, buf, frame):
        t1 = time.perf_counter()
        buf.stack.pop()
        idx, name, t0, child, _ = frame
        dur = t1 - t0
        buf.end[idx] = t1
        if buf.stack:
            buf.stack[-1][3] += dur
        agg = buf.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child

    def wrapper(self, name, fn):
        special = {
            "qp.solve_qp": self._wrap_qp,
            "mpc.solve_sqp": self._wrap_sqp,
            "mpc.linear_solve": self._wrap_controller,
            "mpc.nmpc_solve": self._wrap_controller,
            "cli.run_closed_loop": self._wrap_cli_run,
        }.get(name)
        if special:
            return special(name, fn)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            frame = tracer._open(buf, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(buf, frame)

        return traced

    def _wrap_qp(self, name, fn):
        tracer = self

        def solve_qp(hessian, gradient, rows=None, rhs=None, x0=None,
                     tol=1e-8, **kwargs):
            buf = tracer._buffer()
            counts = buf.counts
            parent = buf.stack[-1] if buf.stack else None
            m = 0 if rows is None else len(rows)
            if m:
                # The same feasibility test solve_qp applies to its start.
                x = np.zeros(np.shape(gradient)[0]) if x0 is None else x0
                worst = float(np.max(np.asarray(rows) @ x - rhs, initial=0.0))
                counts["qp.phase1"] += worst > tol
            frame = tracer._open(buf, name)
            try:
                res = fn(hessian, gradient, rows, rhs, x0=x0, tol=tol, **kwargs)
            finally:
                tracer._close(buf, frame)
            buf.qp_iters.append(res.iterations)
            counts["qp.rows"] += m
            counts["qp.active"] += len(res.active_set)
            counts["qp.infeasible"] += res.status == "infeasible"
            if parent is not None:
                parent[4] += 1
                counts["qp.under_sqp"] += parent[1] == "mpc.solve_sqp"
            return res

        return solve_qp

    def _wrap_sqp(self, name, fn):
        tracer = self

        def solve_sqp(*args, **kwargs):
            buf = tracer._buffer()
            frame = tracer._open(buf, name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(buf, frame)
            buf.counts["sqp.iters_in_solve_sqp"] += res.sqp_iterations
            return res

        return solve_sqp

    def _wrap_controller(self, name, fn):
        tracer = self
        kind = "nmpc" if name == "mpc.nmpc_solve" else "linear"

        def solve(controller, *args, **kwargs):
            buf = tracer._buffer()
            frame = tracer._open(buf, name)
            try:
                res = fn(controller, *args, **kwargs)
            finally:
                tracer._close(buf, frame)
            buf.steps.append((kind, res.status, res.sqp_iterations))
            # The nonlinear baseline solves one QP per SQP iteration, so a
            # surplus of QP calls means its gamma-relaxed retry ran.
            if kind == "nmpc" and frame[4] > res.sqp_iterations:
                buf.counts["nmpc.relaxations"] += 1
            return res

        return solve

    def _wrap_cli_run(self, name, fn):
        tracer = self

        def run_closed_loop(*args, **kwargs):
            buf = tracer._buffer()
            c0 = time.thread_time()
            frame = tracer._open(buf, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(buf, frame)
                buf.cli_runs.append((buf.end[frame[0]] - frame[2],
                                     time.thread_time() - c0))

        return run_closed_loop

    def install(self, pkg):
        return patched(pkg, LAYER_TARGETS, self.wrapper)

    # Merged views over all threads; read them after the traced code ends.

    def stat(self, name, field):
        """calls, s (inclusive) or self_s of one span name; 0 if never called."""
        col = ("calls", "s", "self_s").index(field)
        return sum(b.agg[name][col] for b in self._buffers if name in b.agg)

    def names_seen(self):
        return sorted({n for b in self._buffers for n in b.agg})

    def count(self, key):
        return sum(b.counts[key] for b in self._buffers)

    def qp_iters(self):
        return [i for b in self._buffers for i in b.qp_iters]

    def steps(self):
        return [s for b in self._buffers for s in b.steps]

    def cli_runs(self):
        return [r for b in self._buffers for r in b.cli_runs]

    def span_count(self):
        return sum(len(b.start) for b in self._buffers)

    def save(self, path):
        """Write every span as flat arrays (one row per span) to an .npz."""
        cols = {k: [] for k in ("thread", "name_id", "start", "end", "parent",
                                "episode", "step")}
        for t, buf in enumerate(self._buffers):
            cols["thread"].append(np.full(len(buf.start), t, dtype=np.int32))
            for key in ("name_id", "start", "end", "parent", "episode", "step"):
                col = getattr(buf, key)
                cols[key].append(np.frombuffer(col, dtype=col.typecode))
        arrays = {k: np.concatenate(v) if v else np.empty(0)
                  for k, v in cols.items()}
        names = sorted(self._name_ids, key=self._name_ids.get)
        np.savez_compressed(path, names=np.array(names), **arrays)
