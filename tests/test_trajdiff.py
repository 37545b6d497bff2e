import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajdiff.py"
spec = importlib.util.spec_from_file_location("trajdiff", TOOL)
trajdiff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajdiff)

NAMES = ["t", "x1", "x2", "v1", "v2", "distances", "sqp_iterations"]


def _run(rows, calls, aborted=False):
    return {"steps": rows, "calls": calls, "aborted": aborted,
            "final_state": [0.0, 0.0, 0.0, 0.0]}


def test_diff_run_reports_deviations_and_count_changes():
    a = _run([[0.0, 1.0, 2.0, 0.1, 0.2, [0.5, 0.7], 3],
              [0.05, 1.1, 2.1, 0.1, 0.2, [0.4, 0.6], 1]],
             [["optimal", 3, 9], ["optimal", 1, 2]])
    b = _run([[0.0, 1.0, 2.0 + 1e-7, 0.1, 0.2, [0.5, 0.7], 1],
              [0.05, 1.1, 2.1, 0.1 + 3e-6, 0.2, [0.4, 0.6 + 1e-3], 2]],
             [["optimal", 1, 0], ["max_iter", 2, 5]])
    d = trajdiff.diff_run(a, b, NAMES)
    assert d["max_dev"] == pytest.approx(1e-3)
    assert d["at"] == "step 1 distances[1]"
    assert d["groups"]["position"] == pytest.approx(1e-7)
    assert d["groups"]["v"] == pytest.approx(3e-6)
    assert d["min_dist"] == (0.4, 0.4)
    assert d["sqp_more"] == 1 and d["sqp_fewer"] == 1
    assert d["status_changed"] == 1
    assert d["sqp"] == (4, 3) and d["qp"] == (11, 5)
    assert d["qp_max"] == (9, 5)
    assert d["sqp_changed"] == [(0, -2), (1, 1)]
    same = trajdiff.diff_run(a, a, NAMES)
    assert same["max_dev"] == 0.0 and same["at"] is None
    assert same["sqp_changed"] == []


def test_diff_prints_the_worst_step_and_the_changed_steps(tmp_path, capsys):
    a = _run([[0.0, 1.0, 2.0, 0.1, 0.2, [0.5], 3]], [["optimal", 3, 9]])
    b = _run([[0.0, 1.0, 2.0, 0.1, 0.2, [0.5], 2]], [["optimal", 2, 4]])
    paths = []
    for name, run in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps({"fields": NAMES, "runs": {"r": run}}))
        paths.append(str(path))
    trajdiff.diff(*paths)
    out = capsys.readouterr().out
    assert "QP iterations 9 / 4, worst step 9 / 4" in out
    assert "SQP count changed at step (delta): 0 (-1)" in out


def test_diff_lists_the_runs_that_only_one_dump_has(tmp_path, capsys):
    run = _run([[0.0, 1.0, 2.0, 0.1, 0.2, [0.5], 1]], [["optimal", 1, 0]])
    paths = []
    for name, runs in (("a.json", {"shared": run, "old": run}),
                       ("b.json", {"shared": run, "new": run})):
        path = tmp_path / name
        path.write_text(json.dumps({"fields": NAMES, "runs": runs}))
        paths.append(str(path))
    trajdiff.diff(*paths)
    lines = capsys.readouterr().out.splitlines()
    assert f"old: missing from {paths[1]}" in lines
    assert f"new: missing from {paths[0]}" in lines
    assert sum(line.startswith("shared: max dev") for line in lines) == 1


def _write(tmp_path, name, runs):
    path = tmp_path / name
    path.write_text(json.dumps({"fields": NAMES, "runs": runs}))
    return str(path)


def test_diff_exits_one_on_any_difference_and_zero_when_identical(tmp_path):
    run = _run([[0.0, 1.0, 2.0, 0.1, 0.2, [0.5], 1]], [["optimal", 1, 0]])
    changes = {
        "step field": lambda r: r["steps"][0].__setitem__(2, 2.0 + 2**-51),
        "list entry": lambda r: r["steps"][0][5].__setitem__(0, 0.4),
        "sqp count": lambda r: r["steps"][0].__setitem__(6, 2),
        "final state": lambda r: r["final_state"].__setitem__(3, -0.0),
        "status": lambda r: r["calls"][0].__setitem__(0, "max_iter"),
        "qp count": lambda r: r["calls"][0].__setitem__(2, 1),
        "steps": lambda r: r["steps"].append(list(r["steps"][0])),
        "aborted": lambda r: r.__setitem__("aborted", True),
    }
    a = _write(tmp_path, "a.json", {"r": run})
    assert trajdiff.main(["diff", a, a]) is None
    nan = json.loads(json.dumps(run))
    nan["steps"][0][3] = float("nan")
    b = _write(tmp_path, "nan.json", {"r": nan})
    assert trajdiff.main(["diff", b, b]) is None  # NaN matches NaN
    for label, change in changes.items():
        other = json.loads(json.dumps(run))
        change(other)
        b = _write(tmp_path, "b.json", {"r": other})
        with pytest.raises(SystemExit) as exc:
            trajdiff.main(["diff", a, b])
        assert exc.value.code == 1, label
    b = _write(tmp_path, "b.json", {"r": run, "extra": run})
    for pair in ((a, b), (b, a)):
        with pytest.raises(SystemExit) as exc:
            trajdiff.main(["diff", *pair])
        assert exc.value.code == 1
