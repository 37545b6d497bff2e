import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

METRICS = [("solve_ms.p99", "lower"), ("steps_per_s", "higher")]


def _line(p99, rate, correct=True):
    """A result line as perfbench/run.py prints it last."""
    return json.dumps({"correct": correct, "attempted": 1000, "failed": 0,
                       "metrics": {"solve_ms.p99": {"value": p99, "unit": "ms"},
                                   "steps_per_s": {"value": rate, "unit": "1/s"}}})


def test_summary_gives_medians_change_and_pairs_won():
    first = [_line(p, r) for p, r in ((0.8, 100.0), (0.9, 110.0),
                                      (0.7, 120.0), (1.0, 90.0))]
    second = [_line(p, r) for p, r in ((0.6, 105.0), (0.95, 100.0),
                                       (0.6, 130.0), (0.7, 90.0))]
    rows, correct = benchpairs.summarize(first, second, METRICS)
    assert correct
    (name, m1, m2, change, won, n, spread), rate = rows
    assert name == "solve_ms.p99" and n == 4
    assert (m1, m2) == pytest.approx((0.85, 0.65))
    assert change == pytest.approx(-0.2 / 0.85)
    # Lower wins for the p99; the second pair is a loss.
    assert won == 3
    # Inclusive quartiles of 0.7, 0.8, 0.9, 1.0: 0.775 and 0.925.
    assert spread == pytest.approx(0.15)
    # Higher wins for the rate; the tie in the last pair is no win.
    assert rate[0] == "steps_per_s"
    assert rate[1:3] == pytest.approx((105.0, 102.5)) and rate[4] == 2


def test_summary_flags_an_incorrect_or_missing_run():
    good, bad = _line(0.8, 100.0), _line(0.7, 110.0, correct=False)
    rows, correct = benchpairs.summarize([good, good], [bad, good], METRICS)
    assert not correct and rows[0][5] == 2
    # A run without a result line is incorrect and leaves its pair out.
    rows, correct = benchpairs.summarize([good, None], [good, good], METRICS)
    assert not correct and rows[0][5] == 1 and rows[0][6] == 0.0
