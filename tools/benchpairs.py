"""Run the benchmark on two checkouts in alternated pairs and compare them.

Pair i runs perfbench/run.py with --seed i and --trace 0 in each checkout
(from its own root, with its own perfbench and sources); the checkout that
goes first alternates from pair to pair, so a slow spell of the host falls
on both sides alike. Each run's last line of standard output is its JSON
result. For every end-to-end metric of the first checkout's
BENCHMARK.json the summary prints both medians, the relative change of the
median, how many pairs the second checkout won (by the metric's "better"
direction) and the first checkout's quartile spread Q3 - Q1:

    python tools/benchpairs.py OLD NEW --workload gamma-sweep --pairs 10 --seconds 60

The exit code is 1 if any run reported "correct": false or ended without
a result line, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """The result line of one benchmark run in checkout, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines and lines[-1].startswith("{") else None


def summarize(first, second, metrics):
    """Per metric (name, first median, second median, relative change,
    pairs the second won, pairs compared, first checkout's Q3 - Q1), and
    whether every run was correct.

    first and second hold the result lines of each pair's runs, in pair
    order (None for a run without one); metrics holds (name, better)
    pairs, better being "lower" or "higher".
    """
    results = [[None if line is None else json.loads(line) for line in side]
               for side in (first, second)]
    correct = all(r is not None and r["correct"] for side in results
                  for r in side)
    pairs = [(a, b) for a, b in zip(*results)
             if a is not None and b is not None]
    rows = []
    for name, better in metrics if pairs else ():
        old = [a["metrics"][name]["value"] for a, _ in pairs]
        new = [b["metrics"][name]["value"] for _, b in pairs]
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (y - x) < 0.0 for x, y in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        spread = 0.0
        if len(old) > 1:
            q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
            spread = q3 - q1
        rows.append((name, m_old, m_new, (m_new - m_old) / m_old, won,
                     len(pairs), spread))
    return rows, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.first / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    checkouts = (args.first, args.second)
    lines = ([], [])
    for seed in range(1, args.pairs + 1):
        for side in (0, 1) if seed % 2 else (1, 0):
            lines[side].append(run_once(checkouts[side], args.workload, seed,
                                        args.seconds))
        print(f"pair {seed} done", file=sys.stderr, flush=True)
    rows, correct = summarize(*lines, metrics)
    print(f"{'metric':<16} {'first':>11} {'second':>11} {'change':>8} "
          f"{'won':>6} {'first Q3-Q1':>12}")
    for name, m_old, m_new, change, won, n, spread in rows:
        print(f"{name:<16} {m_old:>11.5g} {m_new:>11.5g} {change:>+8.1%} "
              f"{won:>3}/{n:<2} {spread:>12.4g}")
    if not correct:
        print("a run reported correct: false or gave no result")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
