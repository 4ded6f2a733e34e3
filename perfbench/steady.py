"""Steadiness report: run one workload k times and show how much each metric moves.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload miss --runs 5 --seed 100

Each run gets its own seed (``--seed``, ``--seed + 1``, ...).  For every
metric the report prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile
range as a share of the median, ``(max - min) / median``, and, when
``BENCHMARK.json`` gives the metric a bound, the spread's share of that
bound.  The bounds in ``BENCHMARK.json`` are set from this output.
``--json`` also writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict, float]:
    began = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    wall = time.monotonic() - began
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"run failed (seed {seed}, exit {completed.returncode}):\n"
            f"{completed.stdout[-3000:]}\n{completed.stderr[-3000:]}"
        )
    details = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), details, wall


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def report(values: dict[str, list[float]], units: dict[str, str]) -> list[dict]:
    limits = bounds()
    rows = []
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        row = {
            "metric": name, "unit": units[name], "median": mid, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / mid if mid else float("nan"),
            "range_share": (max(series) - min(series)) / mid if mid else float("nan"),
        }
        if name in limits:
            row["bound"] = limits[name]
            row["iqr_of_bound"] = row["iqr_share"] / limits[name]
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 for quartiles")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls, details = [], []
    for k in range(args.runs):
        result, detail, wall = run_once(args.workload, args.seed + k, args.seconds,
                                        args.trace)
        walls.append(wall)
        details.append(detail)
        if not result["correct"]:
            print(f"run {k} (seed {args.seed + k}) failed its checks", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"[run {k + 1}/{args.runs} seed {args.seed + k}: {wall:.1f} s]",
              file=sys.stderr)

    rows = report(values, units)
    print(f"workload {args.workload}: {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, run wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"{'metric':40s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'iqr/med':>8s} {'rng/med':>8s} {'iqr/bnd':>8s}")
    for row in rows:
        of_bound = f"{row['iqr_of_bound']:8.2f}" if "bound" in row else f"{'-':>8s}"
        print(f"{row['metric']:40s} {row['unit']:6s} {row['median']:11.4g} "
              f"{row['q1']:11.4g} {row['q3']:11.4g} {row['iqr_share']:8.3f} "
              f"{row['range_share']:8.3f} {of_bound}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "walls": walls,
             "values": values, "units": units, "report": rows,
             "details": details}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
