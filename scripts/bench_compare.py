#!/usr/bin/env python3
"""Alternated parent/change runs of the repository benchmark, summarized
into one BENCH_<topic>.json.

Run from the root of the change's checkout, with the parent commit checked
out in another directory:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench_compare.py --parent ../parent --seed 7 --pairs 10 \\
        --workload large-n --workload kernel-bound --out BENCH_topic.json

For each workload it runs `perfbench/run.py --trace 0` in both checkouts,
--pairs times each, alternating which side goes first, with the run length
that BENCHMARK.json fixes. Then it runs `--trace 1` once per side. The JSON
holds, per workload and end-to-end metric, each side's runs, median and
quartiles, how many pairs the change won (ties count for neither side),
whether the difference is a gain or a regression by the benchmark's rules,
and whether it is unresolved: the parent's interquartile range exceeds the
bound and not every change run reads better than every parent run;
the per-layer medians of the traced runs; every run's failure count and
failing checks; and each side's host line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent commit checkout")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--workload", required=True, action="append", dest="workloads")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    # the quartiles of each side's runs need at least two of them
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"no perfbench/run.py under {args.parent}")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result line, host line and failing checks."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failing": [ln.strip() for ln in lines if ln.strip().startswith("failing:")],
        "reference": next((ln.strip() for ln in lines if "reference:" in ln), None),
        "host": next((ln for ln in lines if ln.startswith("host: ")), None),
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> dict:
    """Both sides' spreads, the change's wins, and the benchmark's verdicts."""
    p, c = spread(parent), spread(change)
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (a - b) < 0)
    gain_by = sign * (p["median"] - c["median"])
    # when the parent's own runs spread wider than the bound, a median within
    # it shows nothing, unless every change run reads better than every parent run
    beats_every_run = max(sign * v for v in change) < min(sign * v for v in parent)
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "change_losses": losses,
        "median_ratio": c["median"] / p["median"] if p["median"] else None,
        "gain": wins >= 0.9 * len(parent) and gain_by > p["q3"] - p["q1"],
        "regression": -gain_by > bound * abs(p["median"]),
        "unresolved": p["q3"] - p["q1"] > bound * abs(p["median"]) and not beats_every_run,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {"seed": args.seed, "pairs": args.pairs, "run_seconds": seconds,
              "host": {}, "workloads": {}}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                run = run_once(sides[side], workload, args.seed, seconds, 0)
                record["host"][side] = run.pop("host")
                runs[side].append(run)
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"screen_ms_p50 {run['metrics']['screen_ms_p50']:.2f}", flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = {s: [r["metrics"][m["name"]] for r in runs[s]] for s in runs}
            metrics[m["name"]] = {"unit": m["unit"], **compare(
                values["parent"], values["change"], m["better"] == "lower", m["bound"]
            )}
        traced = {s: run_once(sides[s], workload, args.seed, seconds, 1) for s in sides}
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "runs": {s: [{k: v for k, v in r.items() if k != "metrics"} for r in runs[s]]
                     for s in runs},
            "trace": {s: {k: v for k, v in traced[s].items() if k != "host"} for s in sides},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
