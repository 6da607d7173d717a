#!/usr/bin/env python3
"""A/B comparison of two commits on the end-to-end benchmark.

Usage (from the repository root):

    python3 bench/e2e/compare.py run --parent DIR_A --change DIR_B \\
        [--pairs 10] [--seed N] [--out FILE]
        Runs bench/e2e/run.py in both checkouts: --pairs pairs of every
        workload at its run_seconds, one fresh seed per pair (from --seed
        on), alternating which side runs first. Saves every
        run to FILE (default build-e2e/compare.json) and reports.

    python3 bench/e2e/compare.py report FILE
        Reports a saved comparison again.

    python3 bench/e2e/compare.py --self-test
        Checks the rule on synthetic runs.

The rule, per workload and end-to-end metric of BENCHMARK.json, checked
in this order:

  gain        the change wins at least 9 of every 10 pairs run (ties, and
              pairs where either side's run failed, count as no win), the
              medians differ by more than the parent's interquartile range,
              at least 10 pairs were run, and the change failed no more
              statements than the parent;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own interquartile range, as a share of its
              median, is wider than the bound, so "no worse" cannot be told
              apart from noise (unless every change run beats every parent
              run), or one side has no completed run;
  no-worse    otherwise.

The report prints one row per workload with every metric's verdict, then
each metric's medians and quartiles on both sides. Exit status 1 when any
metric regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from run import BUILD_DIR, BenchError, run_group

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# One side's run, including the first build in a fresh checkout.
SIDE_TIMEOUT_S = 1000

Runs = dict[str, list[dict[str, Any]]]  # workload -> list of pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    pairs: list[tuple[float | None, float | None]],
    better: str,
    bound: float,
    failures: tuple[int, int],
) -> tuple[str, str]:
    """Classifies one metric from its (parent, change) value of every pair
    run, None where that side's run failed; returns (verdict, detail)."""
    parent = [p for p, _ in pairs if p is not None]
    change = [c for _, c in pairs if c is not None]
    if not parent or not change:
        return "unresolved", "no completed run on one side"
    sign = 1.0 if better == "higher" else -1.0
    # A pair with a failed run is a pair run that the change did not win.
    wins = sum(1 for p, c in pairs
               if p is not None and c is not None and sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gap = sign * (cmed - pmed)
    share = gap / abs(pmed) if pmed else 0.0
    detail = (f"{share:+.1%} better, {wins}/{len(pairs)} wins; parent "
              f"{pmed:.4g} [{p1:.4g}, {p3:.4g}], change {cmed:.4g} "
              f"[{c1:.4g}, {c3:.4g}]")
    if (len(pairs) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(pairs))
            and gap > p3 - p1 and failures[1] <= failures[0]):
        return "gain", detail
    if -share > bound:
        return "regressed", detail
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if pmed and (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved", detail
    return "no-worse", detail


def value(side: dict[str, float] | None, name: str) -> float | None:
    return float(side[name]) if side else None


def report(runs: Runs, catalogue: list[dict[str, Any]]) -> int:
    regressed = False
    for workload, pairs in runs.items():
        complete = sum(1 for p in pairs if p["parent"] and p["change"])
        failures = (
            sum(int(p["parent_failed"]) for p in pairs),
            sum(int(p["change_failed"]) for p in pairs),
        )
        cells = []
        details = []
        for spec in catalogue:
            name = spec["name"]
            values = [(value(p["parent"], name), value(p["change"], name))
                      for p in pairs]
            v, detail = verdict(values, spec["better"],
                                float(spec["bound"]), failures)
            regressed = regressed or v == "regressed"
            cells.append(f"{name}={v}")
            details.append(f"    {name:16s} {v:10s} {detail}")
        print(f"{workload:20s} " + "  ".join(cells))
        print(f"    complete pairs={complete}/{len(pairs)} failed statements: "
              f"parent={failures[0]} change={failures[1]}")
        print("\n".join(details))
    return 1 if regressed else 0


def run_side(
    checkout: Path, workload: str, seed: int
) -> tuple[dict[str, float] | None, int]:
    """Returns the run's end-to-end metric values and failed count."""
    try:
        code, stdout = run_group(
            [sys.executable, str(checkout / "bench" / "e2e" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--trace", "0"],
            SIDE_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        result = json.loads(stdout.strip().splitlines()[-1])
    except (BenchError, IndexError, json.JSONDecodeError):
        return None, 1
    values = {k: float(v["value"]) for k, v in result["metrics"].items()}
    return (values if code == 0 else None), int(result["failed"])


def run_pairs(args: argparse.Namespace, bench: dict[str, Any]) -> Runs:
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: Runs = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            pair: dict[str, Any] = {"seed": seed, "first": order[0]}
            for side in order:
                values, failed = run_side(sides[side], workload, seed)
                pair[side] = values
                pair[f"{side}_failed"] = failed
            runs[workload].append(pair)
            print(f"pair {i + 1}/{args.pairs} {workload} seed={seed} "
                  f"first={order[0]}", file=sys.stderr)
    return runs


def self_test() -> int:
    rng = random.Random(7)
    catalogue = [
        {"name": "qps", "better": "higher", "bound": 0.1},
        {"name": "latency_ms", "better": "lower", "bound": 0.1},
    ]

    def pairs(qps_scale: float, lat_scale: float, noise: float,
              n: int = MIN_PAIRS) -> list[dict[str, Any]]:
        out = []
        for _ in range(n):
            def side(q: float, lat: float) -> dict[str, float]:
                return {"qps": q * (1 + rng.gauss(0, noise)),
                        "latency_ms": lat * (1 + rng.gauss(0, noise))}
            out.append({"parent": side(100, 5), "change":
                        side(100 * qps_scale, 5 * lat_scale),
                        "parent_failed": 0, "change_failed": 0})
        return out

    def verdicts(runs: list[dict[str, Any]],
                 failures: tuple[int, int] = (0, 0)) -> dict[str, str]:
        out = {}
        for spec in catalogue:
            values = [(value(p["parent"], spec["name"]),
                       value(p["change"], spec["name"])) for p in runs]
            out[spec["name"]] = verdict(values, spec["better"],
                                        spec["bound"], failures)[0]
        return out

    def parent_runs_failed(runs: list[dict[str, Any]],
                           k: int) -> list[dict[str, Any]]:
        for p in runs[:k]:
            p["parent"] = None
        return runs

    cases = [
        ("same commit", pairs(1.0, 1.0, 0.01), (0, 0),
         {"qps": "no-worse", "latency_ms": "no-worse"}),
        ("20% faster", pairs(1.2, 1 / 1.2, 0.01), (0, 0),
         {"qps": "gain", "latency_ms": "gain"}),
        ("30% slower", pairs(1 / 1.3, 1.3, 0.01), (0, 0),
         {"qps": "regressed", "latency_ms": "regressed"}),
        ("too noisy", pairs(0.95, 1.05, 0.3), (0, 0),
         {"qps": "unresolved", "latency_ms": "unresolved"}),
        ("60% slower, noisy", pairs(1 / 1.6, 1.6, 0.15), (0, 0),
         {"qps": "regressed", "latency_ms": "regressed"}),
        ("gain on too few pairs", pairs(1.2, 1.0, 0.01, n=5), (0, 0),
         {"qps": "no-worse", "latency_ms": "no-worse"}),
        # More failed statements on the change side forbid a gain.
        ("gain with more failures", pairs(1.2, 1.0, 0.01), (0, 3),
         {"qps": "no-worse", "latency_ms": "no-worse"}),
        # Wins count against every pair run: 10 wins in 12 pairs is no gain,
        # even though the change won all 10 complete pairs.
        ("gain, 2 of 12 parent runs failed",
         parent_runs_failed(pairs(1.2, 1 / 1.2, 0.01, n=12), 2), (0, 0),
         {"qps": "no-worse", "latency_ms": "no-worse"}),
        ("gain, 1 of 11 parent runs failed",
         parent_runs_failed(pairs(1.2, 1 / 1.2, 0.01, n=11), 1), (0, 0),
         {"qps": "gain", "latency_ms": "gain"}),
    ]
    failed = 0
    for name, runs, failures, want in cases:
        got = verdicts(runs, failures)
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--self-test", action="store_true")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run alternating pairs and report")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--out", type=Path, default=BUILD_DIR / "compare.json")
    rep = sub.add_parser("report", help="report a saved comparison")
    rep.add_argument("file", type=Path)
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.command is None:
        parser.error("give run, report or --self-test")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.command == "run":
        runs = run_pairs(args, bench)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=2) + "\n",
                            encoding="utf-8")
    else:
        runs = json.loads(args.file.read_text(encoding="utf-8"))
    return report(runs, bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
