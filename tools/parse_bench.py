#!/usr/bin/env python3
"""Parse bench_output.txt into per-harness CSV files for plotting.

Usage:
    tools/parse_bench.py bench_output.txt out_dir/
    tools/parse_bench.py --kernel-json google_benchmark.json out.json

Emits one CSV per recognized table in the harness output (figure 5/6 style
series tables, the Figure 8 matrix, and the Table II query tables), named
after the harness and section, e.g.:

    out_dir/fig5_vbp_sum.csv
    out_dir/fig8_mt_simd.csv
    out_dir/table2_hbp.csv

The parser is intentionally forgiving: it keys on the harness banner lines
("== build/bench/bench_... ==") and on bracketed section headers, and turns
whitespace-separated numeric rows into CSV. Anything it does not recognize
is ignored, so harness prose can evolve freely.

The --kernel-json mode instead reads google-benchmark JSON output from
bench_kernels (run with --benchmark_format=json) and distills the
kernel-tier series into a compact record: one row per (benchmark, tier,
args) with items/second, plus per-benchmark speedups of each tier over the
scalar tier. This is the file committed as BENCH_kernels.json to track the
kernel perf trajectory across PRs.

With --compare BASELINE (only in --kernel-json mode), the fresh record is
additionally diffed against a previously committed record (e.g.
BENCH_kernels.json): rows are matched by (benchmark, tier, args) and the
run exits non-zero when any row's items/second fell below
(1 - --slowdown-threshold) of the baseline. The threshold defaults to 0.5
— shared CI runners are noisy, so only a halving is treated as a real
regression; the per-row ratios are always printed for eyeballing.
"""

import argparse
import csv
import json
import os
import re
import sys
from typing import Any

# Tier -1 is a benchmark's reference row: the pre-registry code a slot
# replaced (BM_VbpPackTier's per-bit packer), recorded as the baseline.
TIER_NAMES = {-1: "reference", 0: "scalar", 1: "sse", 2: "avx2",
              3: "avx512"}

# Nanoseconds per google-benchmark time_unit. A benchmark reports
# cpu_time in its own unit (->Unit(benchmark::kMillisecond) and so on);
# every row is converted to ns, and an unknown unit is an error rather
# than a silently mislabelled number.
NS_PER_TIME_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_kernel_bench_name(
    name: str,
) -> tuple[str, int | None, dict[str, int]]:
    """Splits 'BM_VbpSum/tier:2/k:10' into ('BM_VbpSum', 2, {'k': 10})."""
    parts = name.split("/")
    tier: int | None = None
    args: dict[str, int] = {}
    for part in parts[1:]:
        if ":" in part:
            key, _, raw = part.partition(":")
            try:
                value = int(raw)
            except ValueError:
                continue
            if key == "tier":
                tier = value
            else:
                args[key] = value
    return parts[0], tier, args


def kernel_json_main(source: str, out_path: str) -> int:
    try:
        with open(source) as f:
            data = json.load(f)
    except OSError as e:
        print(f"parse_bench: cannot read {source}: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"parse_bench: {source} is not valid JSON: {e}",
              file=sys.stderr)
        return 1

    rows: list[dict[str, Any]] = []
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        base, tier, args = parse_kernel_bench_name(bench.get("name", ""))
        if tier is None:
            continue  # not a tier-parameterized benchmark
        row: dict[str, Any] = {
            "benchmark": base,
            "tier": TIER_NAMES.get(tier, str(tier)),
            "args": args,
        }
        if "error_occurred" in bench:
            row["skipped"] = bench.get("error_message", "skipped")
        else:
            unit = bench.get("time_unit", "ns")
            if unit not in NS_PER_TIME_UNIT:
                print(f"parse_bench: {source}: benchmark "
                      f"{bench.get('name')!r} has unknown time_unit "
                      f"{unit!r} (want one of "
                      f"{', '.join(NS_PER_TIME_UNIT)})", file=sys.stderr)
                return 1
            row["items_per_second"] = bench.get("items_per_second")
            cpu_time = bench.get("cpu_time")
            row["cpu_time_ns"] = (
                cpu_time * NS_PER_TIME_UNIT[unit]
                if isinstance(cpu_time, (int, float)) else None)
        rows.append(row)

    # Speedup of each tier over scalar, per (benchmark, non-tier args).
    speedups: dict[str, dict[str, float]] = {}
    by_key: dict[str, dict[str, float]] = {}
    for row in rows:
        if "items_per_second" not in row:
            continue
        key = row["benchmark"] + "".join(
            f"/{k}:{v}" for k, v in sorted(row["args"].items()))
        by_key.setdefault(key, {})[row["tier"]] = row["items_per_second"]
    for key, tiers in sorted(by_key.items()):
        scalar = tiers.get("scalar")
        if not scalar:
            continue
        speedups[key] = {
            f"{tier}_vs_scalar": round(rate / scalar, 3)
            for tier, rate in tiers.items() if tier != "scalar"
        }

    out = {
        "source": os.path.basename(source),
        # Which clock produced the numbers: google-benchmark cpu_time,
        # converted from each row's time_unit to ns. The harness-text
        # tables instead carry cycles/tuple from obs::StageTimer (rdtsc)
        # — see docs/observability.md.
        "clock": "google-benchmark cpu_time (converted to ns)",
        "context": {
            k: data.get("context", {}).get(k)
            for k in ("host_name", "num_cpus", "mhz_per_cpu", "date")
        },
        "benchmarks": rows,
        "speedups": speedups,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=False)
        f.write("\n")
    print(out_path)
    return 0


def row_key(row: dict[str, Any]) -> str:
    """Stable identity of one series: benchmark/tier plus sorted args."""
    args = "".join(
        f"/{k}:{v}" for k, v in sorted(row.get("args", {}).items()))
    return f"{row['benchmark']}/{row['tier']}{args}"


def compare_records(current_path: str, baseline_path: str,
                    slowdown_threshold: float) -> int:
    """Exit 1 when any matched row slowed past the threshold."""
    try:
        with open(current_path) as f:
            current = json.load(f)
        with open(baseline_path) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"parse_bench: cannot read comparison input: {e}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"parse_bench: comparison input is not valid JSON: {e}",
              file=sys.stderr)
        return 1

    def rates(record: dict[str, Any]) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in record.get("benchmarks", []):
            rate = row.get("items_per_second")
            if isinstance(rate, (int, float)) and rate > 0:
                out[row_key(row)] = float(rate)
        return out

    current_rates = rates(current)
    baseline_rates = rates(baseline)
    matched = sorted(set(current_rates) & set(baseline_rates))
    if not matched:
        print("parse_bench: no comparable rows between current and "
              "baseline", file=sys.stderr)
        return 1

    floor = 1.0 - slowdown_threshold
    regressions: list[str] = []
    for key in matched:
        ratio = current_rates[key] / baseline_rates[key]
        marker = "REGRESSED" if ratio < floor else "ok"
        print(f"  {key}: {ratio:.2f}x baseline [{marker}]")
        if ratio < floor:
            regressions.append(key)
    only = (set(current_rates) | set(baseline_rates)) - set(matched)
    if only:
        print(f"parse_bench: {len(only)} row(s) present on only one side "
              "(skipped)")
    if regressions:
        print(f"parse_bench: {len(regressions)} row(s) regressed past "
              f"{floor:.0%} of baseline: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    print(f"parse_bench: {len(matched)} row(s) within budget "
          f"(floor {floor:.0%} of baseline)")
    return 0


def slugify(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def is_number(token: str) -> bool:
    token = token.rstrip("x%")
    try:
        float(token)
        return True
    except ValueError:
        return False


# Exit codes: 0 success, 1 runtime error (unreadable/invalid input),
# 2 usage error (argparse's default for bad arguments).
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parse_bench.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--kernel-json", action="store_true",
        help="treat SOURCE as google-benchmark JSON from bench_kernels and "
             "write the distilled kernel-tier record to OUT")
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="after distilling (--kernel-json only), diff against this "
             "previously committed record and exit non-zero on regression")
    parser.add_argument(
        "--slowdown-threshold", type=float, default=0.5,
        help="fraction of baseline throughput a row may lose before "
             "--compare fails (default 0.5)")
    parser.add_argument(
        "source", metavar="SOURCE",
        help="bench_output.txt (default mode) or google-benchmark JSON "
             "(--kernel-json)")
    parser.add_argument(
        "out", metavar="OUT",
        help="output directory for CSVs (default mode) or output JSON path "
             "(--kernel-json)")
    args = parser.parse_args(argv)

    if args.compare and not args.kernel_json:
        parser.error("--compare requires --kernel-json")
    if not 0.0 < args.slowdown_threshold < 1.0:
        parser.error("--slowdown-threshold must be in (0, 1)")
    if args.kernel_json:
        status = kernel_json_main(args.source, args.out)
        if status != 0 or not args.compare:
            return status
        return compare_records(args.out, args.compare,
                               args.slowdown_threshold)
    source, out_dir = args.source, args.out
    if not os.path.isfile(source):
        print(f"parse_bench: cannot read {source}: no such file",
              file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)

    harness: str | None = None
    section: str | None = None
    rows: list[list[str]] = []
    header: list[str] | None = None
    written: list[str] = []

    def flush() -> None:
        nonlocal rows, header
        if harness and rows:
            name = slugify(harness.replace("bench_", ""))
            if section:
                name += "_" + slugify(section)
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w", newline="") as f:
                writer = csv.writer(f)
                if header:
                    writer.writerow(header)
                writer.writerows(rows)
            written.append(path)
        rows = []
        header = None

    with open(source) as f:
        for line in f:
            line = line.rstrip()
            banner = re.match(r"== .*/(bench_\w+) ==", line)
            if banner:
                flush()
                harness = banner.group(1)
                section = None
                continue
            bracket = re.match(r"\[(.+)\]", line)
            if bracket:
                flush()
                section = bracket.group(1)
                continue
            tokens = line.split()
            if not tokens:
                continue
            numeric = sum(is_number(t) for t in tokens)
            if numeric >= max(2, len(tokens) - 2) and is_number(tokens[-1]):
                rows.append([t.rstrip("x%") if is_number(t) else t
                             for t in tokens])
            elif rows == [] and len(tokens) >= 3 and numeric == 0:
                header = tokens  # likely the column header line
    flush()

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
