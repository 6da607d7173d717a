#!/usr/bin/env python3
"""End-to-end engine benchmark: builds icp_e2e and runs its workloads.

Usage (from the repository root):

    python3 bench/e2e/run.py
        Every workload in BENCHMARK.json, untraced then traced, seed 1,
        run_seconds each. Prints every metric with its unit and writes the
        combined record to build-e2e/record.json.

    python3 bench/e2e/run.py --smoke
        The same at 2^16 rows and 1 s per run (under 30 s once built).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. --trace 0 reports the end-to-end metrics,
        --trace 1 the per-layer metrics (and writes a Chrome trace, checked
        with tools/check_trace.py). The last line of stdout is
        {"correct", "attempted", "failed", "metrics"} as JSON.

Each run happens in its own icp_e2e process. Results are checked against
the workload's oracle inside icp_e2e; a wrong or failed statement makes
this script exit 1. So does a record whose qps x duration disagrees with
its latency sample count by more than 1% (the check that catches a metric
reported in the wrong unit). Build output goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / "build-e2e"
CHECK_TRACE = ROOT / "tools" / "check_trace.py"

# A run must finish well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# qps x duration may differ from the sample count by this share at most.
SAMPLE_CHECK_TOLERANCE = 0.01
SMOKE_ROWS = 1 << 16


class BenchError(Exception):
    pass


def load_benchmark() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return dict(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def run_group(cmd: list[str], timeout: float, stdout: Any = None,
              stderr: Any = None) -> tuple[int, str]:
    """Runs cmd in a process group of its own (stderr to ours by default).

    On a timeout the whole group (a build's compilers too) is killed and
    waited for before BenchError is raised. Returns the exit code and the
    captured stdout (empty unless stdout is subprocess.PIPE).
    """
    with subprocess.Popen(cmd, stdout=stdout, stderr=stderr or sys.stderr,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out or interrupted: {' '.join(cmd)}")
    return proc.returncode, out or ""


def run_logged(cmd: list[str], timeout: float) -> None:
    """Runs a build step with its output on stderr."""
    code, _ = run_group(cmd, timeout, stdout=sys.stderr)
    if code != 0:
        raise BenchError(f"failed ({code}): {' '.join(cmd)}")


def build() -> Path:
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_logged(
            [
                "cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                "-DCMAKE_BUILD_TYPE=Release",
            ],
            BUILD_TIMEOUT_S,
        )
    run_logged(
        [
            "cmake", "--build", str(BUILD_DIR), "--target", "icp_e2e",
            "-j", str(os.cpu_count() or 1),
        ],
        BUILD_TIMEOUT_S,
    )
    return BUILD_DIR / "icp_e2e"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_record(
    record: dict[str, Any], catalogue: list[dict[str, Any]], traced: bool
) -> list[str]:
    """Returns the problems that make a record unusable."""
    problems = []
    metrics = record.get("metrics", {})
    for spec in catalogue:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
        elif got.get("unit") != spec["unit"]:
            problems.append(
                f"metric {spec['name']} in {got.get('unit')!r}, "
                f"BENCHMARK.json says {spec['unit']!r}"
            )
    if not traced and "qps" in metrics:
        samples = int(record["samples"])
        implied = float(metrics["qps"]["value"]) * float(record["duration_s"])
        if samples == 0 or abs(implied - samples) > (
            SAMPLE_CHECK_TOLERANCE * samples
        ):
            problems.append(
                f"qps x duration = {implied:.1f} statements but {samples} "
                "latency samples were recorded"
            )
    return problems


def run_one(
    binary: Path,
    bench: dict[str, Any],
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
) -> dict[str, Any]:
    """Runs icp_e2e once and returns its validated record."""
    data_dir = BUILD_DIR / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--data-dir", str(data_dir),
    ]
    trace_path = BUILD_DIR / "traces" / f"{workload}-seed{seed}.json"
    if traced:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd += ["--rows", str(SMOKE_ROWS)]
    code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    try:
        record = dict(json.loads(stdout))
    except json.JSONDecodeError as e:
        raise BenchError(
            f"{workload}: icp_e2e exited {code} without a record"
        ) from e

    catalogue = bench["per_layer"] if traced else bench["end_to_end"]
    problems = check_record(record, catalogue, traced)
    if traced:
        check, _ = run_group(
            [
                sys.executable, str(CHECK_TRACE), str(trace_path),
                "--check-nesting", "--require", "query",
                "--require", "engine.filter",
            ],
            60, stdout=sys.stderr,
        )
        if check != 0:
            problems.append(f"trace {trace_path} failed check_trace.py")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    if problems:
        raise BenchError(f"{workload}: " + "; ".join(problems))
    record["git_sha"] = git_sha()
    record["exit_code"] = code

    out = BUILD_DIR / "records" / (
        f"{workload}-seed{seed}-trace{int(traced)}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def print_metrics(record: dict[str, Any]) -> None:
    workload = record["workload"]
    for name, m in record["metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{workload:20s} {name:32s} {m['value']:14.6g} "
              f"{m['unit']}{samples}")
    for name, t in record["self_time"].items():
        print(f"{workload:20s} self time {name:22s} {t['self_ms']:12.3f} ms "
              f"of {t['total_ms']:.3f} ms over {t['spans']} spans")
    if record["traced"]:
        print(f"{workload:20s} trace: 1 in {record['trace_sample_every']} "
              "statements of the traced phase sampled, "
              f"{record['trace_dropped_statements']} dropped by a full "
              "recorder")
    if not record["traced"]:
        n = int(record["samples"])
        above = n - math.ceil(0.99 * n)
        if above < 10:
            print(f"{workload:20s} note: only {above} latency samples above "
                  "p99 (fewer than 10)", file=sys.stderr)


def result_line(record: dict[str, Any],
                catalogue: list[dict[str, Any]]) -> str:
    metrics = {
        spec["name"]: {
            "value": record["metrics"][spec["name"]]["value"],
            "unit": spec["unit"],
        }
        for spec in catalogue
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default with no --workload: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="2^16 rows and 1 s per run")
    args = parser.parse_args(argv)
    # A terminate request unwinds through run_group, which kills and reaps
    # the running child's process group before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"BENCHMARK.json has {', '.join(names)}")
        seconds = args.seconds or (1.0 if args.smoke
                                   else float(bench["run_seconds"]))
        binary = build()
        workloads = [args.workload] if args.workload else names
        modes = [bool(args.trace)] if args.trace is not None else [False, True]
        start = time.monotonic()
        records = []
        for workload in workloads:
            for traced in modes:
                record = run_one(binary, bench, workload, args.seed, seconds,
                                 traced, args.smoke)
                print_metrics(record)
                records.append(record)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    failed = sum(int(r["failed"]) for r in records)
    if args.workload is not None and len(records) == 1:
        catalogue = bench["per_layer" if records[0]["traced"]
                          else "end_to_end"]
        print(result_line(records[0], catalogue))
    else:
        combined = BUILD_DIR / "record.json"
        combined.write_text(json.dumps(records, indent=2) + "\n",
                            encoding="utf-8")
        print(f"{len(records)} runs in {time.monotonic() - start:.1f} s, "
              f"{failed} failed statements; record: {combined}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
