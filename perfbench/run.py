"""End-to-end benchmark of the checking server (``mfcsl serve``).

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes started from ``worker.py``: the
checking server on a local socket and one closed-loop ``ServerClient``
driving it with seeded requests.  Set-up is repeated
:data:`SETUPS` times from process start and its median reported; the
last process then measures for ``--seconds`` and checks every answer.

Timings are reported at reference machine speed (see ``refspeed.py``),
with their raw wall-clock twins and the calibrator readings written to
``perfbench/runs/``.  With ``--trace 1`` the run reports per-layer
metrics instead of end-to-end ones.  Without ``--workload`` every
workload runs in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

#: Workload names, in the order a run of all of them uses.
WORKLOADS = ("serve-warm", "serve-cold", "serve-batch", "large-k")

#: Set-ups per run, each from a fresh process; the median is reported.
SETUPS = 5

#: Samples beyond the reported tail percentile, where a run has them.
TAIL_BEYOND = 10

#: A run, set-up included, must end within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "queries/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms", "_ms_per_item")):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def start_worker(args, workload: str, setup_only: bool):
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.self_test:
        command.append("--self-test")
    if args.trace:
        command += ["--spans", str(RUNS / f"{workload}-seed{args.seed}-spans.json")]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def read_tagged(proc, tag: str) -> dict:
    line = proc.stdout.readline()
    if not line.startswith(tag + " "):
        raise RuntimeError(f"worker did not report {tag} (got {line!r})")
    return json.loads(line[len(tag) + 1:])


def run_workload(args, workload: str, deadline: float) -> dict:
    """Set up :data:`SETUPS` times, measure once; the raw run record."""
    setups = []
    result = None
    for i in range(SETUPS):
        last = i == SETUPS - 1
        start = time.perf_counter()
        proc = start_worker(args, workload, setup_only=not last)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = read_tagged(proc, "READY")
            wall = time.perf_counter() - start
            cal = read_tagged(proc, "CAL")
            setups.append({"wall_s": wall, "cpu_s": ready["cpu_s"], "cal_ms": cal["cal_ms"]})
            output = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
            watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"{workload} worker exited with code {code}")
        if last:
            result = json.loads(output.strip().splitlines()[-1])
    result["setups"] = setups
    return result


def summarize(record: dict) -> "dict[str, dict]":
    """End-to-end metrics at reference speed, each with its raw twin."""
    from refspeed import reference_seconds

    samples = record["samples"]
    queries = sum(s["queries"] for s in samples)
    n = len(samples)
    # The tail is the highest percentile with TAIL_BEYOND samples beyond
    # it.  A run too short for that (large-k) keeps an eighth of its
    # samples beyond it: still at p87.5 or above, which on large-k is
    # inside the cold checks, the slowest quarter.
    beyond = min(TAIL_BEYOND, n // 8)
    # Each set-up's readings are one snapshot of a speed that flips
    # within a fraction of a second; every set-up is converted with the
    # mean over all of them, which follows the slower drift.
    setup_cal = statistics.fmean(s["cal_ms"] for s in record["setups"])
    out = {}
    for kind, field in (("ref", "ref_s"), ("raw", "wall_s")):
        latencies = sorted(s[field] * 1e3 for s in samples)
        setups = [
            reference_seconds(s["wall_s"], s["cpu_s"], setup_cal) if kind == "ref" else s["wall_s"]
            for s in record["setups"]
        ]
        out[kind] = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": latencies[n - 1 - beyond],
            "throughput_qps": queries / (sum(latencies) / 1e3),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    out["tail"] = {"percentile": 100.0 * (n - beyond) / n, "beyond": beyond, "samples": n}
    out["error_share"] = record["failed"] / record["attempted"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="corrupt one answer; the run must then report correct=false",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "record.py").is_file():
        print(f"no checking server sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    RUNS.mkdir(exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            record = run_workload(args, workload, deadline)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if args.workload else f"{workload}."
        if args.trace:
            values = {name: (v, per_layer_unit(name)) for name, v in record["per_layer"].items()}
            record["trace_check"]["per_layer"] = record["per_layer"]
        else:
            record["summary"] = summary = summarize(record)
            values = {name: (v, END_TO_END_UNITS[name]) for name, v in summary["ref"].items()}
            print(
                f"{workload} (seed {args.seed}): "
                + ", ".join(
                    f"{name} {v:.4g} {END_TO_END_UNITS[name]} (raw {summary['raw'][name]:.4g})"
                    for name, v in summary["ref"].items()
                )
                + f", error_share {summary['error_share']:.4g} ratio"
                + f"; tail is p{summary['tail']['percentile']:.1f} of {summary['tail']['samples']}"
            )
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        (RUNS / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
