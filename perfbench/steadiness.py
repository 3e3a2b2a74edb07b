"""Record how steady the benchmark is, at reference speed and raw.

    python3 perfbench/steadiness.py

Runs every workload :data:`RUNS` times, each run with its own seed from
:data:`FIRST_SEED` on, alternating the workload order between rounds,
then one traced run per workload.  For each end-to-end metric it
records the median and quartiles of the reference-speed values and of
their raw wall-clock twins, and the spread (quartile distance over
median) next to the bound BENCHMARK.json fixes.  A metric whose spread
exceeds a third of its bound is named unsteady, and a metric whose
spread the reference-speed conversion widens is named too.  The record
is written to ``perfbench/STEADINESS.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_RECORDS = HERE / "runs"

#: Runs per workload, and the seed of the first.
RUNS = 10
FIRST_SEED = 500


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((RUN_RECORDS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def calibration_summary(readings: "list[float]") -> dict:
    """A run's calibrator readings in brief (the run record has them all)."""
    return {
        "readings": len(readings),
        "mean": statistics.fmean(readings),
        "min": min(readings),
        "max": max(readings),
    }


def spread(values: "list[float]") -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {w: [] for w in workloads}
    for i in range(RUNS):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = FIRST_SEED + i
            out = run(workload, seed, seconds, 0)
            summary = out["record"]["summary"]
            runs[workload].append({
                "seed": seed,
                "correct": out["result"]["correct"],
                "error_share": summary["error_share"],
                "ref": summary["ref"],
                "raw": summary["raw"],
                "tail": summary["tail"],
                "calibration_ms": calibration_summary(out["record"]["calibration_ms"]),
                "setups": out["record"]["setups"],
            })
            print(workload, seed, json.dumps(summary["ref"]), flush=True)

    report = {"run_seconds": seconds, "workloads": {}}
    for workload, entries in runs.items():
        stats = {
            kind: {name: spread([e[kind][name] for e in entries]) for name in bounds}
            for kind in ("ref", "raw")
        }
        unsteady = [n for n, bound in bounds.items() if stats["ref"][n]["spread"] > bound / 3]
        widened = [n for n in bounds if stats["ref"][n]["spread"] > stats["raw"][n]["spread"]]
        report["workloads"][workload] = {
            "runs": entries,
            "stats": stats,
            "unsteady": unsteady,
            "widened_by_reference_speed": widened,
            "all_correct": all(e["correct"] for e in entries),
        }
        print(f"\n{workload}: unsteady {unsteady or 'none'}; widened {widened or 'none'}")
        for name, bound in bounds.items():
            ref, raw = stats["ref"][name], stats["raw"][name]
            print(
                f"  {name:16s} bound {bound:.2f}  ref median {ref['median']:.4g} "
                f"spread {ref['spread']:.4f}  raw median {raw['median']:.4g} "
                f"spread {raw['spread']:.4f}"
            )

    traced = {}
    for workload in workloads:
        out = run(workload, FIRST_SEED, seconds, 1)
        check = out["record"]["trace_check"]
        traced[workload] = {"correct": out["result"]["correct"], **check}
        print(
            f"{workload} traced: overhead ratio "
            f"{check['per_layer']['trace.overhead_ratio']:.4f}, "
            f"span faults {len(check['span_faults'])}, "
            f"layers {check['layers_s']:.3f} s + transport {check['transport_s']:.3f} s "
            f"of {check['round_trip_s']:.3f} s round trips"
        )
    report["traced"] = traced
    (HERE / "STEADINESS.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
