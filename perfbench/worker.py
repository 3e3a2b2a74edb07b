"""One benchmark process: the checking server and its closed-loop client.

``run.py`` starts this process several times per run.  Each start sets
up from scratch - imports, a ``CheckingHTTPServer`` on a free local
port, one ``ServerClient`` keep-alive connection, the workload's
untimed warm-up - and prints ``READY`` the moment set-up ends, then one
``CAL`` calibrator reading.  A ``--setup-only`` process stops there;
the last process goes on to measure and prints its result as JSON.

The server runs on a thread of this process, so the process's CPU time
during a request is the client's and the server's together, and its
peak resident memory is the server's plus a small client: it is read
when measuring ends, before the in-process reference checker that
verifies the answers is built.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

# One CPU for the whole process, set before any thread starts so every
# thread inherits it.  The CPUs of this class of machine change speed
# independently of each other; the calibrator (client thread) must read
# the speed of the CPU the server thread computes on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

from repro.server.client import ServerClient  # noqa: E402
from repro.server.http import make_server  # noqa: E402

from benchmarks.record import FAULT_COUNTERS  # noqa: E402
from refspeed import Calibration, reference_seconds  # noqa: E402
from spans import CLIENT, MODEL_BUILD, Tracer, layer_times, span_faults  # noqa: E402
from workloads import ANCHOR, ANCHOR_VALUE, WORKLOADS, answer_of, corrupt  # noqa: E402


#: Calibrator readings right after set-up; their mean converts set-up
#: time to reference speed.
SETUP_READINGS = 40


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        # No retries: a refused request is a failure, not a hidden wait.
        with ServerClient(url, retries=0) as client:
            workload = WORKLOADS[args.workload](args.seed)
            warm_pairs = workload.warm_up(client)
            emit("READY", {"cpu_s": time.process_time()})
            calibration = Calibration()
            emit("CAL", {"cal_ms": statistics.fmean(calibration.sample(SETUP_READINGS))})
            if args.setup_only:
                return 0
            result = measure(client, workload, warm_pairs, calibration, args)
    finally:
        server.shutdown()
        thread.join()
    print(json.dumps(result))
    return 0


def measure(client, workload, warm_pairs, calibration, args) -> dict:
    status, anchor_body = client.query(ANCHOR)
    stats_before = client.stats()
    rounds = workload.rounds()
    phases = [(False, args.seconds / 2), (True, args.seconds / 2)] if args.trace else [
        (False, args.seconds)
    ]
    tracer = Tracer()
    results = []
    for traced, seconds in phases:
        stats_at_start = client.stats()
        if traced:
            tracer.install()
        try:
            records, answers = run_phase(
                client, workload, rounds, seconds,
                workload.min_samples_traced if args.trace else workload.min_samples,
                calibration, tracer if traced else None,
            )
        finally:
            tracer.uninstall()
        results.append((records, answers, stats_at_start, client.stats()))
    calibration.maybe_sample(force=True)
    # Read before any in-process reference checker is built, so the
    # figure is the server's (and a small client's) alone.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Untimed correctness: the warm-up's cold answers, the paper anchor,
    # then every measured answer.
    failed = workload.verify_warm_up(warm_pairs)
    attempted = len(warm_pairs) + 1
    anchor = answer_of(anchor_body) if status == 200 else None
    anchor_ok = bool(anchor and anchor["holds"] and round(anchor["value"], 4) == ANCHOR_VALUE)
    failed += not anchor_ok
    if args.self_test:
        corrupt(results[0][1][0][2])
    before, after = stats_before["service"], results[-1][3]["service"]
    faults = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in FAULT_COUNTERS
        if after.get(name, 0) > before.get(name, 0)
    }
    failed += sum(faults.values())
    for records, answers, _, _ in results:
        for rec, (sample, status, body) in zip(records, answers):
            rec["failed"] = workload.check(sample, status, body)
            attempted += rec["queries"]
            failed += rec["failed"]
            rec["ref_s"] = reference_seconds(
                rec["wall_s"], rec["cpu_s"], calibration.around(rec["start"], rec["end"])
            )

    measured = results[0][0]
    out = {
        "anchor_ok": anchor_ok,
        "faults": faults,
        "peak_rss_mb": peak_rss_mb,
        "calibration_ms": calibration.readings,
        "samples": [
            {k: rec[k] for k in ("label", "queries", "wall_s", "cpu_s", "ref_s", "failed")}
            for rec in measured
        ],
    }
    if args.trace:
        traced_records, _, before, after = results[1]
        out["per_layer"], out["trace_check"] = per_layer(
            tracer.spans, traced_records, before, after, calibration
        )
        # A broken breakdown fails the traced run.
        failed += len(out["trace_check"]["span_faults"])
        per_query = [
            sum(r["ref_s"] for r in recs) / sum(r["queries"] for r in recs)
            for recs, _, _, _ in results
        ]
        out["per_layer"]["trace.overhead_ratio"] = per_query[1] / per_query[0]
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(
                {"fields": ["layer", "start", "end", "parent", "request"], "spans": tracer.spans}
            ))
    out["attempted"] = attempted
    out["failed"] = failed
    return out


def run_phase(client, workload, rounds, seconds, min_samples, calibration, tracer):
    """Closed loop over whole rounds until ``seconds`` and ``min_samples``.

    Returns the timing records and the ``(sample, status, body)`` answers,
    unchecked: checks run after measuring, so the in-process answers of
    serve-cold take no measuring time and no memory the run reports.
    """
    records = []
    answers = []
    start = time.perf_counter()
    for round_ in rounds:
        for sample in round_:
            calibration.maybe_sample()
            span = tracer.request(len(records)) if tracer else contextlib.nullcontext()
            with span:
                w0 = time.perf_counter()
                c0 = time.process_time()
                if sample.batch:
                    status, body = client.query_batch(sample.payload)
                else:
                    status, body = client.query(sample.payload)
                c1 = time.process_time()
                w1 = time.perf_counter()
            rec = {
                "label": sample.label,
                "queries": sample.queries,
                "start": w0,
                "end": w1,
                "wall_s": w1 - w0,
                "cpu_s": c1 - c0,
            }
            if tracer:
                rec["bytes"] = len(json.dumps(sample.payload)) + len(json.dumps(body))
                items = body.get("results", [body]) if sample.batch else [body]
                rec["items"] = [
                    (item.get("stats_delta", {}), item.get("cache", {})) for item in items
                ]
            records.append(rec)
            answers.append((sample, status, body))
        if time.perf_counter() - start >= seconds and len(records) >= min_samples:
            break
    return records, answers


def per_layer(spans, records, before, after, calibration):
    """The per-layer metrics of a traced phase (per sample unless named)."""
    n = len(records)
    items = sum(r["queries"] for r in records)
    layers = layer_times(spans)

    def ms(layer, kind="total_s"):
        return layers.get(layer, {}).get(kind, 0.0) * 1e3 / n

    deltas: "dict[str, float]" = {}
    new_contexts = 0
    for rec in records:
        for delta, cache in rec["items"]:
            for name, value in delta.items():
                deltas[name] = deltas.get(name, 0) + value
            if cache and not cache.get("hit") and not cache.get("coalesced"):
                new_contexts += not cache.get("context_reused", True)

    def count(name):
        return deltas.get(name, 0) / n

    def service(name):
        return after["service"].get(name, 0) - before["service"].get(name, 0)

    def live_contexts(stats):
        return sum(entry["contexts"] for entry in stats["entries"])

    # Every context a computed request built either is still live or
    # pushed an older one out of its entry's LRU.
    context_evictions = new_contexts - (live_contexts(after) - live_contexts(before))
    transient_probes = deltas.get("transient_cache_hits", 0) + deltas.get(
        "transient_cache_misses", 0
    )
    requests = service("service_requests")
    metrics = {
        "transport.self_ms": ms(CLIENT, "self_s"),
        "transport.bytes": sum(r["bytes"] for r in records) / n,
        "service.self_ms": ms("service.handle", "self_s"),
        "service.model_build_ms": ms(MODEL_BUILD),
        "service.hit_ratio": service("service_cache_hits") / requests if requests else 0.0,
        "service.context_reuses": service("service_context_reuses") / n,
        "service.evictions": (
            service("service_cache_evictions") + context_evictions
        ) / n,
        "batch.self_ms_per_item": layers.get("service.handle_batch", {}).get("self_s", 0.0)
        * 1e3 / items,
        "logic.parse_ms": ms("logic.parse"),
        "logic.rewrite_ms": ms("logic.rewrite"),
        "logic.rewrites_applied": count("rewrites_applied"),
        "meanfield.trajectory_ms": ms("meanfield.trajectory"),
        "meanfield.trajectories": layers.get("meanfield.trajectory", {}).get("outermost", 0) / n,
        "compiled.generator_ms": ms("compiled.generator"),
        "compiled.generator_evals": count("generator_evals"),
        "solver.solve_ivp_ms": ms("solver.solve_ivp"),
        "solver.solve_ivp_calls": count("solve_ivp_calls"),
        "solver.rhs_evals": count("rhs_evaluations"),
        "solver.fallbacks": count("solver_fallbacks"),
        "context.transient_ms": ms("context.transient"),
        "context.transient_hit_ratio": (
            deltas.get("transient_cache_hits", 0) / transient_probes if transient_probes else 0.0
        ),
        "ctmc.sparse_cells_built": count("sparse_cells_built"),
        "ctmc.sparse_applies": count("sparse_applies"),
        "ctmc.propagator_cells_built": count("propagator_cells_built"),
        "csat.self_ms": ms("csat", "self_s"),
        "reachability.crossing_ms": ms("reachability.crossing"),
        "nested.ms": ms("nested"),
        "nested.early_exits": count("early_exits"),
        "steady.ms": ms("steady"),
        "checker.self_ms": ms("checker", "self_s"),
        "machine.calibration_ms": statistics.fmean(calibration.readings),
    }
    # layers_s + transport_s equals the summed round trips by
    # construction; span_faults checks what makes that sum a breakdown.
    round_trip = sum(r["wall_s"] for r in records)
    layers_s = sum(v["self_s"] for name, v in layers.items() if name != CLIENT)
    transport_s = layers.get(CLIENT, {}).get("self_s", 0.0)
    check = {
        "span_faults": [[i, reason] for i, reason in span_faults(spans)],
        "round_trip_s": round_trip,
        "layers_s": layers_s,
        "transport_s": transport_s,
        "self_ms_per_sample": {name: v["self_s"] * 1e3 / n for name, v in layers.items()},
        "samples": n,
    }
    return metrics, check


if __name__ == "__main__":
    sys.exit(main())
