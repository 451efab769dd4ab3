"""End-to-end benchmark of the ranked-enumeration engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-deep --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that yields the per-layer metrics.  Both print one
JSON result object as the last line of standard output and write their
records (exact work counts, reproducibility record, spans, the
per-layer self-time table) under ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {"paper-deep": "deep", "paper-topk": "topk", "url-rw": "urlrw"}

#: Timed set-ups per run: at least 7, and more (up to 400) until they add
#: up to 3 s; the median is ``setup_s``.
SETUP_REPEATS = dict(min_repeats=7, min_seconds=3.0, max_repeats=400)

#: The engine is constructed with no arguments in every workload.
ENGINE_ARGS = {
    "max_plans": "default (64)",
    "max_queries": "default (256)",
    "encode": "default ('auto')",
    "kernel_min_rows": "default (None)",
    "bulk_topk_max_k": "default (None -> 256)",
}

LAYERS = (
    "data",
    "query",
    "planner",
    "engine",
    "yannakakis",
    "enum",
    "kernels",
    "scores",
    "encoded",
    "journal",
    "persist",
    "service",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/repro; run from a full checkout")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def count_window(module, requests) -> int:
    """Requests whose exact work counts are recorded, from the start of
    the timed loop: the workload's ``COUNT_WINDOW``, else one pass."""
    return getattr(module, "COUNT_WINDOW", len(requests))


def count_record(samples, window: int) -> dict:
    """Exact work counts of the first ``window`` requests, by class."""
    per_class: dict[str, dict] = {}
    for s in samples:
        if s.rid is None or s.rid >= window or not s.counts:
            continue
        key = f"{s.rid:03d}:{s.cls}"
        per_class[key] = dict(sorted(s.counts.items()))
    return per_class


def count_summary(record: dict) -> dict:
    totals: dict[str, int] = {}
    peak = max_gap = 0
    for counts in record.values():
        for key, value in counts.items():
            if key == "peak_pq_entries":
                peak = max(peak, value)
            elif key == "max_pq_ops_between_answers":
                max_gap = max(max_gap, value)
            else:
                totals[key] = totals.get(key, 0) + value
    answers = totals.get("answers", 0)
    return {
        "totals": totals,
        "peak_pq_entries": peak,
        "max_pops_between_answers": max_gap,
        "pops_per_answer": totals.get("pops", 0) / answers if answers else 0.0,
        "cells_per_answer": totals.get("cells_created", 0) / answers if answers else 0.0,
    }


def per_layer(tracer, state, samples, traced, untraced, window):
    """The ``per_layer`` metrics of ``BENCHMARK.json`` for one traced run."""
    from harness import class_geomean_of_medians, tail_metrics, ttk_seconds

    rids = {s.rid for s in traced}
    requests = max(len(rids), 1)
    spans: dict[int, list[float]] = {}
    for s in traced:
        lo_hi = spans.setdefault(s.rid, [s.issued, s.last])
        lo_hi[0] = min(lo_hi[0], s.issued)
        lo_hi[1] = max(lo_hi[1], s.last)
    traced_wall = sum(hi - lo for lo, hi in spans.values())
    layer_self = tracer.layer_self(rids)
    share = lambda seconds: 100.0 * seconds / traced_wall if traced_wall else 0.0  # noqa: E731
    own = lambda *names: tracer.own_seconds(set(names), rids)  # noqa: E731

    summary = count_summary(count_record(samples, window))
    totals = summary["totals"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    enum_seconds_with_pops = sum(
        tracer.own_seconds({"enum.next", "enum.top_k"}, {s.rid})
        for s in traced
        if s.counts.get("pops")
    )
    pops = sum(s.counts.get("pops", 0) for s in traced if s.counts.get("pops"))
    attributed = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    # Traced requests that decoded answers (url-rw's cursors).
    decoding = {
        rid for (rid, name), _seconds in tracer.own.items()
        if rid in rids and name in ("encoded.next", "encoded.top_k")
    }
    service_calls = tracer.calls["service.request"]
    service_engine_ms = tracer.server_seconds / service_calls * 1e3 if service_calls else 0.0
    traced_ttk = class_geomean_of_medians(traced, ttk_seconds)
    untraced_ttk = class_geomean_of_medians(untraced, ttk_seconds)

    metrics = {
        f"{layer}.self_pct": (share(layer_self.get(layer, 0.0)), "%") for layer in LAYERS
    }
    metrics.update(
        {
            "unattributed.self_pct": (share(max(traced_wall - attributed, 0.0)), "%"),
            "data.load_ms": (tracer.total["data.load"] * 1e3, "ms"),
            "query.parse_ms": (tracer.mean_ms("query.parse"), "ms"),
            "planner.plan_ms": (tracer.mean_ms("planner.plan"), "ms"),
            "engine.plan_hit_ratio": (
                ratio(totals.get("plan_hits", 0), totals.get("plan_hits", 0) + totals.get("plan_misses", 0)),
                "ratio",
            ),
            "engine.prepare_self_ms": (
                layer_self.get("engine", 0.0) / max(tracer.calls["engine.stream"], 1) * 1e3,
                "ms",
            ),
            "yannakakis.reduce_ms": (tracer.mean_ms("yannakakis.reduce"), "ms"),
            "yannakakis.survivor_ratio": (
                ratio(
                    sum(tracer.reduced[rid][1] for rid in rids),
                    sum(tracer.reduced[rid][0] for rid in rids),
                ),
                "ratio",
            ),
            "yannakakis.refresh_ms": (tracer.mean_ms("yannakakis.refresh"), "ms"),
            "kernels.calls": (totals.get("kernel_calls", 0), "count"),
            "kernels.fallback_ratio": (
                ratio(totals.get("kernel_fallbacks", 0), totals.get("kernel_calls", 0) + totals.get("kernel_fallbacks", 0)),
                "ratio",
            ),
            "scores.builds": (totals.get("score_builds", 0), "count"),
            "scores.fallback_ratio": (
                ratio(totals.get("score_fallbacks", 0), totals.get("score_builds", 0) + totals.get("score_fallbacks", 0)),
                "ratio",
            ),
            "enum.build_ms": (tracer.mean_ms("enum.build"), "ms"),
            "enum.enumerate_ms": (own("enum.next", "enum.top_k") / requests * 1e3, "ms"),
            "enum.pops_per_answer": (summary["pops_per_answer"], "count"),
            "enum.us_per_pop": (enum_seconds_with_pops / pops * 1e6 if pops else 0.0, "us"),
            "enum.max_pops_between_answers": (summary["max_pops_between_answers"], "count"),
            "enum.cells_per_answer": (summary["cells_per_answer"], "count"),
            "enum.peak_pq_entries": (summary["peak_pq_entries"], "count"),
            "enum.bulk_topk_calls": (totals.get("bulk_topk_calls", 0), "count"),
            "enum.bulk_topk_fallbacks": (totals.get("bulk_topk_fallbacks", 0), "count"),
            "encoded.refresh_ms": (tracer.mean_ms("encoded.refresh"), "ms"),
            "encoded.decode_ms": (
                own("encoded.next", "encoded.top_k") / max(len(decoding), 1) * 1e3,
                "ms",
            ),
            "encoded.encode_builds": (totals.get("encode_builds", 0), "count"),
            "deltas.apply_ratio": (
                ratio(totals.get("delta_applies", 0), totals.get("delta_applies", 0) + totals.get("delta_fallbacks", 0)),
                "ratio",
            ),
            "journal.append_ms": (tracer.mean_ms("journal.append", "journal.delete"), "ms"),
            "journal.checkpoint_ms": (tracer.mean_ms("journal.checkpoint"), "ms"),
            "journal.bytes_per_row": (
                ratio(totals.get("journal_bytes", 0), totals.get("rows_written", 0)),
                "B/row",
            ),
            "persist.open_ms": (tracer.mean_ms("persist.open"), "ms"),
            "persist.bytes_per_row": (getattr(state, "snapshot_bytes_per_row", 0.0), "B/row"),
            "service.request_ms": (tracer.mean_ms("service.request"), "ms"),
            "service.engine_ms": (service_engine_ms, "ms"),
            "service.wire_ms": (tracer.mean_ms("service.request") - service_engine_ms, "ms"),
            "service.cursor_replays": (totals.get("cursor_replays", 0), "count"),
            "trace.overhead_pct": (
                100.0 * (traced_ttk / untraced_ttk - 1.0) if untraced_ttk else 0.0,
                "%",
            ),
        }
    )
    metrics.update(tail_metrics(untraced))
    return metrics


def layer_table(metrics: dict, workload: str) -> str:
    lines = [f"self time by layer, {workload} (traced requests, % of wall):"]
    for layer in LAYERS + ("unattributed",):
        lines.append(f"  {layer:<13} {metrics[f'{layer}.self_pct'][0]:7.2f} %")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Exact work counts must repeat across runs of one seed: fix the
        # hash seed for the process that runs the workload.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    import_program()
    sys.path.insert(0, HERE)
    import harness
    import tracer as tracing

    module = importlib.import_module(WORKLOADS[args.workload])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    phases = {}
    started = time.perf_counter()
    inputs = module.generate(args.seed)
    phases["generate_s"] = time.perf_counter() - started
    gc.collect()

    extra = {}
    if args.trace:
        # Traced and untraced requests interleave, so the overhead is
        # measured on the same requests in the same stretch of the run:
        # request i of pass p is traced when i + p is even, so over two
        # passes every request is issued once each way.
        tracer = tracing.Tracer().install()
        started = time.perf_counter()
        state = module.setup(inputs)
        setup_wall = time.perf_counter() - started
        tracer.uninstall()
        requests = module.cycle(state, args.seed)
        n = len(requests)
        window = count_window(module, requests)
        samples, issued, _calibrations = harness.run_requests(
            module,
            state,
            requests,
            seconds=args.seconds,
            at_least=2 * max(window, n),
            tracer=tracer,
            traced=lambda i: (i % n + i // n) % 2 == 0,
        )
        traced = [s for s in samples if s.extra["traced"]]
        untraced = [s for s in samples if not s.extra["traced"]]
        metrics = per_layer(tracer, state, samples, traced, untraced, window)
        tracer.write(harness.out_path(f"{tag}-spans.jsonl"))
        extra["not_measurable_from_outside"] = tracing.NOT_MEASURABLE
        extra["layer_self_seconds"] = tracer.layer_self({s.rid for s in traced})
        setup_times = [setup_wall]
    else:
        state, setup_times, setup_calibrations = harness.timed_setup(
            module, inputs, **SETUP_REPEATS
        )
        requests = module.cycle(state, args.seed)
        window = count_window(module, requests)
        samples, issued, calibrations = harness.run_requests(
            module,
            state,
            requests,
            seconds=args.seconds,
            at_least=max(window, getattr(module, "MIN_REQUESTS", 0)),
        )
        metrics, extra["unscaled"] = harness.end_to_end(
            samples, setup_times, setup_calibrations, calibrations
        )
        extra["per_request"] = [
            [s.rid, s.cls, harness.ttf_seconds(s), harness.ttk_seconds(s), calibrations[s.rid]]
            for s in samples
            if s.error is None
        ]
        extra["class_ttk_ms"] = {
            cls: harness.median(values) * 1e3
            for cls, values in sorted(harness.by_class(samples, harness.ttk_seconds).items())
        }

    phases["setup_and_loop_s"] = time.perf_counter() - started - phases["generate_s"]
    record = count_record(samples, window)
    sizes = module.sizes(state)
    extra.update(getattr(module, "report", lambda s: {})(state))
    failures = []
    started = time.perf_counter()
    try:
        failures = module.verify(state, samples)
    finally:
        state.close()
    phases["verify_s"] = time.perf_counter() - started

    errors = [s for s in samples if s.error is not None]
    writes = len(getattr(state, "write_ack", ()))
    attempted = len(samples) + writes
    failed = len(errors) + len(failures)

    counts = {"window_requests": window, "per_request": record, "summary": count_summary(record)}
    if args.trace:
        # Rows into / out of the full reducer, per traced request in the window.
        counts["reducer_rows"] = {
            str(rid): rows
            for rid, rows in sorted(tracer.reduced.items(), key=lambda kv: str(kv[0]))
            if rid == "setup" or rid < window
        }
    harness.write_json(f"{tag}-counts.json", counts)
    harness.write_json(
        f"{tag}-run.json",
        {
            "reproducibility": harness.reproducibility(
                ROOT,
                args.seed,
                sizes,
                {"issued": issued, "samples": len(samples), "writes": writes, "cycle": len(requests)},
                ENGINE_ARGS,
            ),
            "setup_seconds": setup_times,
            "phase_seconds": phases,
            "metrics": {name: value for name, (value, _unit) in metrics.items()},
            "errors": [f"{s.cls}: {s.error}" for s in errors][:20],
            "verification_failures": failures[:20],
            **extra,
        },
    )
    for message in ([f"{s.cls}: {s.error}" for s in errors] + failures)[:10]:
        harness.log(f"FAILED {message}")
    if args.trace:
        print(layer_table(metrics, args.workload))
    print(harness.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
