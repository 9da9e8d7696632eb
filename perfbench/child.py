"""One workload in one fresh process; run.py starts it and reads its last line.

Modes:
  setup     build the inputs, print READY, exit (a set-up sample);
  timed     build the inputs, print READY, run units for --seconds;
  untraced  set-up plus the workload's fixed traced amount of work, tracing off;
  traced    the same with every public library call recorded as a span, then
            the workload's probe, if it has one, outside the timed wall.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _emit(payload):
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", help="where the traced mode writes its spans")
    args = ap.parse_args(argv)

    from tracer import NullTracer, Summary, Tracer
    from workloads import WORKLOADS, layer_metrics

    tracer = Tracer() if args.mode == "traced" else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.work_dir, tracer)

    if args.mode in ("setup", "timed"):
        wl.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        walls, ops = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops.extend(wl.unit())
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= args.seconds:
                break
        _emit({"unit_walls": walls,
               "latencies": walls if wl.unit_is_request else [op.seconds for op in ops],
               "attempted": len(ops),
               "failures": [op.detail or op.name for op in ops if not op.ok]})
        return 0

    with tracer.instrument():
        t0 = time.perf_counter()
        wl.setup()
        ops = []
        for _ in range(wl.trace_units):
            ops.extend(wl.unit())
        wall = time.perf_counter() - t0
        n_main = len(tracer.spans) if tracer.enabled else 0
        if tracer.enabled and hasattr(wl, "probe"):
            ops.extend(wl.probe())
    payload = {"wall": wall, "attempted": len(ops),
               "failures": [op.detail or op.name for op in ops if not op.ok]}
    if tracer.enabled:
        main_spans = Summary(tracer, 0, n_main)
        probe = Summary(tracer, n_main) if len(tracer.spans) > n_main else None
        metrics = layer_metrics(main_spans, probe)
        metrics["trace.top_span_coverage"] = (main_spans.top_time / wall, "share")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        payload["metrics"] = metrics
        tracer.write(args.trace_out)
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
