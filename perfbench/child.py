"""One benchmark child process: set up a workload's inputs, then run passes on request.

Modes: `setup` sets up and exits (a set-up time sample). `run` and `trace`
set up, print a ready line, then read commands from stdin, one a line:
`run` times one untraced pass, `trace` (trace mode only) one traced pass;
each answers with one JSON line. At end of input the child prints its
summary (digests, log counters, peak RSS and, after traced passes, the
per-layer metrics) as the last JSON line.
"""
from __future__ import annotations

import argparse
import json
import logging
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import workloads
from tracer import LOG_COUNTERS, LogCounter, Tracer, layer_metrics, self_by_layer, top_level_busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where trace mode writes its spans")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    logs = LogCounter()
    logging.getLogger("coexpress").addHandler(logs)
    tracer = Tracer()
    try:
        if args.mode == "trace":
            tracer.run = "setup"
            tracer.install()
        inputs = wl.setup(args.seed, args.work / "input")
        tracer.uninstall()
        print(json.dumps({"ready_at": time.monotonic()}), flush=True)
        result = {"size": inputs["size"], "numpy": numpy.__version__, "threads": workloads.THREADS}
        if args.mode != "setup":
            result.update(serve(wl, inputs, args, logs, tracer))
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def serve(wl, inputs: dict, args, logs: LogCounter, tracer: Tracer) -> dict:
    pinned = workloads.PINNED_DIGESTS[args.workload] if args.seed == workloads.DEFAULT_SEED else ""
    digests: list[str] = []
    untraced_counts: dict[str, int] = {}
    runs: set[str] = set()
    cpus, unaccounted = [], []

    def one_pass(i: int) -> tuple[float, float] | None:
        out = args.work / f"out{i}"
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            result = wl.run(inputs, out, args.seed)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            digest = wl.check(inputs, out, result)
        except Exception:
            traceback.print_exc()
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        reference = pinned or (digests[0] if digests else digest)
        digests.append(digest)
        if digest != reference:
            print(f"{args.workload} pass {i}: output digest {digest} != {reference}", file=sys.stderr)
            return None
        return wall, cpu

    for i, command in enumerate(line.strip() for line in sys.stdin):
        if command == "run":
            timed = one_pass(i)
        elif command == "trace" and args.mode == "trace":
            if not runs:  # the log counters of the traced passes only
                untraced_counts = {name: logs.counts[name] for name in LOG_COUNTERS}
                logs.counts.clear()
                logs.cohort_reasons.clear()
            tracer.run = f"{args.workload}-{args.seed}-traced{i}"
            tracer.install()
            try:
                timed = one_pass(i)
            finally:
                tracer.uninstall()
            if timed:
                runs.add(tracer.run)
                cpus.append(timed[1])
                unaccounted.append(timed[0] - top_level_busy(tracer.spans, tracer.run))
        else:
            raise SystemExit(f"child: unknown command {command!r}")
        print(json.dumps({"ok": timed is not None, "wall": timed[0] if timed else None}), flush=True)

    out = {"digests": sorted(set(digests)),
           "log_counts": untraced_counts or {name: logs.counts[name] for name in LOG_COUNTERS}}
    if args.mode == "trace":
        layers = layer_metrics(tracer.spans, runs, logs.counts) if runs else {}
        gen = [s.duration for s in tracer.spans if s.run == "setup" and s.name == "synthetic.generate"]
        layers["synthetic.generate.s"] = sum(gen)
        layers["proc.cpu_s"] = statistics.mean(cpus) if cpus else 0.0
        layers["trace.unaccounted_s"] = statistics.mean(unaccounted) if unaccounted else 0.0
        out.update(layers=layers, cohort_reasons=dict(logs.cohort_reasons),
                   self_s_by_layer=self_by_layer(tracer.spans, runs))
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text("".join(json.dumps(vars(s)) + "\n" for s in tracer.spans))
    return out


if __name__ == "__main__":
    sys.exit(main())
