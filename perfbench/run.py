"""coexpress benchmark: time a workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload rfe_paper --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. One child process per workload sets the inputs
up and then runs passes one at a time, on request, for --seconds (at least
three). Before every other pass a fresh child only sets up, so the set-up
time samples are spread over the same window as the passes. With --trace 1 the
child follows the untraced passes with traced ones, and the per-layer metrics
replace the end-to-end ones. The last stdout line is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TRACED_PASSES = 3  # 3 x 36 fits gives the >= 100 fits booster.train.ms.p90 needs
BUDGET_S = 170.0  # per workload; the contract allows 180 s per invocation
LIMITS = (
    "no hardware counters; file cache not dropped; no CPU pinning or cgroup changes; "
    "only the benchmark's own processes are measured"
)


class BenchError(Exception):
    pass


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Child:
    """A child process (`child.py`) that sets a workload up, then runs passes on request.

    A watchdog kills it at the deadline, so no read below blocks past it.
    """

    def __init__(self, mode: str, args, work: Path, deadline: float):
        self.label = f"{args.workload}: {mode} child"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, "--work", str(work),
            "--spans", str(HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl"),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(1.0, deadline - started), self.proc.kill)
        self.watchdog.start()
        self.setup_s = self._reply()["ready_at"] - started

    def _reply(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith("{"):
                return json.loads(line)
        code = self.proc.wait()
        late = " (killed at the time budget)" if not self.watchdog.is_alive() else ""
        raise BenchError(f"{self.label} exited with {code}{late}")

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def finish(self) -> dict:
        self.proc.stdin.close()
        result = self._reply()
        if self.proc.wait() != 0:
            raise BenchError(f"{self.label} exited with {self.proc.returncode}")
        return result

    def stop(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def environment(numpy_version: str, threads: int) -> dict:
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for p in sorted((SRC / "coexpress").rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    cpu, l3 = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {
        "commit": commit, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "l3": l3, "python": platform.python_version(),
        "numpy": numpy_version, "threads": threads, "limits": LIMITS,
    }


def bench(args) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the human-readable lines."""
    deadline = time.monotonic() + BUDGET_S
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    children: list[Child] = []

    def child(mode: str, name: str) -> Child:
        children.append(Child(mode, args, work / name, deadline))
        return children[-1]

    try:
        server = child("trace" if args.trace else "run", "main")
        setups, walls, traced, attempted = [server.setup_s], [], [], 0
        begun = time.monotonic()
        while attempted < MIN_PASSES or time.monotonic() - begun < args.seconds:
            # Stop early rather than let the watchdog cut the last passes, traced ones included.
            if walls and time.monotonic() + (2 + 2 * TRACED_PASSES * args.trace) * walls[-1] \
                    + setups[-1] > deadline - 10.0:
                break
            # Set-up samples spread over the whole measurement; every other pass
            # leaves more of the window to the passes.
            if not args.trace and attempted % 2 == 0:
                sample = child("setup", f"setup{attempted}")
                sample.finish()
                setups.append(sample.setup_s)
            reply = server.ask("run")
            attempted += 1
            if reply["ok"]:
                walls.append(reply["wall"])
        for _ in range(TRACED_PASSES if args.trace else 0):
            reply = server.ask("trace")
            attempted += 1
            if reply["ok"]:
                traced.append(reply["wall"])
        main = server.finish()
        failed = attempted - len(walls) - len(traced)
    finally:
        for c in children:
            c.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if not walls:
        raise BenchError(f"{args.workload}: no run completed")
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
    size = main["size"]
    lines = [
        f"{args.workload} seed={args.seed} threads={main['threads']} input "
        f"{size['samples']} samples x {size['genes']} genes ({size['input_bytes']} bytes)",
    ]
    if args.trace:
        metrics = dict(main["layers"])
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls) if traced else 0.0
    else:
        metrics = {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["maxrss_kib"] / 1024.0,
        }
    notes = {
        "run_s": f"median of {len(walls)} runs; q1 {q1:.4f}, q3 {q3:.4f}",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"{args.workload}: measured metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from those BENCHMARK.json declares")
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    lines.append(f"  {'failed_ratio':<34} {failed / max(attempted, 1):>14.6g} ratio  "
                 f"{failed} of {attempted} runs failed or broke the output check")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "input": size,
        "run_s": {"median": statistics.median(walls), "q1": q1, "q3": q3, "n": len(walls),
                  "walls": walls},
        "setup_s": setups, "digests": main["digests"], "log_counts": main["log_counts"],
        "environment": environment(main["numpy"], main["threads"]),
    }
    if args.trace:
        detail.update(traced_run_s=traced, cohort_reasons=main["cohort_reasons"],
                      self_s_by_layer=main["self_s_by_layer"])
    lines.append("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so `bench` stops its children
    if not (SRC / "coexpress" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'coexpress'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        ap.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name], lines = bench(args)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
