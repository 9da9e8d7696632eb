"""Benchmark of the bergman toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each one is there):

  reproduce         `python -m bergman.cli reproduce` in a child process, one
                    invocation after another; one request is one invocation.
  point-queries     closed loop, one client: single-point Berezin, adjoint, P+,
                    P and kernel-mass calls on four small rules; one request is
                    one call, a unit is one block of 25 calls.
  operator-reports  the library calls behind `bergman norm --p 2,3,inf`,
                    `br-scan` (six domains), `blowup`, the P+ product check at
                    p = 2, 3 and 20 closed-vs-quadrature blow-up transforms;
                    one request (and unit) is one pass over all 32 reports.

Rule serialization has no timed workload: the interpreted loop of save_rule
runs up to twice as slow while other tenants load the host, and runs of it
spread past any bound a later change could be held to.  The traced run of
point-queries saves, loads and verifies its four rules after its timed work,
so save_rule and load_rule still have per-layer numbers.

Each workload runs in fresh child processes with BLAS threads capped at the
number of usable cores.  With --trace 0 the last line of standard output
holds the end-to-end metrics:

  setup_s         median over 3-4 fresh processes of the time from process
                  start to inputs ready (interpreter, imports, pre-timing
                  rule builds); for reproduce, interpreter plus imports only
  wall_s          median seconds of one unit of work
  peak_rss_mb     peak resident set of the measuring child (median over the
                  CLI invocations for reproduce), from wait4 rusage
  ops_per_s       requests completed per second of unit time
  latency_p50_ms, latency_p99_ms
                  per-request latency quantiles over the run

With --trace 1 it holds the per-layer metrics of a traced run: a fresh child
does the workload's fixed traced amount of work once untraced and another
once with every call into the public functions of domains, quadrature,
transforms, opnorm, hartogs and reproduce recorded as a span (kept in memory,
written to .perfbench/trace-<workload>.json at the end).  A layer a workload
never calls reads 0.  Counts and bytes are computed from arguments and
results, not measured.

Every output is checked; a failed check is counted in `failed`, never
skipped.  fail_ratio = failed / attempted is printed on its own line; it is
not a bounded metric because it is 0 whenever the program is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reproduce", "point-queries", "operator-reports")
SETUP_SAMPLES = 3        # set-up-only children; the measuring child adds one more
REPRODUCE_CHECKS = 13    # the suite has at least this many checks
RUN_BUDGET_S = 170.0     # every child is killed past this point of the run


class BenchError(Exception):
    """The benchmark could not run: missing sources or a child that crashed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cap = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


class Runner:
    """Starts children one at a time and reaps each with its own rusage."""

    def __init__(self, root: str):
        self.root = root
        self.env = _child_env(root)
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def run(self, argv, wait_ready=False):
        """Returns (setup_s or None, wall_s, stdout, exit code, peak RSS in MB)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.root)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            setup = None
            if wait_ready:
                line = proc.stdout.readline()
                if line.strip() == "READY":
                    setup = time.perf_counter() - t0
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return setup, wall, out, proc.returncode, usage.ru_maxrss / 1024.0

    def child(self, workload, seed, seconds, mode, work_dir, trace_out=None):
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
                "--work-dir", work_dir]
        if trace_out:
            argv += ["--trace-out", trace_out]
        setup, wall, out, code, rss = self.run(argv, wait_ready=mode in ("setup", "timed"))
        if code != 0 or (mode in ("setup", "timed") and setup is None):
            raise BenchError(f"{workload} child ({mode}) exited with code {code}")
        payload = json.loads(out.strip().splitlines()[-1]) if mode != "setup" else {}
        return setup, payload, rss


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _reproduce_report(path, code):
    """(checks attempted, checks failed, notes) for one `bergman reproduce --out` run."""
    try:
        with open(path) as fh:
            rows = json.load(fh)
    except (OSError, ValueError) as exc:
        return REPRODUCE_CHECKS, REPRODUCE_CHECKS, [f"no report ({exc}), exit code {code}"]
    notes = [f"check {r.get('id')}: {r.get('measured')}"
             for r in rows if r.get("passed") is not True]
    failed = len(notes) + max(0, REPRODUCE_CHECKS - len(rows))
    if len(rows) < REPRODUCE_CHECKS:
        notes.append(f"only {len(rows)} checks in the report")
    if code != 0 and failed == 0:
        failed = 1
        notes.append(f"exit code {code} although every check passed")
    return max(len(rows), REPRODUCE_CHECKS), failed, notes


def timed_run(runner, workload, seed, seconds, work_dir):
    setups = [runner.child(workload, seed, seconds, "setup", work_dir)[0]
              for _ in range(SETUP_SAMPLES)]
    if workload == "reproduce":
        setups.append(runner.child(workload, seed, seconds, "setup", work_dir)[0])
        walls, rss, attempted, failed, notes = [], [], 0, 0, []
        report = os.path.join(work_dir, "report.json")
        start = time.perf_counter()
        while True:
            if os.path.exists(report):
                os.remove(report)
            _, wall, _, code, peak = runner.run(
                [sys.executable, "-m", "bergman.cli", "reproduce", "--out", report])
            n, n_failed, run_notes = _reproduce_report(report, code)
            attempted += n
            failed += n_failed
            notes += run_notes
            walls.append(wall)
            rss.append(peak)
            if time.perf_counter() - start >= seconds:
                break
        latencies = walls
    else:
        setup, payload, peak = runner.child(workload, seed, seconds, "timed", work_dir)
        setups.append(setup)
        walls, latencies, rss = payload["unit_walls"], payload["latencies"], [peak]
        attempted, notes = payload["attempted"], payload["failures"]
        failed = len(notes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (_quantile(latencies, 99) * 1e3, "ms"),
    }
    counts = {"setup_samples": len(setups), "units": len(walls),
              "latency_samples": len(latencies),
              "samples_above_p99": sum(x * 1e3 > metrics["latency_p99_ms"][0] for x in latencies)}
    return metrics, attempted, failed, notes, counts


def traced_run(runner, workload, seed, seconds, work_dir):
    trace_out = os.path.join(runner.root, ".perfbench", f"trace-{workload}.json")
    _, bare, _ = runner.child(workload, seed, seconds, "untraced", work_dir)
    _, traced, _ = runner.child(workload, seed, seconds, "traced", work_dir, trace_out)
    metrics = {name: tuple(v) for name, v in traced["metrics"].items()}
    metrics["trace.wall_s"] = (traced["wall"], "s")
    metrics["trace.untraced_wall_s"] = (bare["wall"], "s")
    metrics["trace.overhead_s"] = (traced["wall"] - bare["wall"], "s")
    attempted = bare["attempted"] + traced["attempted"]
    notes = bare["failures"] + traced["failures"]
    counts = {"spans_file": os.path.relpath(trace_out, runner.root)}
    return metrics, attempted, len(notes), notes, counts


def _declared(root, key):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def _src_lines(root) -> int:
    pkg = os.path.join(root, "src", "bergman")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _facts(root) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": _nproc(),
        "l3_bytes": _l3_bytes(),
        "python": sys.version.split()[0],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas_threads_cap": int(_child_env(root)["OPENBLAS_NUM_THREADS"]),
        "src_bergman_lines": _src_lines(root),
        "clients": 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bergman benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bergman", "__init__.py")):
        print("error: run from the root of a bergman checkout (src/bergman is missing)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(root, ".perfbench"))
    runner = Runner(root)
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, notes, counts = run(runner, args.workload, args.seed,
                                                   args.seconds, work_dir)
        declared = _declared(root, "per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(set(declared) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print("facts " + json.dumps(_facts(root)))
    print("counts " + json.dumps(counts))
    for note in notes[:20]:
        print(f"FAILED {note}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} outputs)")
    for name in declared:
        value, unit = metrics[name]
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
