"""Run one wirebox benchmark workload and print its metrics.

Usage, from the root of a wirebox checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-airframe, compose-scale, probe-session (see README.md in
this directory).  Every metric is printed on its own line as
``name: value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off.  With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the metrics are the per-layer ones, per op, plus
the tracing overhead.  A result file with the environment and the
per-op samples is written under ``.perfbench/`` in the checkout.

The benchmark exits 2 without a result when the current directory is
not a wirebox checkout (no ``src/wirebox`` or no ``fixtures``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
PROCESS_SAMPLES = 5
TAIL_PERCENTILES = (75, 50)
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("cli-airframe", "compose-scale", "probe-session")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # set up, print "ready", exit
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Samples:
    """Per-op wall and CPU times and gate outcomes from one timed phase.

    ``speed`` holds, per op, the factor taking its times to reference
    speed, from the calibration kernel run just before and just after the
    op (see calibrate.py); ``kernel_s`` holds those kernel times.
    """

    def __init__(self):
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.speed: list[float] = []
        self.kernel_s: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.child_rss_kb = 0

    @property
    def attempted(self) -> int:
        return len(self.wall_s)

    def scaled(self, values: list[float]) -> list[float]:
        return [v * f for v, f in zip(values, self.speed)]


def measure(workload, seconds: float, workdir: str, tracer=None) -> Samples:
    """Run whole cycles of ops until ``seconds`` have passed.

    Only ``workload.run`` is timed; the calibration kernel runs just
    before and just after it, and the correctness gate after that.  A
    failed gate or an exception counts the op as failed and the loop goes
    on.
    """
    out = Samples()
    in_process = tracer is not None and workload.in_process
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.cycle():
            trace_path = (os.path.join(workdir, "op-trace.json")
                          if tracer is not None and not workload.in_process
                          else None)
            result, error = None, None
            before = calibrate.kernel_seconds()
            if in_process:
                tracer.op = out.attempted
                tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = workload.run(op, trace_path)
            except Exception as e:  # an op that raises is a failed op
                error = f"{type(e).__name__}: {e}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if in_process:
                tracer.active = False
            kernels = (before, calibrate.kernel_seconds())
            if result is not None and not workload.in_process:
                cpu += result.cpu_s
                out.child_rss_kb = max(out.child_rss_kb, result.rss_kb)
                if tracer is not None and result.trace is not None:
                    tracer.merge(result.trace["summary"],
                                 result.trace["spans"], out.attempted)
            if error is None:
                try:
                    problems = workload.check(op, result)
                except Exception as e:  # a gate that cannot check fails
                    problems = [f"check raised {type(e).__name__}: {e}"]
            else:
                problems = [error]
            out.wall_s.append(wall)
            out.cpu_s.append(cpu)
            out.kernel_s.append(kernels)
            out.speed.append(calibrate.speed_factor(kernels))
            if problems:
                out.failures.append(f"op {out.attempted - 1}: "
                                    + "; ".join(problems))
        if time.perf_counter() >= deadline:
            return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND values above its nearest rank, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


# ---------------------------------------------------------------------------
# set-up and process timings
# ---------------------------------------------------------------------------

def _spawn_until_ready(cmd, root) -> float:
    """Seconds from spawning ``cmd`` until it prints its first line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or first.strip() != b"ready":
        raise RuntimeError(f"{cmd[1:4]} failed: {err.decode()[-500:]}")
    return elapsed


def setup_times(args, root) -> tuple[list[float], list[float]]:
    """Set-up of the workload in fresh processes, spawn to ready.

    Returns the raw times and the speed factor for each, from kernel runs
    just before and after it.  One unrecorded spawn first writes the
    bytecode caches.
    """
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    _spawn_until_ready(cmd, root)
    times, speed = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.kernel_seconds()
        times.append(_spawn_until_ready(cmd, root))
        speed.append(calibrate.speed_factor(
            (before, calibrate.kernel_seconds())))
    return times, speed


def process_ms(code: str, root: str, env) -> float:
    """Median wall milliseconds of ``python -c code`` in fresh processes."""
    times = []
    for _ in range(PROCESS_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def environment(args, root, cpus) -> dict:
    import yaml

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "pyyaml": getattr(yaml, "__version__", "unknown"),
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "nproc": cpus[0],
        "pinned_cpu": cpus[1],
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def timings(wall: list[float], cpu: list[float], setup: list[float]):
    """(tail percentile, timing metrics) from per-op and set-up seconds."""
    pct, tail_s = tail(wall)
    return pct, {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (1000 * statistics.median(wall), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "op_cpu_ms": (1000 * statistics.median(cpu), "ms"),
    }


def end_to_end(samples: Samples, setups, workload) -> tuple:
    """End-to-end metrics at reference speed, and the raw readings."""
    setup_raw, setup_speed = setups
    pct, metrics = timings(samples.scaled(samples.wall_s),
                           samples.scaled(samples.cpu_s),
                           [t * f for t, f in zip(setup_raw, setup_speed)])
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = samples.child_rss_kb
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    _, raw = timings(samples.wall_s, samples.cpu_s, setup_raw)
    raw["speed_factor"] = (statistics.median(samples.speed), "x")
    notes = {"op_tail_ms": f"p{pct} of {samples.attempted} ops"}
    return metrics, notes, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not (os.path.isfile(os.path.join(src, "wirebox", "__init__.py"))
            and os.path.isdir(os.path.join(root, "fixtures"))):
        print("perfbench: not a wirebox checkout: run from the directory "
              "holding src/wirebox and fixtures/", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    cpus = calibrate.pin_to_one_cpu()
    import wirebox

    if not os.path.abspath(wirebox.__file__).startswith(src + os.sep):
        print(f"perfbench: imported wirebox from {wirebox.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    results_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(results_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            workload_cls(root, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, root, workload_cls, results_dir, workdir, cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root, workload_cls, results_dir, workdir, cpus) -> int:
    env = environment(args, root, cpus)
    setups = setup_times(args, root)
    workload = workload_cls(root, args.seed, workdir)
    if args.trace == 0:
        samples = measure(workload, args.seconds, workdir)
        metrics, notes, raw = end_to_end(samples, setups, workload)
        phases = [samples]
        tracer = None
    else:
        from tracing import Tracer

        plain = measure(workload, args.seconds / 2, workdir)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        traced = measure(workload, args.seconds / 2, workdir, tracer)
        if workload.in_process:
            tracer.uninstall()
        metrics, notes = per_layer(plain, traced, tracer, root)
        raw = {}
        phases = [plain, traced]
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    metrics["error_ratio"] = (len(failures) / attempted, "ratio")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{note}")
    for name, (value, unit) in raw.items():
        print(f"raw.{name}: {value:.6g} {unit}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"environment": env,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "raw": {k: {"value": v, "unit": u}
                           for k, (v, u) in raw.items()},
                   "notes": notes,
                   "setup_samples": {"s": setups[0], "speed": setups[1]},
                   "ops": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                            "speed": p.speed, "kernel_s": p.kernel_s}
                           for p in phases],
                   "failures": failures}, f, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(results_dir, tag + ".spans.jsonl"))
    # error_ratio travels as failed/attempted: it is 0 on correct code
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k != "error_ratio" or args.trace == 1}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


def per_layer(plain: Samples, traced: Samples, tracer, root):
    """Per-op layer metrics from the traced phase (raw times), plus the
    tracing overhead at reference speed."""
    metrics = {}
    from workloads import child_env

    env = child_env(root)
    bare = process_ms("pass", root, env)
    imported = process_ms("import wirebox.cli", root, env)
    metrics["cli.interpreter_ms"] = (bare, "ms")
    metrics["cli.import_ms"] = (imported - bare, "ms")
    metrics.update(tracer.layer_metrics(traced.attempted))
    p50_plain = 1000 * statistics.median(plain.scaled(plain.wall_s))
    p50_traced = 1000 * statistics.median(traced.scaled(traced.wall_s))
    metrics["trace.overhead_ms"] = (p50_traced - p50_plain, "ms")
    notes = {"trace.overhead_ms": f"traced op_p50 {p50_traced:.4g} ms over "
                                  f"{traced.attempted} ops, untraced "
                                  f"{p50_plain:.4g} ms over "
                                  f"{plain.attempted} ops"}
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
