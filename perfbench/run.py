#!/usr/bin/env python3
"""Benchmark of pboxes: case studies, scenario files and the oracle campaign.

Run from the root of a checkout:

    python3 perfbench/run.py --workload casestudies --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed``, then starts fresh
interpreters one after another, each a single-client closed loop on one
thread (BLAS pools pinned to 1): set-up, one cold pass, then two warm
passes, until ``--seconds`` have passed.  A calibration kernel is timed in
an interpreter of its own (``calibrate.py``) while each process pauses
before and after its set-up and after each pass; every timed section is
scaled by the kernel times around it.  The outputs of every pass
are checked against the benchmark's own references, outside the timed
sections.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of the
traced ones (see ``tracer.py``), after checking that they reproduce the
untraced outputs exactly.  The last line of standard output is the result
as one JSON object; the lines before it are a readable report.  The
environment, every metric and every failure are also written to
``perfbench/out/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from child import PAUSE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PROCESSES = 5          # per run, however long a process takes
RUN_LIMIT_S = 170.0        # a run must end within 180 s
CALIBRATION_REF_S = 0.06   # calibration kernel time at the reference host speed
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pboxes", "__init__.py")):
        print(f"perfbench: no pboxes sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(why)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    started = time.monotonic()
    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plan = workloads.generate(args.workload, args.seed, run_dir)

    # fresh processes one after another until --seconds have passed; a
    # traced run alternates untraced and traced processes.  Every process
    # still running at the run limit is killed.
    children, running = [], []
    deadline = started + RUN_LIMIT_S
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill, [running])
    watchdog.start()
    try:
        with open(os.path.join(run_dir, "calibrate.stderr"), "w", encoding="utf-8") as err:
            calibrator = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "calibrate.py")], cwd=ROOT, env=_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
        running.append(calibrator)
        measuring = time.monotonic()
        while (time.monotonic() - measuring < args.seconds
               or len(children) < MIN_PROCESSES + args.trace):
            index = len(children)
            child = _run_child(run_dir, index, args.trace and index % 2,
                               calibrator, running, deadline)
            if child is None:
                return 1
            children.append(child)
    finally:
        watchdog.cancel()
        _stop(running)

    untraced = [c for c in children if not c["trace"]]
    traced = [c for c in children if c["trace"]]
    untraced_outputs = {key for c in untraced for key in c["records"]}
    attempted, failed, failures = 0, 0, []
    for child in children:
        for key, count in child["records"].items():
            ops, problems = workloads.check(plan, json.loads(key))
            attempted += ops * count
            where = f"process {child['index']}, {count} passes"
            if child["trace"] and key not in untraced_outputs:
                # every operation of a traced pass that did not reproduce fails
                failed += ops * count
                failures.append(f"{where}: traced outputs differ from the untraced outputs")
            else:
                failed += len(problems) * count
            failures.extend(f"{where}: {p}" for p in problems)
    for child in traced:
        # the tracer's own check that it leaves the program's code paths alone
        attempted += 1
        failed += bool(child["trace_problems"])
        failures.extend(f"process {child['index']}: {p}" for p in child["trace_problems"])

    # times are scaled to a reference host speed: a section around which the
    # calibration kernel took twice CALIBRATION_REF_S ran on a host half as
    # fast, so its time is halved.  The kernel times of a process bracket its
    # set-up, its cold pass and each warm pass in turn.
    for child in children:
        kernel = child["calibration_s"]
        child["speed"] = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(kernel, kernel[1:])]
        child["warm_scaled"] = [t * v for t, v in zip(child["warm_s"], child["speed"][2:])]
    warm = [t for c in untraced for t in c["warm_scaled"]]
    end_to_end = {
        "setup_s": statistics.median(c["setup_s"] * c["speed"][0] for c in untraced),
        "first_pass_s": statistics.median(c["first_pass_s"] * c["speed"][1] for c in untraced),
        "solve_s": statistics.median(warm),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in untraced),
    }
    wall = {
        "setup_s": statistics.median(c["setup_s"] for c in untraced),
        "first_pass_s": statistics.median(c["first_pass_s"] for c in untraced),
        "solve_s": statistics.median(t for c in untraced for t in c["warm_s"]),
        "calibration_s": statistics.median(t for c in untraced for t in c["calibration_s"]),
    }
    environment = _environment(args.seed, children[0]["versions"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why[args.workload], "environment": environment,
        "attempted": attempted, "failed": failed, "failed_frac": failed / max(attempted, 1),
        "failures": failures, "end_to_end": end_to_end, "unscaled_wall": wall,
        "samples": {"processes": len(untraced), "warm_passes": len(warm)},
        "processes": [{key: c[key] for key in (
            "index", "trace", "calibration_s", "speed", "setup_s", "first_pass_s",
            "warm_s", "rss_mb")} for c in children],
    }

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {why[args.workload]}")
    print("# environment " + json.dumps(environment, sort_keys=True))
    print(f"# setup_s {end_to_end['setup_s']:.4f} s, first_pass_s "
          f"{end_to_end['first_pass_s']:.4f} s (medians of {len(untraced)} processes)")
    print(f"# solve_s {end_to_end['solve_s']:.4f} s (median of {len(warm)} warm passes; "
          f"quartiles {_quartiles(warm)})")
    print(f"# peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MB")
    print("# unscaled wall medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in wall.items()))
    print(f"# failed_frac {report['failed_frac']:g} ({failed} of {attempted} operations)")
    for line in failures[:20]:
        print(f"# FAILED {line}")

    if args.trace:
        import tracer
        for child in traced:
            child["spans"] = tracer.read_spans(child["spans_file"])
        per_layer, unavailable = tracer.derive(traced, warm)
        report["per_layer"] = per_layer
        report["unavailable"] = unavailable
        report["hooks"] = traced[0]["hooks"]
        for metric in bench["per_layer"]:
            name = metric["name"]
            shown = ("unavailable" if name in unavailable
                     else f"{per_layer[name]:.6g} {metric['unit']}")
            print(f"# {name} {shown}")
        # the result line needs a number for every metric; an unavailable
        # layer reads 0 there and is named in the report above
        values = {name: 0.0 if name in unavailable else value
                  for name, value in per_layer.items()}
        listed = bench["per_layer"]
    else:
        values, listed = end_to_end, bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _run_child(run_dir, index, trace, calibrator, running, deadline):
    """Run one benchmark process, timing the kernel at each of its pauses.

    Returns the process's result with ``calibration_s``, the kernel time at
    each pause, or None on failure.
    """
    out = os.path.join(run_dir, f"process-{index}.json")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--plan", os.path.join(run_dir, "plan.json"),
               "--trace", str(trace), "--out", out]
    calibration = []
    with open(out + ".stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(command, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        running.append(proc)
        try:
            for line in proc.stdout:
                if line.rstrip("\n") != PAUSE:
                    continue
                calibration.append(_kernel(calibrator))
                if calibration[-1] is None:
                    break
                proc.stdin.write("\n")
                proc.stdin.flush()
        except OSError:
            pass  # the process has gone; its exit code says why
        _stop([proc])
        running.remove(proc)
        err.seek(0)
        if time.monotonic() >= deadline:
            print(f"perfbench: process {index} did not finish within the run limit",
                  file=sys.stderr)
            return None
        if None in calibration:
            print("perfbench: the calibration kernel failed", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: process {index} exited with {proc.returncode}\n{err.read()}",
                  file=sys.stderr)
            return None
    with open(out, encoding="utf-8") as handle:
        child = json.load(handle)
    if len(calibration) != len(child["warm_s"]) + 3:
        print(f"perfbench: process {index} paused {len(calibration)} times, "
              f"expected {len(child['warm_s']) + 3}", file=sys.stderr)
        return None
    child["index"] = index
    child["calibration_s"] = calibration
    return child


def _kernel(calibrator):
    """One calibration kernel time from ``calibrate.py``, or None on failure."""
    try:
        calibrator.stdin.write("\n")
        calibrator.stdin.flush()
        return float(calibrator.stdout.readline())
    except (OSError, ValueError):
        return None


def _stop(processes):
    """End the processes: they exit at the end of their input, or are killed."""
    for proc in list(processes):
        with contextlib.suppress(OSError):
            proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _kill(processes):
    for proc in list(processes):
        proc.kill()


def _env():
    """The environment of every process a run starts: BLAS pinned, sources on the path."""
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def _quartiles(values):
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}-{q3:.4f} s"


def _environment(seed, versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas_threads": BLAS_PIN["OMP_NUM_THREADS"],
        "seed": seed,
    }


if __name__ == "__main__":
    sys.exit(main())
