"""saddlebvp benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {newton-scale,eg-stiff,study} --seed N
                             --seconds S --trace {0,1}

Untraced runs (``--trace 0``) warm up once, then start six worker processes
in turn; each imports the library and runs fresh instances of the workload
within a sixth of ``S`` seconds.  Set-up (import plus median problem
assembly) and peak memory are medians over the processes; instance time and
CPU time are means over every instance of the run without its fastest and
slowest tenth.  On a shared 2-CPU machine a process's speed is set largely
when it starts, so more processes, not more instances per process, make a
run steady.  Traced runs (``--trace 1``) alternate a plain and a traced
process on instance 0 for ``S`` seconds and report per-layer metrics from
the traced ones; their counts must repeat exactly.  Every instance's outputs
are checked; an instance whose outputs fail counts as failed, not as a
timing, and every attempted start is an operation: one that fails to
converge counts as failed.

The last line of standard output is the result object; the line before it
holds the full report: environment, seeds, every instance's figures and,
for traced runs, every ``linalg`` function the library called.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

PROCESSES = 6        # set-up and peak memory are one sample per process
# Every worker ends by ``S`` seconds plus this margin after the start: it
# covers the warm-up, a process start per worker and the one instance a
# worker may run past its share of ``S``.
MARGIN_S = 120.0
COUNT_METRICS = ("solvers.starts", "solvers.starts_converged", "solvers.iterations",
                 "cli.output_bytes")


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _worker(workload, seed, first_index, workdir, deadline, budget=0.0, trace_file=None):
    """Run instances in a fresh process; ``None`` if it crashed or ran past the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--first-index", str(first_index), "--dir", workdir,
           "--budget", repr(budget)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker for instance {first_index} ran past the deadline\n")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _is_count(name):
    return name.endswith(".calls") or name in COUNT_METRICS


def trimmed_mean(values):
    """Mean without the fastest and slowest tenth (rounded up) of the values."""
    values = sorted(values)
    k = math.ceil(len(values) / 10) if len(values) >= 3 else 0
    return statistics.fmean(values[k:len(values) - k])


def _good(instances):
    return [r for r in instances if not r["problems"]]


def run_untraced(workload, seed, seconds, rundir, deadline):
    """Warm up, then ``PROCESSES`` workers that each run instances for their share of the time."""
    _worker(workload, seed, -1, os.path.join(rundir, "warmup"), deadline)
    return [_worker(workload, seed, 1000 * p, os.path.join(rundir, f"p{p}"), deadline,
                    budget=seconds / PROCESSES)
            for p in range(PROCESSES)]


def run_traced(workload, seed, seconds, rundir, deadline):
    """Alternate plain and traced workers on instance 0 for ``seconds``."""
    _worker(workload, seed, -1, os.path.join(rundir, "warmup"), deadline)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        rep = len(traced)
        plain.append(_worker(workload, seed, 0, os.path.join(rundir, f"u{rep}"), deadline))
        trace_file = os.path.join(WORK, "traces", f"{workload}-seed{seed}-rep{rep}.json")
        traced.append(_worker(workload, seed, 0, os.path.join(rundir, f"t{rep}"), deadline,
                              trace_file=trace_file))
    return plain, traced


def end_to_end_metrics(workers):
    """Samples: set-up and peak memory per process, times per instance."""
    samples = {"setup_s": [], "time_to_solution_s": [], "cpu_s": [], "peak_rss_mb": []}
    for w in workers:
        good = _good(w["instances"])
        if not good:
            continue
        samples["setup_s"].append(w["import_s"] + statistics.median(r["assembly_s"] for r in good))
        samples["peak_rss_mb"].append(w["peak_rss_mb"])
        for r in good:
            samples["time_to_solution_s"].append(r["time_to_solution_s"])
            samples["cpu_s"].append(r["cpu_s"])
    return samples


def layer_metrics(plain, traced):
    """Per-layer metrics of the traced instance; counts must agree across repeats."""
    problems = []
    runs = [w["instances"][0] for w in traced]
    layers = {}
    for name in runs[0]["layers"]:
        values = [r["layers"][name] for r in runs]
        if _is_count(name):
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced repeats: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    plain_s = statistics.median(w["instances"][0]["time_to_solution_s"] for w in plain)
    traced_s = statistics.median(r["time_to_solution_s"] for r in runs)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return layers, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="saddlebvp benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "saddlebvp", "cli.py")):
        sys.stderr.write("no saddlebvp source under src/: run from the root of a checkout\n")
        return 2
    end_to_end, per_layer, names = _load_spec()
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {names}\n")
        return 2

    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    deadline = time.perf_counter() + args.seconds + MARGIN_S
    try:
        if args.trace:
            plain, traced = run_traced(args.workload, args.seed, args.seconds, rundir, deadline)
            workers = plain + traced
        else:
            workers = run_untraced(args.workload, args.seed, args.seconds, rundir, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    instances = [r for w in workers if w is not None for r in w["instances"]]
    crashed = sum(w is None for w in workers)
    attempted = sum(r["commands"] + r["starts"] for r in instances) + crashed
    failed = sum(r["failed"] + r["failed_starts"] for r in instances) + crashed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
        "environment": next((w["environment"] for w in workers
                             if w is not None and "environment" in w), None),
        "workers": workers,
    }
    if args.trace:
        plain = [w for w in plain if w is not None and _good(w["instances"])]
        traced = [w for w in traced if w is not None and _good(w["instances"])]
        if not plain or not traced:
            sys.stderr.write("no traced instance produced correct outputs\n")
            print(json.dumps({"report": report}))
            return 1
        layers, problems = layer_metrics(plain, traced)
        failed += len(problems)
        report["layers"], report["problems"] = layers, problems
        metrics = {name: {"value": layers.get(name, 0 if _is_count(name) else 0.0), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        samples = end_to_end_metrics([w for w in workers if w is not None])
        if not samples["setup_s"]:
            sys.stderr.write("no instance produced correct outputs\n")
            print(json.dumps({"report": report}))
            return 1
        report["samples"] = samples
        per_process = ("setup_s", "peak_rss_mb")
        metrics = {name: {"value": statistics.median(samples[name]) if name in per_process
                          else trimmed_mean(samples[name]), "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
