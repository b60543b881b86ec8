"""Run workload instances in a fresh process and print their measurements.

Usage: python3 perfbench/worker.py --workload W --seed S --first-index I
       --dir D [--budget SECONDS] [--trace-file PATH]

The process imports saddlebvp from ``src/`` first, so the import counts in
set-up exactly as a user pays it.  For each instance it then writes the
input files into a directory under ``D``, runs the CLI commands in-process
through ``saddlebvp.cli.main`` with that directory as working directory,
and checks the outputs.  Every saddle set's attempted and failed starts
are counted; a failed start is a failed operation.  It prints one JSON
object as its last line, with the machine and library facts that bear on
the timings.
``ru_maxrss`` never falls within a process, so peak memory is one figure per
process.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import saddlebvp.cli  # noqa: F401  (the import is what is timed)
    return time.perf_counter() - t0


def environment():
    """Machine, interpreter, library and BLAS facts that bear on the timings."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = fn()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "SADDLEBVP_THREADS": os.environ.get("SADDLEBVP_THREADS"),
    }


def run_instance(inst, main, workdir, setup, starts):
    """Write the instance's inputs, run its commands and check what they wrote."""
    from perfbench import check

    os.makedirs(workdir)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for name, obj in inst.files.items():
            with open(name, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        inputs = set(os.listdir("."))
        setup_wall, setup_cpu = setup.wall, setup.cpu
        attempts0, failures0 = starts.attempts, starts.failures
        codes, command_s = [], []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in inst.commands:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(list(argv)))
            command_s.append(time.perf_counter() - t0)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        assembly_wall = setup.wall - setup_wall
        assembly_cpu = setup.cpu - setup_cpu
        attempts = starts.attempts - attempts0
        failed_starts = starts.failures - failures0

        problems, reps, unverified, failed = [], 0, 0, 0
        for argv, code in zip(inst.commands, codes):
            prefix = argv[argv.index("--out") + 1]
            before = len(problems)
            try:
                if argv[0] == "solve":
                    n, bad = check.check_solve(inst, prefix, code, problems)
                    reps += n
                    unverified += bad
                elif argv[0] == "check":
                    check.check_check(prefix, code, problems)
                elif argv[0] == "sweep":
                    check.check_sweep(prefix, code, problems)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{prefix}: unreadable output ({type(exc).__name__}: {exc})")
            failed += len(problems) > before
        output_bytes = sum(os.path.getsize(f) for f in os.listdir(".") if f not in inputs)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "cli_seed": inst.cli_seed, "commands": len(codes), "failed": failed,
        "exit_codes": codes, "command_s": command_s, "problems": problems,
        "starts": attempts, "failed_starts": failed_starts, "representatives": reps,
        "unverified": unverified, "output_bytes": output_bytes,
        "assembly_s": assembly_wall,
        "time_to_solution_s": wall - assembly_wall,
        "cpu_s": cpu - assembly_cpu,
    }


def run(workload, seed, first_index, budget, workdir, trace_file=None):
    """Run instances ``first_index, first_index + 1, ...`` within ``budget`` seconds (at least one).

    With ``trace_file`` exactly one instance runs, traced, and its spans are
    written there.
    """
    import_s = _import_library()
    import saddlebvp.cli as cli

    sys.path.insert(0, ROOT)
    from perfbench import workloads
    from perfbench.tracing import SetupClock, StartCounter, Tracer

    out = {"workload": workload, "seed": seed, "import_s": import_s, "instances": []}
    tracer = None
    main = cli.main
    if trace_file is not None:
        tracer = Tracer(run_id=f"{workload}:{seed}:{first_index}")
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    setup = SetupClock()
    setup.install()
    starts = StartCounter()
    starts.install()
    start = time.perf_counter()
    index = first_index
    # Start another instance only if it is expected to finish within the budget.
    while not out["instances"] or (tracer is None and (time.perf_counter() - start) * (
            1 + 1 / len(out["instances"])) <= budget):
        inst = workloads.make_instance(workload, seed, index)
        result = run_instance(inst, main, os.path.join(workdir, f"i{index}"), setup, starts)
        result["index"] = index
        out["instances"].append(result)
        index += 1
    if tracer is not None:
        result = out["instances"][0]
        result["layers"] = tracer.metrics()
        result["layers"]["cli.output_bytes"] = result["output_bytes"]
        result["layers"]["unverified_frac"] = result["unverified"] / result["representatives"]
        result["layers"]["start_fail_frac"] = (starts.failures / starts.attempts
                                               if starts.attempts else 0.0)
        converged = starts.attempts - starts.failures
        result["layers"]["solvers.reps_per_converged"] = (starts.representatives / converged
                                                          if converged else 0.0)
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-index", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds to keep running further instances")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace-file", default=None,
                        help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    trace_file = os.path.abspath(args.trace_file) if args.trace_file else None
    result = run(args.workload, args.seed, args.first_index, args.budget,
                 os.path.abspath(args.dir), trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
