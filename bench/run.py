"""Audit benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload f2-dual-sweep --seed 1 --seconds 20 \
        --trace 0

Set-up (imports, catalog and family loading, drawing the sample, any
precomputation) is timed several times and reported as setup_s, the median
import time (this process and fresh child interpreters) plus the median time
of the rest.
Then whole passes over the sample are repeated while the next one is
expected to end within --seconds (at least one); wall_s is their median.
Every item's verdict is checked against bench/reference.json.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 one more set-up and pass run under the tracer (bench/tracing.py)
and the last line carries the per-layer metrics instead, including
trace.overhead_s, the traced minus the untraced pass time.  Earlier stdout
lines (prefixed "#") give every metric with its unit, fail_share, the
stated input size and the environment.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one thread per run: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    REFERENCE_PATH,
    ROOT,
    MissingLibrary,
    load_library,
)

#: set-up is repeated this many times in a run; setup_s is the median
SETUP_REPEATS = 3

#: what a fresh process imports before set-up, timed in child processes
#: for the repeats after the first (argv[1] is the bench directory)
IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
from common import load_library
load_library()
import workloads
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")}}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_times(first: float) -> list:
    """This process's import time and SETUP_REPEATS - 1 more, each from a
    fresh child interpreter, since imports happen once per process."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                               str(BENCH_DIR)], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def timed_passes(lib, ref, run_pass, items, seed, seconds):
    """Whole passes while the next is expected to end within the window."""
    walls, outcomes = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes.append(run_pass(lib, ref, items, seed))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            return walls, outcomes


def main(argv=None) -> int:
    try:
        lib = load_library()
        import numpy as np
        from workloads import WORKLOADS
    except MissingLibrary as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    args = parse_args(argv, WORKLOADS)
    try:
        ref = json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read the reference: {err}", file=sys.stderr)
        return 2
    _, setup, run_pass = WORKLOADS[args.workload]

    imports = import_times(import_s)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items, size = setup(lib, ref, args.seed)
        setups.append(time.perf_counter() - t0)
    walls, outcomes = timed_passes(lib, ref, run_pass, items, args.seed,
                                   args.seconds)
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report, units = metrics, END_TO_END_UNITS
    if args.trace:
        from tracing import PER_LAYER_UNITS, Tracer
        tracer = Tracer()
        tracer.install(lib)
        try:
            items, _ = tracer.span("setup", setup, lib, ref, args.seed)
            t0 = time.perf_counter()
            outcomes.append(tracer.span("pass", run_pass, lib, ref, items,
                                        args.seed))
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
        report = tracer.per_layer(traced_wall - wall_s)
        units = PER_LAYER_UNITS

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "passes": len(walls),
            "pass_walls_s": walls, "setups_s": setups,
            "imports_s": imports, "input_size": size,
            "environment": environment(np)}
    print("# info " + json.dumps(info, sort_keys=True))
    for f in failures[:20]:
        print("# FAILED " + f)
    for name, value in {**metrics, **report}.items():
        print(f"# {name} = {value!r} {(END_TO_END_UNITS | units)[name]}")
    print(f"# fail_share = {len(failures) / attempted!r} share "
          f"({len(failures)} of {attempted} items)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
