"""The benchmark's own checks; run from the root of a checkout:

    python3 bench/selfcheck.py            # all four workloads, ~6 minutes
    python3 bench/selfcheck.py chart-coverage

1. The recorded reference reproduces the audit fingerprint.
2. Sampling is seeded and stratified: the same seed draws the same sample,
   another seed a different one of the same size; f2-dual-sweep draws every
   operator kind, chart-coverage draws heavy and light charts split by their
   reference point count.
3. Two traced runs of one seed give exactly the same counts.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, REFERENCE_PATH, ROOT, load_library
from record_reference import Mismatch, check_fingerprint
from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS, draw_chart, draw_f2

#: per-layer metrics derived from counts only, so exactly repeatable
EXACT_UNITS = ("count", "bytes", "ratio")
RUN_TIMEOUT_S = 300


def check(ok: bool, what: str, failures: list):
    print(("ok     " if ok else "FAILED ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_sampling(ref, failures):
    for name, (draw, _, _) in WORKLOADS.items():
        a, a2, b = draw(ref, 1), draw(ref, 1), draw(ref, 2)
        # chart-coverage draws a (heavy, light) pair of lists
        parts_a, parts_b = (a, b) if isinstance(a, tuple) else ([a], [b])
        same_size = [len(x) for x in parts_a] == [len(x) for x in parts_b]
        check(a == a2 and a != b and same_size,
              f"{name}: seeded sample, different but same-sized for "
              f"another seed", failures)
    kinds = {k.rsplit("/", 1)[1] for k in draw_f2(ref, 3)}
    check(len(kinds) == 4, "f2-dual-sweep draws every operator kind",
          failures)
    heavy, light = draw_chart(ref, 3)
    points = ref["coverage"]
    check(min(points[k]["points"] for k in heavy)
          >= max(points[k]["points"] for k in light),
          "chart-coverage draws heavy and light charts by point count",
          failures)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: {proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if PER_LAYER_UNITS[k] in EXACT_UNITS}


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    lib = load_library()
    ref = json.loads(REFERENCE_PATH.read_text())
    failures = []
    try:
        check_fingerprint(ref, lib)
        check(True, "reference reproduces the audit fingerprint", failures)
    except Mismatch as err:
        check(False, f"reference fingerprint: {err}", failures)
    check_sampling(ref, failures)
    for name in names:
        first, second = traced_counts(name, 7), traced_counts(name, 7)
        differ = sorted(k for k in first if first[k] != second[k])
        check(not differ, f"{name}: counts repeat across traced runs"
              + (f" (differ: {differ})" if differ else ""), failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
