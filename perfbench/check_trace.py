"""Check that the tracer misses no call and counts deterministically.

    python3 perfbench/check_trace.py --workload NAME --seed N

Runs one full pass of the workload traced, a second one traced, and a third
under cProfile without the wrappers.  Exits 0 only when

* the two traced passes give identical call counts, sweep check counts and
  cache statistics, and
* every wrapped function's call count equals cProfile's ``ncalls`` for its
  code.  cProfile does not see ``lru_cache`` hits, so for a cached function
  its cache misses are compared instead, and the wrapper's call count must
  equal the cache's lookups (a call that bypassed the wrapper would still
  be a lookup).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import instrumented_pass, merge_reports, set_up
from workloads import WORKLOADS, scratch_dir


def counts(report: dict) -> dict:
    return {
        "calls": {name: stat[0] for name, stat in report["stats"].items()},
        "checks": report["checks"],
        "caches": report["caches"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    _, queries, _ = set_up(workload, args.seed)
    reports = []
    with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
        for run in range(2):
            run_dir = Path(tmp) / str(run)
            run_dir.mkdir()
            samples, paths = instrumented_pass(workload, queries, run_dir, "--trace")
            reports.append(merge_reports(paths))
        samples, paths = instrumented_pass(workload, queries, Path(tmp), "--profile")
        profile: dict = {}
        for path in paths:
            with open(path) as fh:
                for key, n in json.load(fh).items():
                    profile[key] = profile.get(key, 0) + n

    ok = True
    first, second = counts(reports[0]), counts(reports[1])
    if first != second:
        ok = False
        print("traced passes differ:")
        for kind in first:
            for name in sorted(set(first[kind]) | set(second[kind])):
                a, b = first[kind].get(name), second[kind].get(name)
                if a != b:
                    print(f"  {kind} {name}: {a} != {b}")
    else:
        print("two traced passes: identical counts")

    report = reports[0]
    print(f"{'wrapped function':<36} {'traced':>10} {'cProfile':>10}")
    for name, (calls, _, _) in report["stats"].items():
        profiled = profile.get(report["code"][name], 0)
        if name in report["caches"]:
            hits, misses = report["caches"][name]
            good = misses == profiled and calls == hits + misses
            row = f"{name + ' (misses)':<36} {misses:>10} {profiled:>10}"
            row += f"  wrapper calls {calls}, cache lookups {hits + misses}"
        else:
            good = calls == profiled
            row = f"{name:<36} {calls:>10} {profiled:>10}"
        ok = ok and good
        print(row + ("" if good else "  MISMATCH"))
    print("trace check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
