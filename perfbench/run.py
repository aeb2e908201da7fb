"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is loaded
from its ``src/`` tree.  Workloads are described in ``workloads.py``; which
layer metric should move which end-to-end metric, on which workload, is in
``interactions.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
repeated SETUP_REPEATS times and its median reported.  Then whole passes of
the workload's queries repeat for ``--seconds`` (at least one full pass; a
pass in progress stops before a query that would end after the deadline).
Every query's wall and CPU time is scaled to reference seconds by the host
speed sampled while it ran (``speed.py``), so that the figures do not move
with other tenants' load.  Each query's time is the median of these over
the run's repetitions of it; ``wall_s`` and ``cpu_s`` sum them over one
pass, and the latency percentiles are taken over them.  The raw sums are
printed beside them.

``--trace 1`` runs one untraced pass, then one traced pass whose children
install the wrappers of ``tracer.py``, and reports the per-layer metrics and
``trace.overhead_s``.  The spans are written to
``.perfbench/spans-<workload>-<seed>.json``.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS, load_reference, scratch_dir, warm_up

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

# Wrapped functions (named as in tracer.POINTS) and the stats reported for each.
_SPAN_STATS = (
    ("polyring.intpoly_new", ("calls", "self_s")),
    ("polyring.intpoly_mul", ("calls", "self_s")),
    ("polyring.intpoly_add", ("calls", "self_s")),
    ("polyring.exact_div", ("calls", "self_s")),
    ("polyring.bipoly_new", ("calls", "self_s")),
    ("polyring.bipoly_mul", ("calls", "self_s")),
    ("polyring.bipoly_add", ("calls", "self_s")),
    ("motive.class_new", ("calls", "self_s")),
    ("motive.class_mul", ("calls", "self_s")),
    ("motive.class_add", ("calls", "self_s")),
    ("motive.hodge_realization", ("calls", "self_s", "total_s")),
    ("motive.sym_curve", ("total_s",)),
    ("pairs.pair_motive_flip", ("calls", "total_s")),
    ("pairs.pair_motive_sym", ("total_s",)),
    ("pairs.pair_motive_geo", ("total_s",)),
    ("pairs.sym_coeff_poly", ("calls", "total_s")),
    ("bundles.bundle_motive", ("total_s",)),
    ("bundles.bundle_motive_fixed_det", ("total_s",)),
    ("higgs.fixed_locus_bundles", ("total_s",)),
    ("higgs.fixed_locus_111", ("calls", "total_s")),
    ("higgs.fixed_locus_12", ("total_s",)),
    ("higgs.fixed_locus_21", ("total_s",)),
    ("higgs.higgs_motive", ("self_s",)),
    ("higgs.higgs_motive_mod_jac", ("self_s",)),
    ("higgs.audit_fixed_loci", ("total_s",)),
    ("verify.route_agreement", ("total_s", "checks")),
    ("verify.symmetric_power_identity", ("total_s", "checks")),
    ("verify.positivity", ("total_s", "checks")),
    ("verify.duality", ("total_s", "checks")),
    ("verify.degree_independence", ("total_s", "checks")),
    ("verify.twist_audit", ("total_s", "checks")),
    ("cli.render_class", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)
# Every lru_cache of the package at the time the benchmark was defined; the
# traced run also prints any other cache it finds.
CACHES = (
    "motive.sym_curve",
    "motive.jacobian",
    "motive.sym_h1_hodge_poly",
    "pairs.pair_motive_flip",
    "pairs.pair_motive_sym",
    "pairs.pair_motive_geo",
    "bundles._fixed_det_motive",
    "higgs.higgs_motive",
    "higgs.higgs_motive_mod_jac",
)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "checks": "count"}
PER_LAYER = {
    f"{name}.{stat}": _UNITS[stat] for name, stats in _SPAN_STATS for stat in stats
}
for _cache in CACHES:
    PER_LAYER[f"{_cache}.hit_ratio"] = "ratio"
    PER_LAYER[f"{_cache}.lookups"] = "count"
PER_LAYER["trace.overhead_s"] = "s"


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def query_medians(samples: list, value) -> list:
    """Each query's median ``value(sample)`` over the run's repetitions."""
    by_index: dict[int, list] = {}
    for s in samples:
        by_index.setdefault(s.index, []).append(value(s))
    return [statistics.median(v) for v in by_index.values()]


def set_up(workload, seed: int) -> tuple:
    """Load the reference, warm up (golden checks) and generate the inputs."""
    reference = load_reference()
    golden_errors = warm_up(reference)
    queries = workload.queries(seed, reference)
    return reference, queries, golden_errors


def end_to_end(workload, seed: int, seconds: int):
    setup_times, golden_errors = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        reference, queries, errors = set_up(workload, seed)
        setup_times.append(time.perf_counter() - start)
        golden_errors += errors

    deadline = time.perf_counter() + seconds
    samples = workload.run_pass(queries)
    expected = {s.index: s.wall for s in samples}
    passes = 1
    while time.perf_counter() < deadline:
        more = workload.run_pass(queries, deadline, expected=expected)
        if not more:
            break
        samples += more
        passes += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    attempted = sum(s.ops for s in samples)
    failed = sum(s.ops for s in samples if not s.ok)
    latencies = query_medians(samples, lambda s: s.wall * s.scale)
    wall = sum(latencies)
    pass_ops = sum(q.ops for q in queries)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": sum(query_medians(samples, lambda s: s.cpu * s.scale)),
        "peak_rss_mb": peak_rss_kb / 1024,
        "ops_per_s": pass_ops * (attempted - failed) / attempted / wall,
        "query_p50_ms": percentile(latencies, 50) * 1000,
        "query_p99_ms": percentile(latencies, 99) * 1000,
    }
    notes = [
        f"set-ups: {len(setup_times)}; passes started: {passes}; "
        f"queries per pass: {len(queries)}; ops per pass: {pass_ops}",
        f"latency samples: {len(samples)} over {len(latencies)} distinct queries; "
        "percentiles are over each query's median",
        f"raw (unscaled) wall_s {sum(query_medians(samples, lambda s: s.wall)):.4f} s, "
        f"cpu_s {sum(query_medians(samples, lambda s: s.cpu)):.4f} s; median host speed "
        f"scale {statistics.median(s.scale for s in samples):.4f}",
    ]
    if workload.name == "pair-stream":
        notes.append(
            f"pair universe: {reference['pair_universe']} admissible (chamber, route) "
            f"pairs; sample: {len(queries)} without replacement, stratified by (genus, route)"
        )
    return metrics, samples, golden_errors, notes


def merge_reports(paths: list) -> dict:
    """Sum the children's counters; concatenate their spans."""
    merged: dict = {"stats": {}, "checks": {}, "caches": {}, "under": {}, "spans": []}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for key in ("stats", "caches"):
            for name, values in report[key].items():
                old = merged[key].setdefault(name, [0] * len(values))
                merged[key][name] = [a + b for a, b in zip(old, values)]
        for name, n in report["checks"].items():
            merged["checks"][name] = merged["checks"].get(name, 0) + n
        for name, layers in report["under"].items():
            into = merged["under"].setdefault(name, {})
            for layer, self_s in layers.items():
                into[layer] = into.get(layer, 0.0) + self_s
        merged["spans"].extend(report["spans"])
        merged["code"] = report["code"]
    return merged


def instrumented_pass(workload, queries: list, tmp: Path, option: str) -> tuple:
    """One full pass whose children run with ``--trace`` or ``--profile``.

    Returns the samples and the paths of the files the children wrote.
    """
    paths: list = []

    def instrument(index: int) -> list:
        paths.append(str(tmp / f"{option.strip('-')}-{len(paths)}.json"))
        return [option, paths[-1]]

    samples = workload.run_pass(queries, None, instrument)
    return samples, [p for p in paths if Path(p).exists()]


def layer_metrics(report: dict) -> dict:
    metrics = {}
    for name, stats in _SPAN_STATS:
        calls, total, self_s = report["stats"].get(name, [0, 0.0, 0.0])
        values = {"calls": calls, "total_s": total, "self_s": self_s}
        values["checks"] = report["checks"].get(name, 0)
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
    for name in CACHES:
        hits, misses = report["caches"].get(name, [0, 0])
        metrics[f"{name}.lookups"] = hits + misses
        metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def traced(workload, seed: int):
    reference, queries, golden_errors = set_up(workload, seed)
    untraced = workload.run_pass(queries)
    out_dir = scratch_dir()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        samples, paths = instrumented_pass(workload, queries, Path(tmp), "--trace")
        report = merge_reports(paths)
    metrics = layer_metrics(report)
    metrics["trace.overhead_s"] = sum(s.wall for s in samples) - sum(s.wall for s in untraced)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.json"
    with open(spans_path, "w") as fh:
        fields = ["id", "name", "start", "end", "parent", "query"]
        json.dump({"fields": fields, "spans": report["spans"]}, fh)
    notes = [f"{len(report['spans'])} spans written to {spans_path.relative_to(ROOT)}"]
    for name, layers in report["under"].items():
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        if top:
            where = ", ".join(f"{layer} {self_s:.3f} s" for layer, self_s in top)
            notes.append(f"{name} self time by enclosing span: {where}")
    for name, (hits, misses) in sorted(report["caches"].items()):
        base = hits + misses
        ratio = f"{hits / base:.4f}" if base else "n/a"
        notes.append(f"cache {name}: hit ratio {ratio} over {base} lookups")
    return metrics, untraced + samples, golden_errors, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "modulimotives" / "__init__.py").is_file():
        print(f"error: no modulimotives package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, samples, golden_errors, notes = traced(workload, args.seed)
        units = PER_LAYER
    else:
        metrics, samples, golden_errors, notes = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END

    attempted = sum(s.ops for s in samples) + len(golden_errors)
    failed = sum(s.ops for s in samples if not s.ok) + sum(e is not None for e in golden_errors)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<44} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    errors = [e for e in golden_errors if e] + [s.error for s in samples if not s.ok]
    for error in errors[:5]:
        print(f"  failure: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
