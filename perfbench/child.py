"""Child entry point for the benchmark's query processes.

    python3 perfbench/child.py cli [--speed F | --trace F | --profile F] [--query N] -- ARGV...
        Run ``modulimotives.cli.main(ARGV)`` in this fresh process, as
        ``python -m modulimotives ARGV`` would.

    python3 perfbench/child.py pairs [--trace F | --profile F] [--budget S]
        Serve the pair-stream queries read as JSON from stdin in one library
        session and print one JSON list of ``[wall_s, cpu_s, sha256, error,
        scale]`` per query served, where ``scale`` turns the query's times
        into reference seconds (see ``speed.py``).  Stops starting queries
        after ``--budget`` seconds.

``--speed F`` samples the host speed while the query runs and writes the
samples to F; ``--trace F`` installs the layer wrappers first and writes
their report to F; ``--profile F`` runs under cProfile instead and writes
its call counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import speed
from tracer import Tracer, add_src_to_path, profile_counts


SPEED_WINDOW = 3


def serve_pairs(queries: list, budget: float, tracer: Tracer | None) -> list:
    import hashlib

    from modulimotives import cli, pairs

    results = []
    marks = [speed.sample()]  # marks[n] just before query n, marks[n + 1] just after
    started = time.perf_counter()
    for qid, (g, e, i, route, fmt, sigma) in enumerate(queries):
        if time.perf_counter() - started >= budget:
            break
        if tracer is not None:
            tracer.query = qid
        t0, c0 = time.perf_counter(), time.process_time()
        text = error = None
        try:
            index = i if sigma is None else pairs.chamber_of(Fraction(sigma), e)
            spec = pairs.ChamberSpec(g=g, e=e, i=index)
            text = cli.render_class(getattr(pairs, "pair_motive_" + route)(spec), fmt)
        except Exception as exc:  # a failed query is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = None if text is None else hashlib.sha256(text.encode()).hexdigest()
        marks.append(speed.sample())
        results.append([wall, cpu, digest, error])
    # One sample is a fraction of a millisecond, so each query's speed is
    # taken from the SPEED_WINDOW samples on either side of it.
    for n, row in enumerate(results):
        row.append(speed.scale(marks[max(n + 1 - SPEED_WINDOW, 0) : n + 1 + SPEED_WINDOW]))
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "pairs"))
    instrument = parser.add_mutually_exclusive_group()
    instrument.add_argument("--speed")
    instrument.add_argument("--trace")
    instrument.add_argument("--profile")
    parser.add_argument("--query", type=int)
    parser.add_argument("--budget", type=float, default=float("inf"))
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1 :]
    args = parser.parse_args(own)

    sampler = None
    if args.speed:
        sampler = speed.Sampler()
        sampler.start()
    add_src_to_path()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.query = args.query
    from modulimotives import cli

    profiler = None
    if args.profile:
        # Imported only here, like hashlib above, so that a measured CLI
        # query's peak RSS is that of ``python -m modulimotives``.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.mode == "cli":
            rc = cli.main(cli_argv)
        else:
            results = serve_pairs(json.load(sys.stdin), args.budget, tracer)
            rc = 0
    finally:
        if profiler is not None:
            profiler.disable()
    if args.mode == "pairs":
        print(json.dumps(results))
    sys.stdout.flush()
    if sampler is not None:
        with open(args.speed, "w") as fh:
            json.dump(sampler.stop(), fh)
    if tracer is not None:
        with open(args.trace, "w") as fh:
            json.dump(tracer.report(), fh)
    if profiler is not None:
        with open(args.profile, "w") as fh:
            json.dump(profile_counts(profiler), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
