"""The three benchmark workloads: their inputs and how one pass runs.

Every workload is a closed loop with one client: the next query starts when
the previous one has returned, and at most one child process runs at a time.

* ``higgs-ladder``: ``higgs --genus g`` for g = 2..HIGGS_MAX_GENUS, once as a
  ``diamond-json`` query and once as a ``--mod-jac class-json`` query, in a
  seed-shuffled order with seed-drawn degrees coprime to 3.  Each query is a
  fresh ``python -m modulimotives`` process, so no cache survives between
  queries: the cost a command-line user pays.
* ``pair-stream``: PAIR_SAMPLE (chamber, route) queries sampled without
  replacement from every admissible pair for g <= PAIR_MAX_GENUS, in
  proportion to each (genus, route) stratum, served by
  one library process whose caches start empty.  Half select the chamber by
  an exact rational sigma strictly inside it; each of the four output
  formats serves a quarter of them, in seed-shuffled order.
* ``verify-sweep``: ``verify --suite S --max-genus VERIFY_MAX_GENUS`` for each
  suite, each in a fresh process.  Deterministic: the seed is unused.

Every output is compared byte for byte (by SHA-256) with ``reference.json``;
a mismatch, an exception or a non-zero exit is a failed query.

Each query also records the host speed while it ran (see ``speed.py``) as
the factor ``scale`` that turns its times into reference seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HIGGS_MAX_GENUS = 9
PAIR_MAX_GENUS = 8
PAIR_SAMPLE = 1000
VERIFY_SUITES = ("identities", "positivity", "duality", "degree-independence", "audit")
VERIFY_MAX_GENUS = 6
FORMATS = ("class-json", "poincare", "diamond-text", "diamond-json")
# A query that runs longer than this is killed and counted as failed, so a
# hung query cannot hang the run.
QUERY_TIMEOUT_S = 150
# Warm-up queries run in set-up: they compile the package's bytecode after a
# code change and check the two golden Hodge diamonds as exact matrices.
GOLDEN_QUERIES = (
    (["higgs", "--genus", "2", "--degree", "1", "--format", "diamond-json"], "genus2_higgs"),
    (
        ["higgs", "--genus", "3", "--degree", "1", "--mod-jac", "--format", "diamond-json"],
        "genus3_higgs_mod_jac",
    ),
)


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Sample:
    """One executed query: ``index`` is its position in the pass.

    ``wall`` and ``cpu`` are raw seconds; times ``scale`` they are reference
    seconds.
    """

    index: int
    wall: float
    cpu: float
    ok: bool
    ops: int
    error: str | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class CliQuery:
    argv: list
    digest: str
    ops: int
    golden: list | None = None


@dataclass(frozen=True)
class PairQuery:
    g: int
    e: int
    i: int
    route: str
    fmt: str
    sigma: str | None
    digest: str
    ops: int = 1


def scratch_dir() -> Path:
    """The directory, inside the checkout, for files the benchmark writes."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # As in a default install, compiled bytecode is cached, so the set-up
    # warm-up pays for compiling the package and the timed queries do not.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(argv: list, child_args: list | None = None):
    """Run one CLI query in a fresh process; return (proc, wall_s, cpu_s).

    With ``child_args`` the process is ``child.py cli`` with those options
    (speed sampling, tracing or profiling) instead of ``python -m
    modulimotives``.
    """
    if child_args is None:
        cmd = [sys.executable, "-m", "modulimotives", *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", *child_args, "--", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=QUERY_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or b"", b"timed out")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc, wall, cpu


def check_cli(proc, digest: str | None, golden: list | None) -> str | None:
    """The reason a CLI query failed, or None if its output is correct."""
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        return f"exit {proc.returncode}: {err[-1] if err else ''}"
    if digest is not None and sha256(proc.stdout) != digest:
        return "output differs from the reference"
    if golden is not None:
        try:
            matrix = json.loads(proc.stdout)["matrix"]
        except (ValueError, KeyError, TypeError):
            return "output is not a diamond-json document"
        if matrix != golden:
            return "Hodge matrix differs from the golden diamond"
    return None


def warm_up(reference: dict) -> list:
    """Run the golden queries; return one failure reason (or None) each."""
    errors = []
    for argv, name in GOLDEN_QUERIES:
        error = check_cli(run_cli(argv)[0], None, reference["golden"][name])
        errors.append(error and f"{' '.join(argv)}: {error}")
    return errors


class CliWorkload:
    """A workload whose queries each run in a fresh CLI process."""

    def run_pass(self, queries: list, deadline=None, instrument=None, expected=None) -> list:
        """Run the queries in order; stop before one would end after ``deadline``.

        ``expected`` maps a query's index to its wall time in an earlier
        pass.  ``instrument(index)``, if given, returns the ``child.py``
        options (``--trace F`` or ``--profile F``) for the query at ``index``;
        otherwise each query samples the host speed.
        """
        expected = expected or {}
        samples = []
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
            speed_file = Path(tmp) / "speed.json"
            for index, q in enumerate(queries):
                expected_end = time.perf_counter() + expected.get(index, 0.0)
                if deadline is not None and expected_end >= deadline:
                    break
                if instrument is None:
                    child_args = ["--speed", str(speed_file)]
                else:
                    child_args = instrument(index) + ["--query", str(index)]
                proc, wall, cpu = run_cli(q.argv, child_args)
                scale = 1.0
                if instrument is None and speed_file.exists():
                    scale = speed.scale(json.loads(speed_file.read_text()))
                    speed_file.unlink()
                error = check_cli(proc, q.digest, q.golden)
                if error is not None:
                    error = f"{' '.join(q.argv)}: {error}"
                samples.append(Sample(index, wall, cpu, error is None, q.ops, error, scale))
        return samples


class HiggsLadder(CliWorkload):
    name = "higgs-ladder"

    def queries(self, seed: int, reference: dict) -> list:
        rng = random.Random(seed)
        degrees = [d for d in range(-60, 61) if d % 3]
        keys = [(g, mod_jac) for g in range(2, HIGGS_MAX_GENUS + 1) for mod_jac in (0, 1)]
        rng.shuffle(keys)
        out = []
        for g, mod_jac in keys:
            fmt = "class-json" if mod_jac else "diamond-json"
            argv = ["higgs", "--genus", str(g), "--degree", str(rng.choice(degrees))]
            argv += ["--mod-jac"] * mod_jac + ["--format", fmt]
            golden = reference["golden"]["genus2_higgs"] if (g, mod_jac) == (2, 0) else None
            out.append(CliQuery(argv, reference["higgs"][f"{g},{mod_jac},{fmt}"], 1, golden))
        return out


class VerifySweep(CliWorkload):
    name = "verify-sweep"

    def queries(self, seed: int, reference: dict) -> list:
        out = []
        for suite in VERIFY_SUITES:
            ref = reference["verify"][suite]
            argv = ["verify", "--suite", suite, "--max-genus", str(VERIFY_MAX_GENUS)]
            out.append(CliQuery(argv, ref["digest"], ref["checks"]))
        return out


def pair_universe() -> list:
    """Every (g, e, i, route) whose route hypothesis holds, for g <= PAIR_MAX_GENUS.

    Chambers with e <= 4g-5; ``flip`` and ``geo`` always apply there, ``sym``
    where i < floor(e/2) <= 2g-3.
    """
    out = []
    for g in range(2, PAIR_MAX_GENUS + 1):
        for e in range(2, 4 * g - 5 + 1):
            for i in range((e - 1) // 2 + 1):
                routes = ("flip", "geo", "sym") if i < e // 2 <= 2 * g - 3 else ("flip", "geo")
                out.extend((g, e, i, route) for route in routes)
    return out


def interior_sigma(rng: random.Random, e: int, i: int) -> Fraction:
    """An exact rational strictly inside chamber i of degree e, and > 0."""
    upper = Fraction(e, 2) - i
    lower = max(Fraction(0), upper - 1)
    den = rng.randint(3, 12)  # the chamber is at least 1/2 wide, so 3 suffices
    return Fraction(rng.randint(math.floor(lower * den) + 1, math.ceil(upper * den) - 1), den)


def stratified_sample(rng: random.Random, universe: list, size: int) -> list:
    """``size`` pairs drawn without replacement, in shuffled order.

    Each (genus, route) stratum gives its share of ``size`` (largest
    remainder), so the seed picks which pairs run but not how many of each
    genus and route: those set most of a query's cost.
    """
    strata: dict = {}
    for pair in universe:
        strata.setdefault((pair[0], pair[3]), []).append(pair)
    quotas = {key: size * len(pairs) / len(universe) for key, pairs in strata.items()}
    counts = {key: int(quota) for key, quota in quotas.items()}
    by_remainder = sorted(quotas, key=lambda key: counts[key] - quotas[key])
    for key in by_remainder[: size - sum(counts.values())]:
        counts[key] += 1
    chosen = [pair for key, pairs in strata.items() for pair in rng.sample(pairs, counts[key])]
    rng.shuffle(chosen)
    return chosen


class PairStream:
    name = "pair-stream"

    def queries(self, seed: int, reference: dict) -> list:
        rng = random.Random(seed)
        chosen = stratified_sample(rng, pair_universe(), PAIR_SAMPLE)
        by_sigma = set(rng.sample(range(PAIR_SAMPLE), PAIR_SAMPLE // 2))
        # Each format serves a quarter of the queries: class-json costs about
        # an eighth of the others, so a drawn mix would move the percentiles.
        formats = [FORMATS[n % len(FORMATS)] for n in range(PAIR_SAMPLE)]
        rng.shuffle(formats)
        out = []
        for n, ((g, e, i, route), fmt) in enumerate(zip(chosen, formats)):
            sigma = str(interior_sigma(rng, e, i)) if n in by_sigma else None
            out.append(PairQuery(g, e, i, route, fmt, sigma, reference["pairs"][f"{g},{e},{i},{fmt}"]))
        return out

    def run_pass(self, queries: list, deadline=None, instrument=None, expected=None) -> list:
        """Serve the queries in one child process; stop at ``deadline``.

        Queries take milliseconds, so ``expected`` is not needed to end on time.
        """
        cmd = [sys.executable, str(HERE / "child.py"), "pairs"]
        if instrument is not None:
            cmd += instrument(0)
        if deadline is not None:
            cmd += ["--budget", repr(max(deadline - time.perf_counter(), 0.0))]
        payload = json.dumps([[q.g, q.e, q.i, q.route, q.fmt, q.sigma] for q in queries])
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, input=payload.encode(), env=child_env(), cwd=ROOT,
                capture_output=True, timeout=QUERY_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(cmd, -9, b"", b"timed out")
        if proc.returncode != 0:
            # The session died: every query of the pass counts as failed.
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            error = f"session exit {proc.returncode}: {err[-1] if err else ''}"
            wall = time.perf_counter() - start
            return [Sample(index, wall, 0.0, False, 1, error) for index in range(len(queries))]
        samples = []
        for index, (wall, cpu, digest, error, scale) in enumerate(json.loads(proc.stdout)):
            q = queries[index]
            if error is None and digest != q.digest:
                error = "output differs from the reference"
            if error is not None:
                error = f"pair g={q.g} e={q.e} i={q.i} {q.route} {q.fmt} sigma={q.sigma}: {error}"
            samples.append(Sample(index, wall, cpu, error is None, 1, error, scale))
        return samples


WORKLOADS = {w.name: w for w in (HiggsLadder(), PairStream(), VerifySweep())}
