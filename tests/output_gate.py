"""The output-identity gate: a fixed set of CLI runs and one digest per kind.

    PYTHONPATH=src python tests/output_gate.py              # check every kind
    PYTHONPATH=src python tests/output_gate.py --record     # rewrite the digests

Each run goes in process through ``modulimotives.cli.main`` and records its
argv, exit code, stdout and stderr; when argparse exits, its usage text (which
wraps to the terminal and varies with the Python version) is dropped and only
its last stderr line, ``prog: error: message``, is kept.  A kind's digest is
the SHA-256 of its runs in order.  ``output_digests.json`` holds
each kind's digest and run count.  Record only at a commit whose outputs are
trusted: a changed digest is a changed output.

The set, by kind:

* ``pairs gG`` (G = 2..6): every chamber of every ``e <= 4G + 5``, one index
  past the last too, by each route in each format; ``e = 1`` and index -1;
* ``sigma gG`` (G = 2, 3, 5): ``--sigma n/d`` for ``d`` in {1, 2, 3, 4, 6, 7}
  and every ``n`` from 0 to one past ``e·d/2``, at each ``e < 20``;
* ``sigma strings``: odd ``--sigma`` texts at ``e`` in {3, 4, 5, 400};
* ``higgs gG`` and ``bundles gG`` (G = 2..12, 20, 30): with and without
  ``--mod-jac`` (``--fixed-det``), at degrees 1, 2 and -1, in each format;
* ``pairs g30``: ``e = 400`` at chambers 0, 1, 100, 199 and 200 in each
  format, ``e = 115`` chamber 56 by each route as class-json;
* ``verify``: ``verify --suite all --max-genus 8``;
* ``ceilings``: each input one past its ceiling or below its floor, and
  argparse's own refusals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from modulimotives import cli

DIGESTS = Path(__file__).with_name("output_digests.json")
FORMATS = cli.FORMATS
ROUTES = ("flip", "sym", "geo")


def _pair_runs(g: int):
    for e in range(1, 4 * g + 6):
        for i in range(-1, (e - 1) // 2 + 2):
            for route in ROUTES:
                for fmt in FORMATS:
                    yield ["pairs", "--genus", g, "--e", e, "--chamber", i, "--method", route, "--format", fmt]


def _sigma_runs(g: int):
    for e in range(2, 20):
        for d in (1, 2, 3, 4, 6, 7):
            for n in range(e * d // 2 + 2):
                yield ["pairs", "--genus", g, "--e", e, "--sigma", f"{n}/{d}"]


ODD_SIGMAS = ("3/4", "0.75", "1.5", "+3/2", "2/4", "-1", "0", "1e-3", "1/0", "abc", "inf", "nan", " 1/2")


def _odd_sigma_runs():
    for e in (3, 4, 5, 400):
        for sigma in ODD_SIGMAS:
            yield ["pairs", "--genus", 3, "--e", e, "--sigma", sigma, "--format", "poincare"]


def _class_runs(command: str, flag: str, g: int):
    for extra in ([], [flag]):
        for degree in (1, 2, -1):
            for fmt in FORMATS:
                yield [command, "--genus", g, "--degree", degree, *extra, "--format", fmt]


def _ceiling_pair_runs():
    for i in (0, 1, 100, 199, 200):
        for fmt in FORMATS:
            yield ["pairs", "--genus", 30, "--e", 400, "--chamber", i, "--format", fmt]
    for route in ROUTES:
        yield ["pairs", "--genus", 30, "--e", 115, "--chamber", 56, "--method", route, "--format", "class-json"]


def _usage_runs():
    yield ["higgs", "--genus", 31, "--degree", 1]
    yield ["higgs", "--genus", 1, "--degree", 1]
    yield ["higgs", "--genus", 3, "--degree", 3]
    yield ["bundles", "--genus", 31, "--degree", 1]
    yield ["bundles", "--genus", 0, "--degree", 1, "--fixed-det"]
    yield ["bundles", "--genus", 3, "--degree", 0]
    yield ["pairs", "--genus", 31, "--e", 5, "--chamber", 0]
    yield ["pairs", "--genus", 3, "--e", 401, "--chamber", 0]
    yield ["pairs", "--genus", 3, "--e", 5, "--chamber", 0, "--sigma", "1"]
    yield ["pairs", "--genus", 3, "--e", 5, "--chamber", "x"]
    yield ["verify", "--suite", "all", "--max-genus", 13]
    yield ["verify", "--suite", "all", "--max-genus", 1]
    yield []


def kinds() -> dict:
    """Each kind's runs, as functions so that a slice builds only its own."""
    out = {f"pairs g{g}": (lambda g=g: _pair_runs(g)) for g in range(2, 7)}
    out.update({f"sigma g{g}": (lambda g=g: _sigma_runs(g)) for g in (2, 3, 5)})
    out["sigma strings"] = _odd_sigma_runs
    for g in (*range(2, 13), 20, 30):
        out[f"higgs g{g}"] = lambda g=g: _class_runs("higgs", "--mod-jac", g)
        out[f"bundles g{g}"] = lambda g=g: _class_runs("bundles", "--fixed-det", g)
    out["pairs g30"] = _ceiling_pair_runs
    out["verify"] = lambda: [["verify", "--suite", "all", "--max-genus", 8]]
    out["ceilings"] = _usage_runs
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code, out.getvalue(), err.getvalue().splitlines()[-1]
    return code, out.getvalue(), err.getvalue()


def digest(kind: str) -> dict:
    sha, count = hashlib.sha256(), 0
    for argv in kinds()[kind]():
        argv = [str(a) for a in argv]
        code, out, err = run(argv)
        for part in (" ".join(argv), str(code), out, err):
            data = part.encode()
            sha.update(len(data).to_bytes(8, "little") + data)
        count += 1
    return {"runs": count, "sha256": sha.hexdigest()}


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        table = {kind: digest(kind) for kind in kinds()}
        DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
        print(f"recorded {sum(t['runs'] for t in table.values())} runs in {len(table)} kinds")
        return 0
    expected = json.loads(DIGESTS.read_text())
    differ = [kind for kind in expected if digest(kind) != expected[kind]]
    for kind in differ:
        print(f"{kind}: output differs from the recorded digest", file=sys.stderr)
    print(f"{sum(t['runs'] for t in expected.values())} runs, {len(differ)} kinds differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
