"""Regenerate ``reference.json``, the byte-exact outputs every query must match.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the benchmark treats any
difference from this file as a failed query.  It records SHA-256 digests of

* every pair query the ``pair-stream`` generator can draw, keyed
  ``g,e,i,format`` (all routes must agree, so the flip route is rendered and
  the closed-form routes are checked against it as classes);
* every Higgs query the ``higgs-ladder`` generator can draw, keyed
  ``g,mod_jac,format`` (the output does not depend on the degree, so degree
  1 is rendered and degrees 2 and -1 are checked to give the same bytes);
* the stdout and check count of each ``verify-sweep`` suite;

and copies the two golden diamonds of ``tests/golden_diamonds.py``.
"""

from __future__ import annotations

import json
import re
import runpy

from tracer import add_src_to_path
from workloads import (
    FORMATS,
    HERE,
    HIGGS_MAX_GENUS,
    PAIR_MAX_GENUS,
    ROOT,
    VERIFY_MAX_GENUS,
    VERIFY_SUITES,
    check_cli,
    pair_universe,
    run_cli,
    sha256,
)


def cli_digest(argv: list) -> bytes:
    proc = run_cli(argv)[0]
    error = check_cli(proc, None, None)
    if error:
        raise SystemExit(f"{' '.join(argv)}: {error}")
    return proc.stdout


def main() -> None:
    add_src_to_path()
    from modulimotives import cli, pairs

    universe = pair_universe()
    chambers = sorted({(g, e, i) for g, e, i, _ in universe})
    pair_refs = {}
    for g, e, i in chambers:
        spec = pairs.ChamberSpec(g=g, e=e, i=i)
        cls = pairs.pair_motive_flip(spec)
        for route in {r for gg, ee, ii, r in universe if (gg, ee, ii) == (g, e, i)}:
            if getattr(pairs, "pair_motive_" + route)(spec) != cls:
                raise SystemExit(f"{spec}: route {route} disagrees with flip")
        for fmt in FORMATS:
            pair_refs[f"{g},{e},{i},{fmt}"] = sha256(cli.render_class(cls, fmt).encode())

    higgs_refs = {}
    for g in range(2, HIGGS_MAX_GENUS + 1):
        for mod_jac, fmt in ((0, "diamond-json"), (1, "class-json")):
            outs = {
                cli_digest(
                    ["higgs", "--genus", str(g), "--degree", str(d)]
                    + ["--mod-jac"] * mod_jac
                    + ["--format", fmt]
                )
                for d in (1, 2, -1)
            }
            if len(outs) != 1:
                raise SystemExit(f"higgs g={g} mod_jac={mod_jac}: output depends on degree")
            higgs_refs[f"{g},{mod_jac},{fmt}"] = sha256(outs.pop())

    verify_refs = {}
    for suite in VERIFY_SUITES:
        out = cli_digest(["verify", "--suite", suite, "--max-genus", str(VERIFY_MAX_GENUS)])
        checks = sum(int(n) for n in re.findall(rb"PASS \((\d+) checks\)", out))
        verify_refs[suite] = {"digest": sha256(out), "checks": checks}

    golden = runpy.run_path(str(ROOT / "tests" / "golden_diamonds.py"))
    reference = {
        "pair_universe": len(universe),
        "pairs": pair_refs,
        "higgs": higgs_refs,
        "verify": verify_refs,
        "golden": {
            "genus2_higgs": golden["GENUS2_HIGGS"],
            "genus3_higgs_mod_jac": golden["GENUS3_HIGGS_MOD_JAC"],
        },
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(
        f"wrote {len(pair_refs)} pair, {len(higgs_refs)} higgs and "
        f"{len(verify_refs)} verify references ({len(universe)} admissible pairs)"
    )


if __name__ == "__main__":
    main()
