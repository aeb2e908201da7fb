"""Byte-identity of rendered outputs against the benchmark's reference digests.

``perfbench/reference.json`` holds the SHA-256 of every output the benchmark
can draw; it is only read here, and every digest in it is checked.  Pair
outputs are digested as rendered, Higgs and verify outputs as the CLI prints
them (with the trailing newline).
"""

import hashlib
import json

import pytest

from modulimotives import (
    ChamberSpec,
    HiggsSpec,
    higgs_motive,
    higgs_motive_mod_jac,
    pair_motive_flip,
)
from modulimotives.cli import FORMATS, render_class
from modulimotives.verify import run_suite
from support import ROOT

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
HIGGS_QUERIES = ((0, higgs_motive, "diamond-json"), (1, higgs_motive_mod_jac, "class-json"))
# the suites the benchmark's verify-sweep runs, at its max genus
VERIFY_SUITES = ("identities", "positivity", "duality", "degree-independence", "audit")
VERIFY_MAX_GENUS = 6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pair_chambers(g):
    """Every chamber ``(e, i)`` with ``e <= 4g-5``, as the benchmark draws them."""
    for e in range(2, 4 * g - 4):
        for i in range((e - 1) // 2 + 1):
            yield e, i


@pytest.mark.parametrize("g", range(2, 9))
def test_pair_outputs_match_the_reference(g):
    for e, i in pair_chambers(g):
        cls = pair_motive_flip(ChamberSpec(g=g, e=e, i=i))
        for fmt in FORMATS:
            expected = REFERENCE["pairs"][f"{g},{e},{i},{fmt}"]
            assert digest(render_class(cls, fmt)) == expected, (g, e, i, fmt)


@pytest.mark.parametrize("g", range(2, 10))
def test_higgs_outputs_match_the_reference(g):
    spec = HiggsSpec(g, 1)
    for mod_jac, build, fmt in HIGGS_QUERIES:
        printed = render_class(build(spec), fmt) + "\n"
        expected = REFERENCE["higgs"][f"{g},{mod_jac},{fmt}"]
        assert digest(printed) == expected, (g, mod_jac)


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_outputs_match_the_reference(suite):
    results = run_suite(suite, VERIFY_MAX_GENUS)
    printed = "".join(result.render() + "\n" for result in results)
    assert digest(printed) == REFERENCE["verify"][suite]["digest"]
    assert sum(result.checked for result in results) == REFERENCE["verify"][suite]["checks"]


def test_every_reference_key_is_covered():
    pairs = {
        f"{g},{e},{i},{fmt}"
        for g in range(2, 9)
        for e, i in pair_chambers(g)
        for fmt in FORMATS
    }
    higgs = {f"{g},{mod_jac},{fmt}" for g in range(2, 10) for mod_jac, _, fmt in HIGGS_QUERIES}
    assert set(REFERENCE["pairs"]) == pairs
    assert set(REFERENCE["higgs"]) == higgs
    assert set(REFERENCE["verify"]) == set(VERIFY_SUITES)
