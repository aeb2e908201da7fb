"""A fast slice of the output-identity gate (``output_gate.py``): the CLI's
stdout, stderr and exit codes still hash to the recorded digests.  CI checks
every kind."""

import json

import pytest

import output_gate

SLICE = (
    "pairs g2",
    "sigma strings",
    *(f"{family} g{g}" for family in ("higgs", "bundles") for g in range(2, 9)),
    "pairs g30",
    "verify",
    "ceilings",
)
EXPECTED = json.loads(output_gate.DIGESTS.read_text())


def test_the_slice_and_the_set_are_recorded():
    assert set(output_gate.kinds()) == set(EXPECTED)
    assert set(SLICE) <= set(EXPECTED)


@pytest.mark.parametrize("kind", SLICE)
def test_outputs_hash_to_the_recorded_digest(kind):
    assert output_gate.digest(kind) == EXPECTED[kind]
