"""Acceptance suite: every exit criterion, at its stated range, exactly.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line on success (visible
with ``pytest -v -s`` or in the captured output); a failing criterion fails
its test.  All comparisons are exact integer comparisons; there are no
tolerances anywhere.
"""

import time

from modulimotives import ChamberSpec, pair_motive_flip, pair_motive_geo, pair_motive_sym
from modulimotives.cli import main
from modulimotives.verify import (
    sweep_degree_independence,
    sweep_duality,
    sweep_positivity,
    sweep_route_agreement,
    sweep_symmetric_power_identity,
    sweep_twist_audit,
)
from golden_diamonds import GENUS2_HIGGS, GENUS3_HIGGS_MOD_JAC


def _announce(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - started:.2f}s)")


def _matrix_from_cli(capsys, *argv) -> list[list[int]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return [[int(c) for c in line.split()] for line in out.strip().splitlines()]


def _assert_transcription_sane(matrix, size):
    assert len(matrix) == size and all(len(row) == size for row in matrix)
    for p in range(size):
        for q in range(size):
            assert matrix[p][q] == matrix[q][p]


def test_criterion_1_golden_genus2_diamond(capsys):
    started = time.time()
    _assert_transcription_sane(GENUS2_HIGGS, 11)
    matrix = _matrix_from_cli(capsys, "higgs", "--genus", "2", "--degree", "1")
    assert matrix == GENUS2_HIGGS
    assert matrix[0][0] == 1 and matrix[1][1] == 5 and matrix[10][10] == 6
    with capsys.disabled():
        _announce(1, "golden-genus2-diamond", started)


def test_criterion_2_golden_genus3_mod_jac_diamond(capsys):
    started = time.time()
    _assert_transcription_sane(GENUS3_HIGGS_MOD_JAC, 17)
    matrix = _matrix_from_cli(
        capsys, "higgs", "--genus", "3", "--degree", "1", "--mod-jac"
    )
    assert matrix == GENUS3_HIGGS_MOD_JAC
    assert matrix[12][12] == 2069 and matrix[16][16] == 15
    with capsys.disabled():
        _announce(2, "golden-genus3-mod-jac-diamond", started)


def test_criterion_3_route_agreement_sweep(capsys):
    started = time.time()
    result = sweep_route_agreement(8)
    assert result.passed, result.render()
    # both closed forms must have been exercised in their rearranged branch
    folded = ChamberSpec(g=6, e=18, i=8)
    assert 3 * folded.i > folded.e + folded.g - 1
    assert pair_motive_sym(folded) == pair_motive_flip(folded)
    rearranged = ChamberSpec(g=4, e=11, i=5)
    assert 3 * rearranged.i >= rearranged.e + rearranged.g
    assert pair_motive_geo(rearranged) == pair_motive_flip(rearranged)
    with capsys.disabled():
        _announce(3, f"route-agreement ({result.checked} checks)", started)


def test_criterion_4_positivity_sweep(capsys):
    started = time.time()
    result = sweep_positivity(10)
    assert result.passed, result.render()
    with capsys.disabled():
        _announce(4, f"positivity ({result.checked} checks)", started)


def test_criterion_5_symmetric_power_identity(capsys):
    started = time.time()
    result = sweep_symmetric_power_identity(8)
    assert result.passed, result.render()
    with capsys.disabled():
        _announce(5, f"symmetric-power-identity ({result.checked} checks)", started)


def test_criterion_6_lagrangian_twist_audit(capsys):
    started = time.time()
    result = sweep_twist_audit(8)
    assert result.passed, result.render()
    with capsys.disabled():
        _announce(6, f"twist-audit ({result.checked} checks)", started)


def test_criterion_7_structural_properties(capsys):
    started = time.time()
    result = sweep_duality(4)
    assert result.passed, result.render()
    with capsys.disabled():
        _announce(7, f"structural-properties ({result.checked} checks)", started)


def test_criterion_8_degree_independence(capsys):
    started = time.time()
    result = sweep_degree_independence(4)
    assert result.passed, result.render()
    with capsys.disabled():
        _announce(8, "degree-independence", started)
