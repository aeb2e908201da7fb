import json
import os
import subprocess
import sys
import time

import pytest

import modulimotives.higgs as higgs_module
import modulimotives.motive as motive_module
import modulimotives.pairs as pairs_module
from modulimotives import (
    BundleSpec,
    ChamberSpec,
    HiggsSpec,
    HypothesisViolation,
    InvalidChamber,
    InvalidDegree,
    IntPoly,
    MotiveClass,
    OnWall,
    OutOfRange,
    UsageError,
    chamber_of,
)
from modulimotives.verify import run_suite
from modulimotives.cli import main
from golden_diamonds import GENUS2_HIGGS
from support import src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_matrix(text):
    return [[int(c) for c in line.split()] for line in text.strip().splitlines()]


class TestHiggsCommand:
    def test_default_format_is_diamond_text(self, capsys):
        code, out, _ = run_cli(capsys, "higgs", "--genus", "2", "--degree", "1")
        assert code == 0
        assert parse_matrix(out) == GENUS2_HIGGS

    def test_diamond_json_matches_diamond_text(self, capsys):
        _, text_out, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--format", "diamond-text"
        )
        code, json_out, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--format", "diamond-json"
        )
        assert code == 0
        payload = json.loads(json_out)
        assert payload["genus"] == 2
        assert payload["rows_are_p"] is True
        assert payload["matrix"] == parse_matrix(text_out)

    def test_class_json_is_canonical(self, capsys):
        code, out, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--format", "class-json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["genus"] == 2
        monos = [tuple(entry["mono"]) for entry in payload["terms"]]
        assert monos == sorted(monos)
        assert all(entry["coeffs"][-1] != 0 for entry in payload["terms"])

    def test_mod_jac_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--mod-jac"
        )
        assert code == 0
        matrix = parse_matrix(out)
        assert len(matrix) == 11 - 2  # top Hodge index drops by g
        assert matrix[0][0] == 1

    def test_invalid_degree_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "higgs", "--genus", "2", "--degree", "3")
        assert code == 2
        assert not out
        assert "coprime" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--format", "class-json"
        )
        _, second, _ = run_cli(
            capsys, "higgs", "--genus", "2", "--degree", "1", "--format", "class-json"
        )
        assert first == second


class TestBundlesCommand:
    def test_fixed_det_poincare_is_palindromic_of_degree_16(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bundles",
            "--genus",
            "2",
            "--degree",
            "1",
            "--fixed-det",
            "--format",
            "poincare",
        )
        assert code == 0
        # parse coefficients back out of the rendered polynomial
        from modulimotives import BundleSpec, bundle_motive_fixed_det

        poly = bundle_motive_fixed_det(BundleSpec(2, 1)).poincare_polynomial()
        assert out.strip() == poly.to_str("t")
        assert poly.degree == 16
        assert list(poly.coeffs) == list(reversed(poly.coeffs))

    def test_invalid_degree_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "bundles", "--genus", "2", "--degree", "3")
        assert code == 2
        assert "coprime" in err

    def test_diamond_json_genus_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "bundles", "--genus", "3", "--degree", "1", "--format", "diamond-json"
        )
        assert code == 0
        from modulimotives import BundleSpec, bundle_motive

        expected = bundle_motive(BundleSpec(3, 1)).hodge_realization().to_matrix()
        assert json.loads(out)["matrix"] == expected


class TestPairsCommand:
    def test_flip_poincare_total(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pairs",
            "--genus",
            "2",
            "--e",
            "3",
            "--chamber",
            "1",
            "--method",
            "flip",
            "--format",
            "poincare",
        )
        assert code == 0
        from modulimotives import ChamberSpec, pair_motive_flip

        poly = pair_motive_flip(ChamberSpec(g=2, e=3, i=1)).poincare_polynomial()
        assert out.strip() == poly.to_str("t")
        assert poly.evaluate(1) == 160

    def test_invalid_chamber_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "pairs", "--genus", "2", "--e", "3", "--chamber", "2"
        )
        assert code == 2
        assert "chamber" in err

    def test_sym_route_matches_flip_byte_for_byte(self, capsys):
        args = ("pairs", "--genus", "6", "--e", "18", "--chamber", "8", "--format", "class-json")
        _, flip_out, _ = run_cli(capsys, *args, "--method", "flip")
        code, sym_out, _ = run_cli(capsys, *args, "--method", "sym")
        assert code == 0
        assert sym_out == flip_out

    def test_sym_outside_hypothesis_exits_two_naming_inequality(self, capsys):
        code, _, err = run_cli(
            capsys, "pairs", "--genus", "2", "--e", "3", "--chamber", "1", "--method", "sym"
        )
        assert code == 2
        assert "floor(e/2)" in err

    def test_rational_stability_parameter_selects_chamber(self, capsys):
        args_sigma = (
            "pairs", "--genus", "2", "--e", "3", "--sigma", "1/3", "--format", "poincare",
        )
        args_chamber = (
            "pairs", "--genus", "2", "--e", "3", "--chamber", "1", "--format", "poincare",
        )
        _, by_sigma, _ = run_cli(capsys, *args_sigma)
        code, by_chamber, _ = run_cli(capsys, *args_chamber)
        assert code == 0
        assert by_sigma == by_chamber

    def test_wall_parameter_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "pairs", "--genus", "2", "--e", "3", "--sigma", "1/2"
        )
        assert code == 2
        assert "wall" in err

    @pytest.mark.parametrize("text", ["1e-10000000", "1E-100000000", "2.5e0"])
    def test_exponent_notation_is_refused_before_any_work(self, capsys, text):
        # Fraction would build 10^(10^7) for the first; refused, it returns at once
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exit_info:
            main(["pairs", "--genus", "2", "--e", "5", "--sigma", text])
        assert time.perf_counter() - start < 0.5
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --sigma: exponent notation is not accepted, got {text!r}" in err

    def test_fraction_and_exact_decimal_select_one_chamber(self, capsys):
        outputs = set()
        for text in ("3/4", "0.75", "0.750", "6/8"):
            code, out, _ = run_cli(
                capsys, "pairs", "--genus", "2", "--e", "5", "--sigma", text,
                "--format", "poincare",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_help_states_the_sigma_forms(self, capsys):
        with pytest.raises(SystemExit):
            main(["pairs", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "e.g. 3/4 or 0.75 (no float, no exponent)" in text


class TestVerifyCommand:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--max-genus", "3"
        )
        assert code == 0
        assert "route-agreement: PASS" in out
        assert "symmetric-power-identity: PASS" in out

    def test_audit_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "audit", "--max-genus", "3")
        assert code == 0
        assert "twist-audit: PASS" in out

    def test_bad_max_genus_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "audit", "--max-genus", "1")
        assert code == 2
        assert "max genus" in err

    def test_failing_sweep_exits_one(self, capsys, monkeypatch):
        import modulimotives.cli as cli_module
        from modulimotives.verify import SweepResult

        broken = SweepResult("audit-stub", checked=1, failures=["g=2: stub failure"])
        monkeypatch.setattr(cli_module, "run_suite", lambda name, mg: [broken])
        code, out, _ = run_cli(capsys, "verify", "--suite", "audit", "--max-genus", "2")
        assert code == 1
        assert "FAIL" in out and "stub failure" in out


class TestInternalErrors:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        higgs_module.higgs_motive_mod_jac.cache_clear()
        pairs_module.pair_cofactor_flip.cache_clear()
        yield
        pairs_module.pair_cofactor_flip.cache_clear()

    def test_chamber_mismatch_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(higgs_module, "chamber_of", lambda sigma, e: -99)
        code, out, err = run_cli(capsys, "higgs", "--genus", "2", "--degree", "1")
        assert code == 3
        assert not out
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "closed form predicts" in err

    def test_negative_coefficient_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(MotiveClass, "is_effective", lambda self: False)
        code, out, err = run_cli(capsys, "higgs", "--genus", "2", "--degree", "1")
        assert code == 3
        assert not out
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "negative coefficient" in err

    def test_a_negative_q_exits_three_with_or_without_mod_jac(self, capsys, monkeypatch):
        monkeypatch.setattr(
            higgs_module,
            "bundle_motive_fixed_det",
            lambda spec: MotiveClass(spec.g, {(): IntPoly([-1])}),
        )
        for flags in ((), ("--mod-jac",)):
            argv = ("higgs", "--genus", "2", "--degree", "1", *flags, "--format", "poincare")
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and not out, flags
            assert err == (
                "internal error: Higgs class for HiggsSpec(g=2, d=1) has a negative coefficient\n"
            ), flags

    def test_internal_value_error_exits_three(self, capsys, monkeypatch):
        # a Jacobian of the wrong genus makes the first product with it (the
        # pair part of Q) raise GenusMismatch, a ValueError that is not a usage error
        def wrong_genus(g):
            return motive_module.jacobian(g + 1)

        monkeypatch.setattr(higgs_module, "jacobian", wrong_genus)
        code, out, err = run_cli(capsys, "higgs", "--genus", "2", "--degree", "1")
        assert code == 3
        assert not out
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "genus 3 and 2" in err

    def test_negative_symmetric_power_exits_three(self, capsys, monkeypatch):
        def negative_power(g, j):
            return motive_module.sym_curve(g, -1)

        monkeypatch.setattr(pairs_module, "sym_curve", negative_power)
        argv = ("pairs", "--genus", "2", "--e", "3", "--chamber", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert not out
        assert err == "internal error: negative symmetric power -1\n"

    def test_internal_type_error_exits_three(self, capsys, monkeypatch):
        # a coefficient that is not an IntPoly makes the class constructor
        # raise TypeError inside the package
        def untyped_class(g, j):
            return motive_module.MotiveClass(g, {(): [1]})

        monkeypatch.setattr(pairs_module, "sym_curve", untyped_class)
        argv = ("pairs", "--genus", "2", "--e", "3", "--chamber", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert not out
        assert err == "internal error: coefficients must be IntPoly\n"

    @pytest.mark.parametrize("error", [KeyError, IndexError, RecursionError])
    def test_any_other_exception_exits_three(self, capsys, monkeypatch, error):
        def broken(g, j):
            raise error("broken lookup")

        monkeypatch.setattr(pairs_module, "sym_curve", broken)
        argv = ("pairs", "--genus", "2", "--e", "3", "--chamber", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert not out
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "broken lookup" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: BundleSpec(1, 1),
            lambda: BundleSpec(2, 3),
            lambda: HiggsSpec(1, 1),
            lambda: HiggsSpec(2, 3),
            lambda: ChamberSpec(g=2, e=3, i=2),
            lambda: chamber_of(0, 3),
            lambda: chamber_of(1, 4),
            lambda: run_suite("identities", 1),
            lambda: run_suite("nonsense", 2),
        ],
    )
    def test_user_input_errors_are_usage_errors(self, make):
        with pytest.raises(UsageError):
            make()

    def test_named_errors_form_one_family(self):
        named = (InvalidDegree, InvalidChamber, HypothesisViolation, OnWall, OutOfRange)
        assert all(issubclass(exc, UsageError) for exc in named)
        assert issubclass(UsageError, ValueError)


class TestInputCeilings:
    # each case is one past its ceiling; a query at the ceiling runs for seconds
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("higgs", "--genus", "31", "--degree", "1"), "genus must be <= 30, got 31"),
            (("bundles", "--genus", "31", "--degree", "1"), "genus must be <= 30, got 31"),
            (
                ("pairs", "--genus", "31", "--e", "3", "--chamber", "1"),
                "genus must be <= 30, got 31",
            ),
            (
                ("pairs", "--genus", "2", "--e", "401", "--chamber", "200"),
                "pair degree e must be <= 400, got 401",
            ),
            (
                ("pairs", "--genus", "2", "--e", "401", "--sigma", "1/3"),
                "pair degree e must be <= 400, got 401",
            ),
            (
                ("verify", "--suite", "all", "--max-genus", "13"),
                "max genus must be <= 12, got 13",
            ),
        ],
    )
    def test_one_past_the_ceiling_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert not out
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command,stated",
        [
            ("bundles", "curve genus, at most 30"),
            ("pairs", "pair degree, 2..400"),
            ("higgs", "curve genus, at most 30"),
            ("verify", "largest genus swept, 2..12"),
        ],
    )
    def test_help_states_the_ceiling(self, capsys, command, stated):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert stated in " ".join(capsys.readouterr().out.split())


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modulimotives", "higgs", "--genus", "2",
             "--degree", "1", "--format", "diamond-text"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert parse_matrix(proc.stdout) == GENUS2_HIGGS

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modulimotives", "nonsense"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2

    def test_closed_stdout_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "modulimotives", "verify", "--suite", "all",
                 "--max-genus", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=src_env(),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
