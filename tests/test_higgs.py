import pytest

import modulimotives.higgs as higgs_module
import modulimotives.motive as motive_module
import modulimotives.pairs as pairs_module
import modulimotives.verify as verify_module
from modulimotives import (
    ChamberMismatch,
    HiggsSpec,
    InvalidDegree,
    audit_fixed_loci,
    fixed_components,
    fixed_locus_111,
    fixed_locus_12,
    fixed_locus_21,
    fixed_locus_bundles,
    higgs_dimension,
    higgs_motive,
    higgs_motive_mod_jac,
    jacobian,
    sym_curve,
    tate,
    zero,
)
from modulimotives.bundles import bundle_dimension
from modulimotives.cli import main
from modulimotives.higgs import FixedComponent
from modulimotives.motive import MotiveClass, top_degree
from golden_diamonds import GENUS2_HIGGS, GENUS3_HIGGS_MOD_JAC
from support import (
    audit_reference,
    higgs_mod_jac_reference,
    hodge_realization_reference,
    poincare_reference,
    tate_range,
    tate_sum,
)


class TestSpecValidation:
    def test_residue_representative(self):
        assert HiggsSpec(2, 1).x == 1
        assert HiggsSpec(2, 2).x == 2
        assert HiggsSpec(2, -1).x == 2
        assert HiggsSpec(2, 4).x == 1

    def test_rejects_bad_degree_or_genus(self):
        with pytest.raises(InvalidDegree):
            HiggsSpec(2, 3)
        with pytest.raises(InvalidDegree):
            HiggsSpec(2, 0)
        with pytest.raises(ValueError):
            HiggsSpec(1, 1)

    @pytest.mark.parametrize(
        "fields,name", [((3, True), "d"), ((3.0, 1), "g"), ((3, 1.0), "d"), (("3", 1), "g")]
    )
    def test_rejects_values_that_are_not_ints(self, fields, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            HiggsSpec(*fields)


class TestTripleLineComponents:
    def test_genus_two_degree_one_region(self):
        comps = fixed_locus_111(HiggsSpec(2, 1))
        assert [c.params for c in comps] == [(0, 1), (1, 2), (2, 0)]
        assert {c.params: c.twist for c in comps} == {
            (0, 1): 7,
            (1, 2): 5,
            (2, 0): 6,
        }

    def test_genus_two_degree_two_region_is_mirror(self):
        comps = fixed_locus_111(HiggsSpec(2, 2))
        assert sorted(c.params for c in comps) == [(0, 2), (1, 0), (2, 1)]

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_twist_dimension_identity(self, g, d):
        for comp in fixed_locus_111(HiggsSpec(g, d)):
            m1, m2 = comp.params
            assert comp.dimension == g + m1 + m2
            assert comp.twist + comp.dimension == 9 * (g - 1) + 1

    def test_motive_is_jacobian_times_symmetric_powers(self):
        comp = fixed_locus_111(HiggsSpec(2, 1))[1]
        assert comp.params == (1, 2)
        assert comp.factors == (sym_curve(2, 1), sym_curve(2, 2))
        expected = jacobian(2) * sym_curve(2, 1) * sym_curve(2, 2)
        assert jacobian(2) * comp.cofactor == expected


class TestPairComponents:
    def test_line_plus_plane_genus_two(self):
        (comp,) = fixed_locus_12(HiggsSpec(2, 1))
        assert comp.params == (0,)
        assert comp.twist == 4
        assert comp.dimension == 2 + (2 + 2 * 2 - 2)  # g + pair dimension, e=2

    def test_line_plus_plane_genus_three(self):
        comps = fixed_locus_12(HiggsSpec(3, 1))
        assert [c.twist for c in comps] == [6, 9]

    def test_plane_plus_line_genus_two(self):
        (comp,) = fixed_locus_21(HiggsSpec(2, 1))
        assert comp.twist == 3
        assert comp.dimension == 2 + (3 + 2 * 2 - 2)  # e=3

    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_twist_dimension_identity(self, g, d):
        spec = HiggsSpec(g, d)
        for comp in fixed_locus_12(spec) + fixed_locus_21(spec):
            assert comp.twist + comp.dimension == 9 * (g - 1) + 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_duality_swaps_the_two_types(self, g, d):
        # the (2,1) components for degree d match the (1,2) components for
        # degree -d, component by component
        lhs = [
            (c.dimension, c.twist, jacobian(g) * c.cofactor)
            for c in fixed_locus_21(HiggsSpec(g, d))
        ]
        rhs = [
            (c.dimension, c.twist, jacobian(g) * c.cofactor)
            for c in fixed_locus_12(HiggsSpec(g, -d))
        ]
        assert lhs == rhs

    def test_chamber_mismatch_is_detected(self, monkeypatch):
        monkeypatch.setattr(higgs_module, "chamber_of", lambda sigma, e: -99)
        with pytest.raises(ChamberMismatch):
            fixed_locus_12(HiggsSpec(2, 1))


class TestAssembly:
    def test_component_inventory_genus_two(self):
        comps = fixed_components(HiggsSpec(2, 1))
        kinds = [c.kind for c in comps]
        assert kinds == ["(3)", "(1,1,1)", "(1,1,1)", "(1,1,1)", "(1,2)", "(2,1)"]
        assert comps[0].twist == 0

    def test_genus_two_golden_matrix(self):
        h = higgs_motive(HiggsSpec(2, 1)).hodge_realization()
        assert h.to_matrix() == GENUS2_HIGGS

    def test_genus_two_display_expression(self):
        g = 2
        jac = jacobian(g)
        c1, c2 = sym_curve(g, 1), sym_curve(g, 2)
        expected = jac * (
            tate_sum(g, 0, 8)
            + c1 * tate_sum(g, 1, 2, 5, 6, 7)
            + c2 * tate_sum(g, 2, 4, 6)
            + c1 * c1 * tate_sum(g, 3)
            + c1 * c2 * tate_sum(g, 5)
        ) + jac * jac * (
            tate_range(g, 3, 6) + tate_range(g, 4, 6) + c1 * tate_sum(g, 4)
        )
        assert higgs_motive(HiggsSpec(2, 1)) == expected

    def test_genus_three_display_expression(self):
        g = 3
        jac = jacobian(g)
        c = {j: sym_curve(g, j) for j in range(1, 6)}
        jac_part = zero(g)
        for powers, twists in [
            ((), (0, 16)),
            ((1,), (1, 2, 13, 14, 15)),
            ((2,), (2, 4, 10, 12, 14)),
            ((1, 1), (3, 11)),
            ((3,), (3, 6, 7, 10)),
            ((1, 2), (4, 5, 8, 9, 13)),
            ((4,), (4, 8, 12)),
            ((1, 3), (5, 7, 12)),
            ((2, 2), (6,)),
            ((5,), (11,)),
            ((2, 3), (11,)),
            ((1, 5), (10,)),
            ((2, 4), (10,)),
            ((3, 4), (9,)),
        ]:
            term = tate_sum(g, *twists)
            for j in powers:
                term = term * c[j]
            jac_part = jac_part + term
        jac_sq_part = (
            tate_range(g, 5, 13)
            + tate_range(g, 6, 13)
            + tate_range(g, 8, 13)
            + tate_range(g, 9, 13)
            + c[1] * (tate_range(g, 6, 11) + tate_range(g, 7, 11) + tate_range(g, 9, 11))
            + c[2] * (tate_range(g, 8, 9) + tate_range(g, 7, 9))
        )
        expected = jac * jac_part + jac * jac * jac_sq_part
        assert higgs_motive(HiggsSpec(3, 1)) == expected

    @pytest.mark.parametrize("g", [2, 3])
    def test_euler_characteristic_vanishes(self, g):
        assert higgs_motive(HiggsSpec(g, 1)).euler_characteristic() == 0

    @pytest.mark.parametrize("g", [2, 3])
    def test_top_degree_is_dimension(self, g):
        cls = higgs_motive(HiggsSpec(g, 1))
        assert cls.poincare_polynomial().degree == higgs_dimension(g)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_poincare_polynomial_matches_the_specialized_realization(self, g):
        for cls in (higgs_motive(HiggsSpec(g, 1)), higgs_motive_mod_jac(HiggsSpec(g, 2))):
            assert cls.poincare_polynomial() == poincare_reference(cls)

    def test_genus_two_total_betti_matches_golden(self):
        total = higgs_motive(HiggsSpec(2, 1)).poincare_polynomial().evaluate(1)
        assert total == sum(sum(row) for row in GENUS2_HIGGS)

    @pytest.mark.parametrize("g", [2, 3])
    def test_degree_independence(self, g):
        assert higgs_motive(HiggsSpec(g, 1)) == higgs_motive(HiggsSpec(g, 2))


class TestModJacobian:
    def test_genus_three_golden_matrix(self):
        h = higgs_motive_mod_jac(HiggsSpec(3, 1)).hodge_realization()
        assert h.to_matrix() == GENUS3_HIGGS_MOD_JAC

    @pytest.mark.parametrize("g", range(2, 9))
    def test_multiplying_back_recovers_the_class(self, g):
        # the factored assembly against the per-component reference sum
        for d in (1, 2, -2):
            spec = HiggsSpec(g, d)
            reference = zero(g)
            for comp in fixed_components(spec):
                component = jacobian(g) * comp.cofactor
                reference = reference + component.tate_twist(comp.twist)
            assert higgs_motive(spec) == reference

    @pytest.mark.parametrize("g", range(2, 7))
    def test_realization_matches_the_term_by_term_reference(self, g):
        for build in (higgs_motive, higgs_motive_mod_jac):
            cls = build(HiggsSpec(g, 1))
            assert cls.hodge_realization() == hodge_realization_reference(cls)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_q_matches_the_per_component_reference(self, g):
        for d in (1, 2, -1, 4):
            spec = HiggsSpec(g, d)
            assert higgs_motive_mod_jac(spec) == higgs_mod_jac_reference(spec)

    @pytest.mark.parametrize(
        "locus", ["fixed_locus_bundles", "fixed_locus_111", "fixed_locus_12", "fixed_locus_21"]
    )
    def test_q_is_summed_from_the_audited_records(self, monkeypatch, locus):
        # a twist changed in the records changes Q, so the audit checks what Q sums
        records = getattr(higgs_module, locus)
        monkeypatch.setattr(
            higgs_module,
            locus,
            lambda spec: [c._replace(twist=c.twist + 1) for c in records(spec)],
        )
        higgs_motive_mod_jac.cache_clear()
        try:
            for spec in (HiggsSpec(2, 1), HiggsSpec(3, 2), HiggsSpec(4, -1)):
                expected = zero(spec.g)
                for comp in fixed_components(spec):
                    expected = expected + comp.cofactor.tate_twist(comp.twist)
                assert higgs_motive_mod_jac(spec) == expected
        finally:
            higgs_motive_mod_jac.cache_clear()

    def test_a_degree_dependent_q_fails_the_degree_sweep(self, monkeypatch):
        q = higgs_module.higgs_motive_mod_jac
        monkeypatch.setattr(
            verify_module, "higgs_motive_mod_jac", lambda spec: q(spec) + tate(spec.g, spec.d)
        )
        result = verify_module.sweep_degree_independence(3)
        assert result.checked == 2 and not result.passed
        assert result.failures[0] == "g=2: Higgs classes for d=1 and d=2 differ"

    @pytest.mark.parametrize("g", range(2, 13))
    def test_euler_characteristic_of_q(self, g):
        """``Q = [M] / [Jac]`` has Euler characteristic ``mu(3)·3^(2g-3) =
        -3^(2g-3)``, the value Hausel–Rodriguez-Villegas give for the PGL_3
        twisted character variety.  A sanity line, not an oracle for Q: it does
        not catch a (1,2) or (2,1) pair cofactor taken from chamber i - 1, nor a
        Horner step ``tate_twist(3)`` made ``tate_twist(2)``."""
        for d in (1, 2):
            q = higgs_motive_mod_jac(HiggsSpec(g, d))
            assert q.poincare_polynomial().evaluate(-1) == -(3 ** (2 * g - 3))

    def test_unit_coefficient_starts_at_one(self):
        cls = higgs_motive_mod_jac(HiggsSpec(2, 1))
        assert cls.coefficient(())[0] == 1


class TestAudit:
    def test_genus_two_all_components_pass(self):
        report = audit_fixed_loci(HiggsSpec(2, 1))
        assert len(report.rows) == 6  # 1 + 3 + 1 + 1
        assert report.all_pass

    def test_genus_three_all_components_pass(self):
        assert audit_fixed_loci(HiggsSpec(3, 1)).all_pass

    def test_report_rendering(self):
        report = audit_fixed_loci(HiggsSpec(2, 1))
        text = report.render()
        lines = text.splitlines()
        assert len([ln for ln in lines if "kind=" in ln]) == 6
        assert all("PASS" in ln for ln in lines if "kind=" in ln)
        assert "all components pass" in text

    def test_bundle_component_is_untwisted(self):
        (comp,) = fixed_locus_bundles(HiggsSpec(2, 1))
        assert comp.twist == 0
        assert comp.dimension == 9 * (2 - 1) + 1

    @pytest.mark.parametrize("g", range(2, 9))
    def test_top_degree_of_every_factor(self, g):
        for d in (1, 2):
            for comp in fixed_components(HiggsSpec(g, d)):
                for f in comp.factors:
                    assert top_degree(f) == f.poincare_polynomial().degree

    def test_the_audit_realizes_no_class(self, monkeypatch):
        def refused(self):
            raise AssertionError("a class was realized")

        monkeypatch.setattr(MotiveClass, "hodge_matrix", refused)
        monkeypatch.setattr(MotiveClass, "poincare_polynomial", refused)
        for g in range(2, 7):
            for d in (1, 2, -1):
                assert audit_fixed_loci(HiggsSpec(g, d)).all_pass

    @pytest.mark.parametrize("g", range(2, 8))
    def test_factor_degrees_match_the_product_reference(self, g):
        for d in (1, 2, -2):
            spec = HiggsSpec(g, d)
            assert audit_fixed_loci(spec) == audit_reference(spec)


class TestAuditFailures:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        higgs_module.higgs_motive_mod_jac.cache_clear()
        pairs_module.pair_cofactor_flip.cache_clear()
        yield
        pairs_module.pair_cofactor_flip.cache_clear()

    @pytest.fixture(params=["wrong factor", "wrong twist"])
    def broken_kind(self, request, monkeypatch):
        """Break one kind of component; return that kind."""
        if request.param == "wrong factor":
            def shifted(g, j):
                return motive_module.sym_curve(g, j + 1)

            monkeypatch.setattr(higgs_module, "sym_curve", shifted)
            return "(1,1,1)"

        def twisted(spec):
            return [FixedComponent(spec, "(3)", (), bundle_dimension(spec.g), 1)]

        monkeypatch.setattr(higgs_module, "fixed_locus_bundles", twisted)
        return "(3)"

    def test_broken_rows_read_fail(self, broken_kind):
        report = audit_fixed_loci(HiggsSpec(2, 1))
        assert {row.kind for row in report.rows if not row.ok} == {broken_kind}
        assert not report.all_pass
        lines = report.render().splitlines()
        assert lines[-1] == "AUDIT FAILED"
        assert all(
            ln.endswith("FAIL") == (f"kind={broken_kind} " in ln)
            for ln in lines
            if "kind=" in ln
        )

    def test_verify_exits_one_naming_the_counterexample(self, capsys, broken_kind):
        code = main(["verify", "--suite", "audit", "--max-genus", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("twist-audit: FAIL (")
        assert f"first counterexample: g=2, d=1, kind={broken_kind}, params=" in out
