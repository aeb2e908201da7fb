import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modulimotives.pairs as pairs_module
import modulimotives.verify as verify_module
from modulimotives import (
    ChamberSpec,
    HypothesisViolation,
    IntPoly,
    InvalidChamber,
    MotiveClass,
    OnWall,
    OutOfRange,
    chamber_of,
    chambers,
    folded_coeff_poly,
    jacobian,
    pair_dimension,
    pair_motive_flip,
    pair_motive_geo,
    pair_motive_sym,
    projective_space,
    sym_coeff_poly,
    sym_curve,
    tate,
)
from modulimotives.cli import main
from modulimotives.motive import top_degree
from modulimotives.pairs import pair_cofactor_flip, pair_cofactor_geo, pair_cofactor_sym
from support import (
    chamber_of_reference,
    conv,
    hodge_realization_reference,
    pair_flip_reference,
    pair_geo_reference,
    pair_sym_reference,
    pair_sym_unfolded,
    poincare_reference,
)


FOLDED_CASE = (6, 8, 18, 8)  # (g, i, e, b), the smallest folded term


@pytest.fixture
def negative_folded_total(monkeypatch):
    """Make ``Q_8`` more negative at :data:`FOLDED_CASE` in the module that
    :func:`folded_coeff_poly` reads, which drives the folded total negative
    at ``T^2`` and leaves the sign pattern of ``Q_8`` as it was."""
    q = pairs_module.sym_coeff_poly

    def lowered(g, i, e, b):
        return q(g, i, e, b) - IntPoly([int((g, i, e, b) == FOLDED_CASE)])

    monkeypatch.setattr(pairs_module, "sym_coeff_poly", lowered)


class TestChambers:
    def test_degree_three(self):
        m, walls = chambers(3)
        assert m == 1
        assert walls == [Fraction(3, 2), Fraction(1, 2)]

    def test_degree_two(self):
        assert chambers(2) == (0, [Fraction(1)])

    def test_degree_eighteen(self):
        m, walls = chambers(18)
        assert m == 8
        assert walls == [Fraction(9 - i) for i in range(9)]

    def test_rejects_small_degree(self):
        with pytest.raises(InvalidChamber):
            chambers(1)


class TestChamberOf:
    def test_line_plus_plane_parameter_genus_three(self):
        # k=0, x=1: parameter (k+1)/2 - x/6 with pair degree 4g-3k-7+x
        g, k, x = 3, 0, 1
        sigma = Fraction(k + 1, 2) - Fraction(x, 6)
        assert chamber_of(sigma, 4 * g - 3 * k - 7 + x) == 2 * g - 2 * k - 5 + x == 2

    def test_plane_plus_line_parameter_genus_three(self):
        # k=0, x=1: parameter k/2 + x/6 with pair degree 4g-4-3k-x
        g, k, x = 3, 0, 1
        sigma = Fraction(k, 2) + Fraction(x, 6)
        assert chamber_of(sigma, 4 * g - 4 - 3 * k - x) == 2 * g - 2 * k - 2 - x == 3

    @pytest.mark.parametrize("e", [2, 3, 7, 18])
    def test_every_wall_raises(self, e):
        _, walls = chambers(e)
        for wall in walls:
            with pytest.raises(OnWall):
                chamber_of(wall, e)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            chamber_of(Fraction(0), 4)
        with pytest.raises(OutOfRange):
            chamber_of(Fraction(-1, 2), 4)
        with pytest.raises(OutOfRange):
            chamber_of(Fraction(5, 2), 4)

    @pytest.mark.parametrize("e", [2, 3, 6, 7, 11])
    def test_interior_points_hit_every_chamber(self, e):
        m, walls = chambers(e)
        bounds = walls + [Fraction(0)]
        for i in range(m + 1):
            midpoint = (bounds[i] + bounds[i + 1]) / 2
            assert chamber_of(midpoint, e) == i


def _outcome(function, sigma, e):
    """The index, or the type and message of the exception raised."""
    try:
        return function(sigma, e)
    except Exception as exc:
        return type(exc), str(exc)


class TestIntegerChamberOf:
    """``chamber_of`` in integers against the ``Fraction`` reference: the same
    index, or the same exception type and message."""

    @pytest.mark.parametrize("e", range(2, 61))
    def test_a_grid_of_fractions(self, e):
        for d in range(1, 13):
            for n in range(-d, e * d // 2 + d + 1):
                sigma = Fraction(n, d)
                assert _outcome(chamber_of, sigma, e) == _outcome(chamber_of_reference, sigma, e)

    def test_ints_far_points_and_bad_arguments(self):
        cases = [(n, e) for e in (2, 3, 4, 9, 400) for n in range(-2, e // 2 + 3)]
        cases += [(Fraction(n, d), 400) for n, d in ((1, 3), (399, 2), (401, 2), (200, 1),
                  (79999, 400), (80001, 400), (1, 10**30), (-1, 10**30), (10**30, 10**29 * 5))]
        cases += [(Fraction(1, 3), 1), (Fraction(1, 3), 0), (1, -4), (True, 5), (0.5, 5),
                  (Fraction(1, 3), True), (Fraction(1, 3), 5.0)]
        for sigma, e in cases:
            assert _outcome(chamber_of, sigma, e) == _outcome(chamber_of_reference, sigma, e)


class TestChamberSpec:
    def test_rejects_chamber_past_last_wall(self):
        with pytest.raises(InvalidChamber):
            ChamberSpec(g=2, e=3, i=2)
        with pytest.raises(InvalidChamber):
            ChamberSpec(g=2, e=3, i=-1)

    def test_dimension(self):
        assert pair_dimension(ChamberSpec(g=2, e=2, i=0)) == 4
        assert pair_dimension(ChamberSpec(g=2, e=3, i=1)) == 5

    @pytest.mark.parametrize(
        "fields,name",
        [((2, 5.0, 1), "e"), ((2.0, 5, 1), "g"), ((2, 5, True), "i"), ((2, "5", 1), "e")],
    )
    def test_rejects_values_that_are_not_ints(self, fields, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            ChamberSpec(*fields)


class TestFlipRoute:
    @pytest.mark.parametrize("g,e", [(2, 2), (2, 3), (3, 5), (4, 7)])
    def test_first_chamber_is_projective_bundle(self, g, e):
        expected = jacobian(g) * projective_space(g, e + g - 2)
        assert pair_motive_flip(ChamberSpec(g=g, e=e, i=0)) == expected

    def test_genus_two_degree_three_second_chamber(self):
        # crossing the single wall adds the curve times one Tate twist
        cls = pair_motive_flip(ChamberSpec(g=2, e=3, i=1))
        expected = jacobian(2) * (
            projective_space(2, 3) + sym_curve(2, 1).tate_twist(1)
        )
        assert cls == expected
        assert cls.poincare_polynomial().evaluate(1) == 160

    @pytest.mark.parametrize("g", [2, 3])
    def test_top_degree_is_twice_dimension(self, g):
        for e in range(2, 4 * g - 4):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                cls = pair_motive_flip(spec)
                assert cls.poincare_polynomial().degree == 2 * pair_dimension(spec)
                assert cls.is_effective()

    def test_negative_wall_contribution_still_effective(self):
        # at (g,e,i) = (4,11,5) the last wall-crossing term is negative, yet
        # the total class must stay effective
        cls = pair_motive_flip(ChamberSpec(g=4, e=11, i=5))
        assert cls.is_effective()
        previous = pair_motive_flip(ChamberSpec(g=4, e=11, i=4))
        assert not (cls - previous).is_effective()

    # every e <= 4g-5 for g <= 6, and e up to 40 at g = 3 and at g = 1
    @pytest.mark.parametrize(
        "g,top", [(2, 3), (3, 7), (4, 11), (5, 15), (6, 19), (3, 40), (1, 40)]
    )
    def test_packed_sum_matches_the_wall_by_wall_reference(self, g, top):
        for e in range(2, top + 1):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                assert pair_motive_flip(spec) == pair_flip_reference(spec)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_realization_matches_the_term_by_term_reference(self, g):
        for e in range(2, 4 * g - 4):
            for i in range((e - 1) // 2 + 1):
                cls = pair_motive_flip(ChamberSpec(g=g, e=e, i=i))
                assert cls.hodge_realization() == hodge_realization_reference(cls)


class TestSymCoeffPoly:
    def test_small_example_equals_expanded_quotient(self):
        # (1-T^2)(1-T^3)/(1-T)^2 expanded via the convolution oracle
        expected = conv([1, 1], [1, 1, 1])
        assert expected == [1, 2, 2, 1]  # frozen
        assert sym_coeff_poly(2, 1, 3, 0) == IntPoly(expected)

    def test_vanishes_when_twist_exponents_collide(self):
        # at b = e+g-1-2i the numerator's leading factor is zero
        for g, i, e in [(2, 2, 5), (6, 8, 18)]:
            b = e + g - 1 - 2 * i
            assert 0 <= b <= i
            assert sym_coeff_poly(g, i, e, b).is_zero()

    def test_negative_branch(self):
        assert sym_coeff_poly(6, 8, 18, 8) == IntPoly([0] * 7 + [-1])  # -T^7

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolation):
            sym_coeff_poly(2, 1, 3, 2)  # b > i
        with pytest.raises(HypothesisViolation):
            sym_coeff_poly(2, 2, 4, 1)  # 2i >= e
        with pytest.raises(HypothesisViolation):
            sym_coeff_poly(1, 1, 4, 0)  # genus too small


class TestFoldedCoeffPoly:
    def test_worked_example_via_polynomial_oracle(self):
        # T^(b-g) * Q_b + Q_(2g-b) at (g,i,e,b) = (6,8,18,8), recomputed
        # from scratch with exact polynomial products
        q_high = sym_coeff_poly(6, 8, 18, 8)
        q_low = IntPoly.monomial(4) * (
            IntPoly([1, 1, 1]) * IntPoly([1, 1, 1, 1, 1]) * IntPoly([1, 0, 1, 0, 1])
        )
        assert sym_coeff_poly(6, 8, 18, 4) == q_low
        expected = IntPoly.monomial(2) * q_high + q_low
        frozen = IntPoly([0, 0, 0, 0, 1, 2, 4, 5, 7, 6, 7, 5, 4, 2, 1])
        assert expected == frozen
        assert folded_coeff_poly(6, 8, 18, 8) == frozen
        assert frozen.is_nonneg()

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            folded_coeff_poly(2, 1, 3, 1)  # floor(e/2) = 1 is not > i

    def test_a_negative_folded_polynomial_is_a_reported_failure(
        self, capsys, negative_folded_total
    ):
        with pytest.raises(ArithmeticError, match="negative coefficient"):
            folded_coeff_poly(*FOLDED_CASE)
        result = verify_module.sweep_positivity(6)
        assert result.failures == ["g=6, i=8, e=18, b=8: folded polynomial negative"]
        assert main(["verify", "--suite", "positivity", "--max-genus", "6"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"positivity: FAIL (1/{result.checked} checks failed)")
        assert "g=6, i=8, e=18, b=8: folded polynomial negative" in out

    def test_admissible_tuples_are_nonnegative_small(self):
        for g in range(2, 7):
            for e in range(2, 4 * g - 4):
                for i in range(0, (e - 1) // 2 + 1):
                    for b in range(i + 1):
                        if e + g - 1 - 2 * i < b <= i < e // 2 <= 2 * g - 3:
                            assert b >= g + 1
                            assert folded_coeff_poly(g, i, e, b).is_nonneg()


class TestClosedFormRoutes:
    def test_sym_agrees_with_flip_plain_case(self):
        for g, e, i in [(2, 2, 0), (3, 6, 2), (3, 7, 2), (4, 9, 3)]:
            spec = ChamberSpec(g=g, e=e, i=i)
            assert pair_motive_sym(spec) == pair_motive_flip(spec)

    def test_sym_agrees_with_flip_folded_case(self):
        # smallest chamber requiring the folded polynomials
        spec = ChamberSpec(g=6, e=18, i=8)
        assert 3 * spec.i > spec.e + spec.g - 1
        assert pair_motive_sym(spec) == pair_motive_flip(spec)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_sym_one_loop_matches_the_two_branch_reference(self, g):
        # folded terms occur from g = 6 on, plain ones in every genus
        branches = set()
        for e in range(2, 4 * g - 4):
            for i in range(e // 2):
                spec = ChamberSpec(g=g, e=e, i=i)
                branches.add(3 * i <= e + g - 1)
                assert pair_motive_sym(spec) == pair_sym_reference(spec)
        assert branches == ({True, False} if g >= 6 else {True})

    def test_sym_sums_plainly_without_the_folded_polynomial(self, monkeypatch):
        def refused(*args):
            raise AssertionError("folded_coeff_poly called")

        monkeypatch.setattr(pairs_module, "folded_coeff_poly", refused)
        for g in range(2, 9):
            for e in range(2, 4 * g - 4):
                for i in range(e // 2):
                    pair_cofactor_sym(ChamberSpec(g=g, e=e, i=i))

    def test_a_negative_folded_total_fails_the_effectivity_check(self, negative_folded_total):
        spec = ChamberSpec(g=6, e=18, i=8)
        message = re.escape(f"pair class for {spec} has a negative coefficient")
        with pytest.raises(ArithmeticError, match=message):
            pair_cofactor_sym(spec)

    def test_a_negative_route_is_a_reported_failure(self, capsys, negative_folded_total):
        spec = ChamberSpec(g=6, e=18, i=8)
        result = verify_module.sweep_route_agreement(6)
        assert result.failures == [
            f"{spec}: symmetric-power basis form fails: "
            f"pair class for {spec} has a negative coefficient"
        ]
        assert main(["verify", "--suite", "identities", "--max-genus", "6"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"route-agreement: FAIL (1/{result.checked} checks failed)")
        assert f"{spec}: symmetric-power basis form fails" in out

    def test_a_negative_flip_cofactor_is_a_reported_failure(self, monkeypatch):
        spec = ChamberSpec(g=3, e=4, i=1)

        def refused(s):
            raise ArithmeticError(f"pair class for {s} has a negative coefficient")

        flip = verify_module.pair_cofactor_flip
        monkeypatch.setattr(
            verify_module, "pair_cofactor_flip", lambda s: refused(s) if s == spec else flip(s)
        )
        result = verify_module.sweep_route_agreement(3)
        assert result.failures == [
            f"{spec}: wall-crossing fails: pair class for {spec} has a negative coefficient"
        ]

    def test_a_closed_form_off_the_division_fails_positivity(self, monkeypatch):
        q = verify_module.sym_coeff_poly
        monkeypatch.setattr(
            verify_module,
            "sym_coeff_poly",
            lambda g, i, e, b: q(g, i, e, b) + IntPoly([int((g, i, e, b) == (4, 3, 9, 1))]),
        )
        assert verify_module.sweep_positivity(4).failures == [
            "g=4, i=3, e=9, b=1: wrong sign pattern or routes differ"
        ]

    def test_sym_hypothesis_violations(self):
        with pytest.raises(HypothesisViolation):
            pair_motive_sym(ChamberSpec(g=2, e=3, i=1))  # i = floor(e/2)
        with pytest.raises(HypothesisViolation):
            pair_motive_sym(ChamberSpec(g=2, e=5, i=1))  # floor(e/2) > 2g-3

    def test_geo_agrees_with_flip_small_case(self):
        spec = ChamberSpec(g=2, e=3, i=1)
        assert pair_motive_geo(spec) == pair_motive_flip(spec)

    def test_geo_first_chamber(self):
        spec = ChamberSpec(g=3, e=5, i=0)
        assert pair_motive_geo(spec) == jacobian(3) * projective_space(3, 5 + 3 - 2)

    def test_geo_agrees_with_flip_rearranged_case(self):
        # smallest chamber hitting the rearranged four-part sum
        spec = ChamberSpec(g=4, e=11, i=5)
        assert 3 * spec.i >= spec.e + spec.g
        assert pair_motive_geo(spec) == pair_motive_flip(spec)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_geo_packed_sum_matches_the_term_by_term_reference(self, g):
        # the Jacobian-squared tail term of the rearranged sum is nonzero
        # from g = 6 on; dropping it fails here
        branches = set()
        for e in range(2, 4 * g - 4):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                branches.add(3 * i < e + g)
                assert pair_motive_geo(spec) == pair_geo_reference(spec)
        assert branches == ({True, False} if g >= 4 else {True})

    @pytest.mark.parametrize("g", range(2, 7))
    def test_poincare_polynomial_of_every_route(self, g):
        for e in range(2, 4 * g - 4):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                routes = [pair_motive_flip, pair_motive_geo]
                if i < e // 2 <= 2 * g - 3:
                    routes.append(pair_motive_sym)
                for route in routes:
                    cls = route(spec)
                    assert cls.poincare_polynomial() == poincare_reference(cls)

    def test_geo_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            pair_motive_geo(ChamberSpec(g=2, e=4, i=1))  # e > 4g-5


class TestEffectivityCheck:
    @pytest.mark.parametrize("route", [pair_motive_flip, pair_motive_sym, pair_motive_geo])
    def test_every_route_names_its_spec(self, monkeypatch, route):
        spec = ChamberSpec(g=3, e=4, i=1)
        pair_cofactor_flip.cache_clear()  # a cached cofactor would skip the check
        monkeypatch.setattr(MotiveClass, "is_effective", lambda self: False)
        message = re.escape(f"pair class for {spec} has a negative coefficient")
        with pytest.raises(ArithmeticError, match=message):
            route(spec)


class TestCofactors:
    @pytest.fixture
    def fresh_caches(self):
        pair_cofactor_flip.cache_clear()
        yield
        pair_cofactor_flip.cache_clear()

    @pytest.mark.parametrize("g", range(1, 9))
    def test_jacobian_times_cofactor_is_each_routes_class(self, g):
        jac = jacobian(g)
        for e in range(2, 4 * g + 6):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                routes = [(pair_motive_flip, pair_cofactor_flip)]
                if e <= 4 * g - 5:
                    routes.append((pair_motive_geo, pair_cofactor_geo))
                if g >= 2 and i < e // 2 <= 2 * g - 3:
                    routes.append((pair_motive_sym, pair_cofactor_sym))
                flip = jac * pair_cofactor_flip(spec)
                for route, cofactor in routes:
                    assert route(spec) == jac * cofactor(spec) == flip, (spec, route)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_top_degree_of_every_flip_cofactor(self, g):
        for e in range(2, 4 * g + 6):
            for i in range((e - 1) // 2 + 1):
                flip = pair_cofactor_flip(ChamberSpec(g=g, e=e, i=i))
                assert top_degree(flip) == flip.poincare_polynomial().degree

    def test_route_agreement_realizes_no_class(self, monkeypatch):
        def refused(self):
            raise AssertionError("a class was realized")

        monkeypatch.setattr(MotiveClass, "hodge_matrix", refused)
        monkeypatch.setattr(MotiveClass, "poincare_polynomial", refused)
        assert verify_module.sweep_route_agreement(6).passed

    def test_a_perturbed_sym_cofactor_is_a_reported_failure(self, monkeypatch):
        def perturbed(spec):
            return pair_cofactor_sym(spec) + tate(spec.g, 1)

        monkeypatch.setattr(verify_module, "pair_cofactor_sym", perturbed)
        result = verify_module.sweep_route_agreement(3)
        assert not result.passed
        assert "symmetric-power basis form disagrees" in result.failures[0]

    def test_a_negative_flip_block_raises_naming_the_spec(self, monkeypatch, fresh_caches):
        block = pairs_module._flip_block
        monkeypatch.setattr(pairs_module, "_flip_block", lambda g, e, j: block(g, e, j)[::-1])
        spec = ChamberSpec(g=3, e=4, i=1)
        message = re.escape(f"pair class for {spec} has a negative coefficient")
        with pytest.raises(ArithmeticError, match=message):
            pair_cofactor_flip(spec)

    def test_geo_takes_its_wall_terms_from_the_flip_block(self, monkeypatch):
        # 3i < e + g: the geometric form is the flip sum, so the same swap breaks it
        block = pairs_module._flip_block
        monkeypatch.setattr(pairs_module, "_flip_block", lambda g, e, j: block(g, e, j)[::-1])
        spec = ChamberSpec(g=3, e=4, i=1)
        message = re.escape(f"pair class for {spec} has a negative coefficient")
        with pytest.raises(ArithmeticError, match=message):
            pair_cofactor_geo(spec)


class TestSymUnfolded:
    """The flip cofactor against the plain ``S_b`` sum of
    :func:`support.pair_sym_unfolded`, chambers past ``e = 4g - 5`` among them:
    no closed route reaches those, and there flip's packed sum divides by
    ``L - 1`` longest."""

    @pytest.mark.parametrize("g", range(2, 7))
    def test_every_chamber_below_4g_plus_30(self, g):
        for e in range(2, 4 * g + 30):
            for i in range((e - 1) // 2 + 1):
                spec = ChamberSpec(g=g, e=e, i=i)
                assert pair_cofactor_flip(spec) == pair_sym_unfolded(spec), spec

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(2, 30).flatmap(lambda g: st.integers(2, 400).flatmap(
        lambda e: st.builds(ChamberSpec, st.just(g), st.just(e), st.integers(0, (e - 1) // 2))
    )))
    def test_a_sample_of_chambers_up_to_e_400(self, spec):
        assert pair_cofactor_flip(spec) == pair_sym_unfolded(spec)


class TestHodgeSymmetry:
    @pytest.mark.parametrize("g,e,i", [(2, 3, 1), (3, 7, 3), (4, 11, 5)])
    def test_realization_is_symmetric(self, g, e, i):
        # the realization mirrors half the diamond, so it is symmetric by
        # construction; the term-by-term reference forms both halves
        cls = pair_motive_flip(ChamberSpec(g=g, e=e, i=i))
        expected = hodge_realization_reference(cls)
        assert expected.is_symmetric()
        assert cls.hodge_realization() == expected
