import copy
import json
import pickle
import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modulimotives.motive as motive_module
from modulimotives import (
    BiPoly,
    ChamberSpec,
    GenusMismatch,
    IntPoly,
    MotiveClass,
    NonExactDivision,
    chamber_of,
    chambers,
    folded_coeff_poly,
    from_tate_poly,
    jacobian,
    projective_space,
    sym_coeff_poly,
    sym_curve,
    sym_h1,
    sym_h1_hodge_poly,
    tate,
    unit,
    zero,
)
from modulimotives.cli import main
from modulimotives.motive import sum_of_products, top_degree
from modulimotives.pairs import pair_cofactor_flip, pair_cofactor_geo
from support import (
    class_product_reference,
    classes_strategy,
    hodge_realization_reference,
    poincare_reference,
    sym_curve_reference,
)


def L(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


class TestSymH1Reduction:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_identity_at_g(self, g):
        assert sym_h1(g, g) == MotiveClass(g, {(g,): IntPoly.one()})

    @pytest.mark.parametrize("g", range(1, 7))
    def test_top_index_is_tate(self, g):
        assert sym_h1(g, 2 * g) == tate(g, g)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_vanishing_above_two_g(self, g):
        assert sym_h1(g, 2 * g + 1).is_zero()
        assert sym_h1(g, 3 * g + 2).is_zero()

    def test_reflection(self):
        # S_b -> S_(2g-b) * L^(b-g) for g < b <= 2g
        assert sym_h1(3, 4) == MotiveClass(3, {(2,): L(0, 1)})
        assert sym_h1(3, 5) == MotiveClass(3, {(1,): L(0, 0, 1)})

    def test_index_zero_is_unit(self):
        assert sym_h1(4, 0) == unit(4)

    @pytest.mark.parametrize(
        "g, b, error, message",
        [
            pytest.param(True, 1, TypeError, "genus must be an int, got True", id="bool-genus"),
            pytest.param(2.0, 1, TypeError, "genus must be an int, got 2.0", id="float-genus"),
            pytest.param(0, 1, ValueError, "genus must be >= 1, got 0", id="genus-0"),
            pytest.param(0, 3, ValueError, "genus must be >= 1, got 0", id="genus-0-above-2g"),
            pytest.param(2, True, TypeError, "b must be an int, got True", id="bool-b"),
            pytest.param(2, 1.0, TypeError, "b must be an int, got 1.0", id="float-b"),
            pytest.param(0, -1, ValueError, "negative symmetric-power index -1", id="b-first"),
        ],
    )
    def test_checks_its_arguments_as_the_constructor_does(self, g, b, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sym_h1(g, b)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_unchecked_build_equals_the_public_constructor(self, g):
        for b in range(2 * g + 3):
            cls = sym_h1(g, b)
            assert cls == MotiveClass(g, cls.as_dict())


class TestSymCurve:
    def test_zeroth_power(self):
        assert sym_curve(3, 0) == unit(3)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_curve_itself(self, g):
        assert sym_curve(g, 1) == MotiveClass(
            g, {(): L(1, 1), (1,): IntPoly.one()}
        )

    def test_third_power_genus_two_against_composition_oracle(self):
        # enumerate a+b+c=3, reduce indices above g by hand
        g, j = 2, 3
        expected = zero(g)
        for a, b, c in product(range(j + 1), repeat=3):
            if a + b + c == j:
                expected = expected + sym_h1(g, b) * IntPoly.monomial(c)
        assert expected == MotiveClass(
            g, {(): L(1, 1, 1, 1), (1,): L(1, 2, 1), (2,): L(1, 1)}
        )
        assert sym_curve(g, j) == expected

    @pytest.mark.parametrize("g", range(1, 9))
    def test_direct_construction_matches_the_sum_of_generators(self, g):
        for j in range(6 * g + 1):
            assert sym_curve(g, j) == sym_curve_reference(g, j)

    def test_third_power_genus_two_is_line_bundle_over_jacobian(self):
        # C^(3) at g=2 is a projective-line bundle over the Jacobian
        assert sym_curve(2, 3) == jacobian(2) * projective_space(2, 1)


class TestGenusAndIndexAtTheBoundary:
    """``sym_curve`` and ``sym_h1_hodge_poly`` refuse what ``MotiveClass``
    refuses, before anything is cached."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: sym_curve(0, 3), "genus must be >= 1, got 0", id="sym_curve-g0"),
            pytest.param(lambda: sym_curve(-1, 2), "genus must be >= 1, got -1", id="sym_curve-g-1"),
            pytest.param(lambda: sym_h1_hodge_poly(0, 0), "genus must be >= 1", id="hodge-g0"),
            pytest.param(lambda: sym_h1_hodge_poly(-1, 1), "genus must be >= 1", id="hodge-g-1"),
            pytest.param(lambda: sym_h1_hodge_poly(2, -1), "b >= 0, got genus 2 and b -1", id="hodge-b-1"),
        ],
    )
    def test_out_of_range_raises_every_time(self, call, message):
        for _ in range(2):  # a refused call leaves nothing in the cache
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "g, b, name",
        [
            pytest.param(True, 1, "g", id="g-bool"),
            pytest.param(2.0, 1, "g", id="g-float"),
            pytest.param(1, True, "b", id="b-bool"),
            pytest.param(2, 1.0, "b", id="b-float"),
        ],
    )
    def test_hodge_poly_names_an_argument_that_is_not_an_int(self, g, b, name):
        # the equal int calls are cached first; typed=True makes these miss
        assert sym_h1_hodge_poly(1, 1) and sym_h1_hodge_poly(2, 1)
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            sym_h1_hodge_poly(g, b)

    @pytest.mark.parametrize(
        "g, b, expected",
        [
            pytest.param(1, 0, BiPoly.one(), id="g1-b0"),
            pytest.param(1, 2, BiPoly({(1, 1): 1}), id="g1-b2"),
            pytest.param(1, 3, BiPoly.zero(), id="g1-b3"),
            pytest.param(3, 7, BiPoly.zero(), id="g3-b7"),
        ],
    )
    def test_hodge_poly_at_the_edges_of_the_range(self, g, b, expected):
        assert sym_h1_hodge_poly(g, b) == expected


class TestJacobian:
    def test_genus_one(self):
        assert jacobian(1) == MotiveClass(1, {(): L(1, 1), (1,): IntPoly.one()})

    def test_genus_two(self):
        assert jacobian(2) == MotiveClass(
            2, {(): L(1, 0, 1), (1,): L(1, 1), (2,): IntPoly.one()}
        )

    @pytest.mark.parametrize("g", range(1, 5))
    def test_total_betti_number(self, g):
        assert jacobian(g).hodge_realization().evaluate(1, 1) == 2 ** (2 * g)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_poincare_polynomial(self, g):
        assert jacobian(g).poincare_polynomial() == IntPoly(
            [comb(2 * g, k) for k in range(2 * g + 1)]
        )


class TestProjectiveSpace:
    def test_examples(self):
        assert projective_space(2, 0) == unit(2)
        assert projective_space(2, 2) == from_tate_poly(2, L(1, 1, 1))
        # dimension e+g-2 with e=3, g=2
        assert projective_space(2, 3) == from_tate_poly(2, L(1, 1, 1, 1))

    @pytest.mark.parametrize("n", range(4))
    def test_poincare_polynomial(self, n):
        expected = [0] * (2 * n + 1)
        expected[0::2] = [1] * (n + 1)
        assert projective_space(2, n).poincare_polynomial() == IntPoly(expected)

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            projective_space(2, -1)


class TestIntArguments:
    @pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda x: tate(2, x), "k"),
            (lambda x: jacobian(2).tate_twist(x), "k"),
            (lambda x: projective_space(2, x), "n"),
            (lambda x: sym_h1(2, x), "b"),
            (lambda x: sym_curve(2, x), "j"),
            (lambda x: sym_curve(x, 1), "g"),
            pytest.param(lambda x: chambers(x), "e", id="chambers-e"),
            pytest.param(lambda x: chamber_of(Fraction(1, 3), x), "e", id="chamber_of-e"),
            # sigma must be an int or a Fraction
            pytest.param(lambda x: chamber_of(x, 5), "sigma", id="chamber_of-sigma"),
            pytest.param(lambda x: sym_coeff_poly(x, 1, 5, 0), "g", id="sym_coeff-g"),
            pytest.param(lambda x: sym_coeff_poly(3, x, 5, 0), "i", id="sym_coeff-i"),
            pytest.param(lambda x: sym_coeff_poly(3, 1, x, 0), "e", id="sym_coeff-e"),
            pytest.param(lambda x: sym_coeff_poly(3, 1, 5, x), "b", id="sym_coeff-b"),
            pytest.param(lambda x: folded_coeff_poly(x, 8, 18, 8), "g", id="folded-g"),
            pytest.param(lambda x: folded_coeff_poly(6, x, 18, 8), "i", id="folded-i"),
            pytest.param(lambda x: folded_coeff_poly(6, 8, x, 8), "e", id="folded-e"),
            pytest.param(lambda x: folded_coeff_poly(6, 8, 18, x), "b", id="folded-b"),
        ],
    )
    def test_a_bool_or_non_int_argument_is_named(self, call, name, bad):
        # sym_curve(2, 1) is cached first: sym_curve(2, True) and
        # sym_curve(2, 1.0) hash equal to it and must still be checked
        assert sym_curve(2, 1) == sym_curve_reference(2, 1)
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            call(bad)


class TestRingOperations:
    def test_tate_twist_of_unit(self):
        assert unit(2).tate_twist(3) == tate(2, 3)
        assert tate(2, 2) * tate(2, 5) == tate(2, 7)

    def test_multiply_generator_by_tate_poly(self):
        assert sym_h1(2, 1) * L(1, 1) == MotiveClass(2, {(1,): L(1, 1)})

    def test_jacobian_square_monomials(self):
        square = jacobian(2) * jacobian(2)
        assert square.monomials() == [(), (1,), (1, 1), (1, 2), (2,), (2, 2)]

    def test_genus_mismatch_raises(self):
        with pytest.raises(GenusMismatch):
            jacobian(2) + jacobian(3)
        with pytest.raises(GenusMismatch):
            jacobian(2) * unit(3)

    def test_coefficient_ignores_the_order_of_the_indices(self):
        square = sym_curve(3, 2) * sym_curve(3, 2)
        assert square.coefficient((2, 1)) == square.coefficient((1, 2)) == L(2, 2)

    def test_subtraction_and_effectivity(self):
        diff = jacobian(2) - unit(2)
        assert diff.is_effective()
        assert not (unit(2) - jacobian(2)).is_effective()
        assert (jacobian(2) - jacobian(2)).is_zero()


class TestHodgeRealization:
    def test_weight_one_part_genus_two(self):
        assert sym_h1(2, 1).hodge_realization() == BiPoly({(1, 0): 2, (0, 1): 2})

    def test_second_symmetric_power_genus_two_binomials(self):
        expected = BiPoly({(p, 2 - p): comb(2, p) * comb(2, 2 - p) for p in range(3)})
        assert expected == BiPoly({(2, 0): 1, (1, 1): 4, (0, 2): 1})
        assert sym_h1(2, 2).hodge_realization() == expected

    @pytest.mark.parametrize("g", range(1, 9))
    def test_realization_commutes_with_reduction(self, g):
        # the closed Hodge formula, extended beyond index g, agrees with the
        # realization of the reduced class
        for b in range(0, 2 * g + 3):
            assert sym_h1_hodge_poly(g, b) == sym_h1(g, b).hodge_realization()

    def test_tate_class_realizes_on_diagonal(self):
        assert tate(3, 4).hodge_realization() == BiPoly({(4, 4): 1})

    def test_cancelling_entries_are_dropped(self):
        # S_1^2 - 2L realizes to (u + v)^2 - 2uv at g = 1
        cls = MotiveClass(1, {(1, 1): L(1), (): L(0, -2)})
        assert cls.hodge_realization() == BiPoly({(2, 0): 1, (0, 2): 1})
        assert (jacobian(2) - jacobian(2)).hodge_realization().is_zero()


genus_and_classes = st.integers(2, 4).flatmap(
    lambda g: st.tuples(st.just(g), classes_strategy(g), classes_strategy(g))
)


class TestPackedRealization:
    """Edge cases of the packed realization, each checked against the
    term-by-term reference.  A class is packed with ``w`` bits per digit,
    ``w = _width(bound, cast=True)``: one bit more than the coefficient bound
    (the sum over terms of max |c_k| times the largest Hodge number) needs,
    rounded up to 8, 16, 32 or 64 bits when it fits in 64."""

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_zero_class(self, g):
        assert zero(g).hodge_realization().is_zero()
        assert hodge_realization_reference(zero(g)).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 80, 15, 31, 71, 135])
    def test_digits_at_the_edge_of_the_width(self, n):
        # one term of Hodge number 1: the bound is 2^n - 1, so where n + 1 is 8,
        # 16, 32, 64 or above 64, w = n + 1 and every digit is +-(2^(w-1) - 1),
        # alternating so that each one borrows
        big = 2**n - 1
        coeffs = [big, -big] * 3 + [big]
        for cls, h in (
            (from_tate_poly(3, IntPoly(coeffs)), {(0, 0): 1}),
            (MotiveClass(1, {(1,): IntPoly(coeffs)}), {(1, 0): 1, (0, 1): 1}),
        ):
            expected = BiPoly(
                {(p + k, q + k): c * hc for k, c in enumerate(coeffs) for (p, q), hc in h.items()}
            )
            assert cls.hodge_realization() == expected == hodge_realization_reference(cls)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_alternating_signs_borrow_across_digits(self, g):
        coeffs = [(-1) ** k * (2**40 + k) for k in range(13)]
        terms = {
            (): IntPoly(coeffs),
            (1,): IntPoly(coeffs[::-1]),
            (1, 1): IntPoly([-c for c in coeffs]),
            (1, 1, 1): IntPoly([1, -1] * 6),
        }
        cls = MotiveClass(g, terms)
        assert cls.hodge_realization() == hodge_realization_reference(cls)
        assert (cls - cls).hodge_realization().is_zero()

    def test_a_line_that_cancels_to_zero(self):
        # 4 S_2 - S_1^2 realizes to 8uv at g = 2: the lines p - q = +-2 cancel
        c = IntPoly([3, -(2**70), 5, 0, -1])
        cls = MotiveClass(2, {(2,): c * 4, (1, 1): -c})
        expected = BiPoly({(k + 1, k + 1): 8 * x for k, x in enumerate(c.coeffs)})
        assert cls.hodge_realization() == expected == hodge_realization_reference(cls)

    @given(classes_strategy(1), classes_strategy(1))
    def test_genus_one(self, a, b):
        for cls in (a, a - b, a * b):
            assert cls.hodge_realization() == hodge_realization_reference(cls)


class TestDirectPoincare:
    """The Poincaré polynomial as its own ring map against the specialized
    Hodge realization.  It is packed with ``w`` bits per digit, where
    ``2^(w-1) - 1`` is the smallest such number >= the bound (the sum over
    terms of max |c_k| times the monomial's Betti number)."""

    @given(st.integers(1, 4).flatmap(
        lambda g: st.tuples(classes_strategy(g), classes_strategy(g))
    ))
    def test_matches_the_specialized_realization(self, classes):
        a, b = classes
        for cls in (a, -a, a - b, a * b, zero(a.genus)):
            assert cls.poincare_polynomial() == poincare_reference(cls)

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_zero_class(self, g):
        assert zero(g).poincare_polynomial().is_zero()
        assert (jacobian(g) - jacobian(g)).poincare_polynomial().is_zero()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 80, 15, 31, 71, 135])
    def test_digits_at_the_edge_of_the_width(self, n):
        # both bounds are 2^n - 1, so w = n + 1; the digits alternate in sign
        # so that each one borrows
        big = 2**n - 1
        coeffs = [big, -big] * 3 + [big]
        tate_only = from_tate_poly(3, IntPoly(coeffs))
        expected = [0] * (2 * len(coeffs) - 1)
        expected[0::2] = coeffs
        assert tate_only.poincare_polynomial() == IntPoly(expected)
        half = 2 ** (n - 1) - 1  # Betti number 2 for S_1 at g = 1
        mixed = MotiveClass(1, {(): L(1, -1, 1, -1), (1,): L(*[half, -half] * 3)})
        for cls in (tate_only, mixed):
            assert cls.poincare_polynomial() == poincare_reference(cls)

    def test_builds_no_hodge_realization(self, monkeypatch):
        expected = poincare_reference(jacobian(3) * sym_curve(3, 4))
        monkeypatch.setattr(MotiveClass, "hodge_realization", None)
        assert (jacobian(3) * sym_curve(3, 4)).poincare_polynomial() == expected


class TestTopDegree:
    """The top degree read off an effective class's terms is the degree of
    its Poincaré polynomial."""

    @given(st.integers(1, 4).flatmap(classes_strategy))
    def test_matches_the_poincare_degree(self, cls):
        effective = MotiveClass(
            cls.genus, {m: IntPoly([abs(c) for c in p.coeffs]) for m, p in cls.items()}
        )
        for x in (effective, zero(cls.genus)):
            assert top_degree(x) == x.poincare_polynomial().degree

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_zero_class_and_products(self, g):
        assert top_degree(zero(g)) == -1
        product = jacobian(g) * sym_curve(g, 3)
        assert top_degree(product) == 2 * g + 6 == product.poincare_polynomial().degree


class TestPackedProduct:
    """The packed class product against the pair-by-pair schoolbook product.
    A product is packed with ``w`` bits per digit, where ``2^(w-1) - 1`` is
    the smallest such number >= ``||a||_1 * ||b||_inf``."""

    @given(genus_and_classes)
    def test_matches_the_schoolbook_reference(self, data):
        _, a, b = data
        for x, y in ((a, b), (b, a), (a - b, a), (a, a)):
            assert x * y == class_product_reference(x, y)

    @given(st.integers(1, 4).flatmap(lambda g: st.lists(
        st.tuples(classes_strategy(g), classes_strategy(g)), min_size=1, max_size=4
    )))
    def test_sum_of_products_matches_the_sum_of_references(self, pairs):
        expected = zero(pairs[0][0].genus)
        for a, b in pairs:
            expected = expected + class_product_reference(a, b)
        assert sum_of_products(pairs) == expected

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_zero_class(self, g):
        for cls in (zero(g), jacobian(g), MotiveClass(g, {(1,): L(-(2**80), 3)})):
            assert (zero(g) * cls).is_zero() and (cls * zero(g)).is_zero()
        assert sum_of_products([(zero(g), zero(g))]).is_zero()

    def test_a_monomial_that_cancels_to_zero(self):
        # (S_1 + c) * (S_1 - c) = S_1^2 - c^2: the terms of S_1 cancel
        c = L(2**70, -3, 0, 1)
        plus = MotiveClass(2, {(1,): L(1), (): c})
        minus = MotiveClass(2, {(1,): L(1), (): -c})
        product = plus * minus
        assert product.monomials() == [(), (1, 1)]
        assert product == class_product_reference(plus, minus)
        assert product.coefficient(()) == -(c * c)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 80, 15, 31, 71, 135])
    def test_digits_at_the_edge_of_the_width(self, n):
        # ||a||_1 = 1 and ||b||_inf = 2^n - 1, so w = n + 1 and every digit
        # is +-(2^(w-1) - 1), alternating so that each one borrows
        big = 2**n - 1
        b = MotiveClass(3, {(1,): L(*[big, -big] * 3, big), (2,): L(-big, big)})
        for a in (unit(3), -unit(3), sym_h1(3, 3), tate(3, 2)):
            assert a * b == class_product_reference(a, b)
            assert b * a == class_product_reference(b, a)

    def test_genus_mismatch_in_a_sum_of_products(self):
        with pytest.raises(GenusMismatch):
            sum_of_products([(unit(2), unit(2)), (unit(3), unit(3))])
        with pytest.raises(GenusMismatch):  # a class right factor is still checked
            sum_of_products([(unit(2), L(1)), (sym_curve(2, 3), unit(3))])
        with pytest.raises(GenusMismatch):
            sum_of_products([(unit(2), L(1)), (unit(3), L(1))])


def _right_factor(g):
    """A class of genus ``g``, or an ``IntPoly`` (zero among them) with
    coefficients up to 2^80 in absolute value."""
    polys = st.lists(st.integers(-(2**80), 2**80), max_size=13).map(IntPoly)
    return st.one_of(classes_strategy(g), polys, st.just(IntPoly.zero()))


def _left_factor(g):
    """A class of genus ``g``, or a Jacobian multiple of one."""
    return st.one_of(classes_strategy(g), classes_strategy(g).map(lambda c: jacobian(g) * c))


class TestPolynomialRightFactor:
    """``sum_of_products`` takes an ``IntPoly`` right factor as the unit
    monomial times it, next to class right factors in one list."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(lambda g: st.lists(
        st.tuples(_left_factor(g), _right_factor(g)), min_size=1, max_size=4
    )))
    def test_mixed_pairs_match_the_sum_of_references(self, pairs):
        g = pairs[0][0].genus
        expected = zero(g)
        for a, b in pairs:
            b = b if isinstance(b, MotiveClass) else from_tate_poly(g, b)
            expected = expected + class_product_reference(a, b)
        assert sum_of_products(pairs) == expected

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_zero_polynomial_and_a_jacobian_multiple(self, g):
        jac_multiple = jacobian(g) * sym_curve(g, 2)
        big = L(2**80, -(2**80), 3)
        pairs = [(sym_curve(g, 3), IntPoly.zero()), (jac_multiple, big), (sym_curve(g, 1), big)]
        expected = class_product_reference(jac_multiple, from_tate_poly(g, big))
        expected = expected + class_product_reference(sym_curve(g, 1), from_tate_poly(g, big))
        assert sum_of_products(pairs) == expected
        assert sum_of_products([(sym_curve(g, 3), IntPoly.zero())]).is_zero()


def _expanded(block):
    """A block ``(hi, lo)`` as the ``IntPoly`` ``(L^hi - L^lo) / (L - 1)``."""
    hi, lo = block
    return IntPoly.geometric(lo, hi - 1) if hi >= lo else -IntPoly.geometric(hi, lo - 1)


# blocks of every shape: any, hi < lo, hi == lo (empty) and lo == 0
_exponents = st.integers(0, 14)
_blocks = st.one_of(
    st.tuples(_exponents, _exponents),
    st.tuples(_exponents, _exponents).map(lambda b: (min(b), max(b) + 1)),
    _exponents.map(lambda n: (n, n)),
    _exponents.map(lambda n: (n, 0)),
)


def _block_left_factor(g):
    """A class of genus ``g`` (zero among them), a Jacobian multiple of one, or
    a class with coefficients of ``±2^80``."""
    big = MotiveClass(g, {(): L(2**80, -(2**80)), (1,): L(-(2**80))})
    return st.one_of(_left_factor(g), st.just(big))


class TestBlockRightFactor:
    """``sum_of_products`` takes a block ``(hi, lo)``, ``(L^hi - L^lo) / (L - 1)``,
    as a right factor: a sum that holds one is summed as numerators over ``L - 1``
    and divided once a monomial."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(lambda g: st.lists(
        st.tuples(_block_left_factor(g), st.one_of(_blocks, _right_factor(g))),
        min_size=1, max_size=5,
    )))
    def test_mixed_pairs_match_the_expanded_blocks_term_by_term(self, pairs):
        g = pairs[0][0].genus
        expected = zero(g)
        for a, b in pairs:
            if isinstance(b, tuple):
                b = _expanded(b)
            b = b if isinstance(b, MotiveClass) else from_tate_poly(g, b)
            expected = expected + class_product_reference(a, b)
        assert sum_of_products(pairs) == expected

    @pytest.mark.parametrize("g", [1, 3])
    def test_blocks_of_every_shape(self, g):
        for block in [(5, 2), (2, 5), (4, 4), (0, 0), (3, 0), (0, 3), (9, 8)]:
            for a in (sym_curve(g, 3), jacobian(g) * sym_curve(g, 2), zero(g)):
                expected = class_product_reference(a, from_tate_poly(g, _expanded(block)))
                assert sum_of_products([(a, block)]) == expected, (block, a)

    def test_no_geometric_block_is_expanded_on_the_flip_or_geo_route(self, monkeypatch):
        def refused(cls, low, high):
            raise AssertionError("IntPoly.geometric ran on the pair path")

        monkeypatch.setattr(IntPoly, "geometric", classmethod(refused))
        pair_cofactor_flip.cache_clear()
        try:
            for g in range(2, 6):  # both geo branches, negative and empty flip blocks
                for e in range(2, 4 * g - 4):
                    for i in range((e - 1) // 2 + 1):
                        spec = ChamberSpec(g=g, e=e, i=i)
                        assert pair_cofactor_flip(spec) == pair_cofactor_geo(spec)
        finally:
            pair_cofactor_flip.cache_clear()

    def test_the_one_division_is_exact(self):
        for w in (2, 3, 8, 31, 64, 65):
            for q in (0, 1, -1, 5 << (3 * w), -(2**200) + 7):
                assert motive_module._over_base_minus_one(q * ((1 << w) - 1), w) == q
            with pytest.raises(NonExactDivision, match="L - 1 does not divide"):
                motive_module._over_base_minus_one((1 << w) + 1, w)

    @pytest.fixture
    def numerator_off_by_one(self, monkeypatch):
        """Every numerator that reaches the division one more than summed: one
        that ``L - 1`` does not divide."""
        exact = motive_module._over_base_minus_one
        monkeypatch.setattr(motive_module, "_over_base_minus_one", lambda x, w: exact(x + 1, w))
        pair_cofactor_flip.cache_clear()
        yield
        pair_cofactor_flip.cache_clear()

    def test_a_numerator_l_minus_one_does_not_divide_raises(self, numerator_off_by_one):
        with pytest.raises(NonExactDivision, match="L - 1 does not divide"):
            sum_of_products([(sym_curve(2, 3), (5, 1))])
        with pytest.raises(NonExactDivision):
            pair_cofactor_flip(ChamberSpec(g=2, e=3, i=1))
        # a sum with no block divides nothing
        assert sum_of_products([(sym_curve(2, 3), L(1, 1))]) == sym_curve(2, 3) * L(1, 1)

    def test_the_cli_reports_an_inexact_division_as_an_internal_error(
        self, capsys, numerator_off_by_one
    ):
        for method in ("flip", "geo"):
            code = main(["pairs", "--genus", "2", "--e", "3", "--chamber", "1", "--method", method])
            out, err = capsys.readouterr()
            assert code == 3 and not out, method
            assert err.startswith("internal error: L - 1 does not divide"), method
            assert err.count("\n") == 1, method


class TestNorm1:
    """``MotiveClass._norm1``, read once and kept: the sum of ``||c||_1``."""

    @staticmethod
    def norm1(cls):
        return sum(abs(c) for _, p in cls.items() for c in p.coeffs)

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_equals_the_recomputed_norm(self, g):
        classes = [
            sym_curve(g, 4), jacobian(g), zero(g),
            jacobian(g) * sym_curve(g, 3),  # a Jacobian multiple, terms formed on read
            sym_curve(g, 2) * sym_curve(g, 3),
            MotiveClass(g, {(1,): L(-(2**80), 3)}) * (sym_curve(g, 1) - unit(g)),
        ]
        for cls in classes:
            assert cls._norm1 == self.norm1(cls)
            assert MotiveClass._norm1.__get__(cls) == cls._norm1  # kept in its slot
        assert zero(g)._norm1 == 0


class TestRingProperties:
    @given(genus_and_classes)
    def test_realization_matches_the_term_by_term_reference(self, data):
        _, a, b = data
        for cls in (a, a - b, a * b):
            assert cls.hodge_realization() == hodge_realization_reference(cls)

    @given(
        genus_and_classes, st.lists(st.integers(-3, 3), max_size=4), st.integers(0, 3)
    )
    def test_trusted_results_equal_the_public_constructor(self, data, coeffs, k):
        g, a, b = data
        assert (a - a).as_dict() == {}
        results = (a + b, a - b, -a, a * b, a * IntPoly(coeffs), a * k, a.tate_twist(k))
        for result in results:
            terms = result.as_dict()
            assert all(terms.values())
            assert MotiveClass(g, terms) == result

    @given(genus_and_classes)
    def test_hodge_realization_is_ring_homomorphism(self, data):
        _, a, b = data
        assert (a * b).hodge_realization() == a.hodge_realization() * b.hodge_realization()
        assert (a + b).hodge_realization() == a.hodge_realization() + b.hodge_realization()

    @given(genus_and_classes)
    def test_ring_laws(self, data):
        _, a, b = data
        assert a * b == b * a
        assert a + b == b + a

    @given(st.integers(2, 4), st.lists(st.integers(0, 12), min_size=1, max_size=3))
    def test_normal_form_is_idempotent(self, g, raw_indices):
        # build a class from raw indices up to 3g, then push its stored
        # monomials through the reduction again: nothing may change
        built = unit(g)
        for b in raw_indices:
            built = built * sym_h1(g, b)
        rebuilt = zero(g)
        for mono, poly in built.items():
            term = from_tate_poly(g, poly)
            for b in mono:
                term = term * sym_h1(g, b)
            rebuilt = rebuilt + term
        assert rebuilt == built


class TestSymmetricPowerReduction:
    @pytest.mark.parametrize("g", range(2, 6))
    def test_identity_in_normal_form(self, g):
        # for g <= j <= 2g-2 the j-th symmetric power splits off a Jacobian
        # times projective-space part, dual to the (2g-2-j)-th power
        for j in range(g, 2 * g - 1):
            assert sym_curve(g, j) == sym_curve(g, 2 * g - 2 - j).tate_twist(
                j + 1 - g
            ) + jacobian(g) * projective_space(g, j - g)


class TestSerialization:
    def test_canonical_order_and_round_trip(self):
        cls = jacobian(2) * sym_curve(2, 2)
        data = cls.to_json_dict()
        monos = [tuple(entry["mono"]) for entry in data["terms"]]
        assert monos == sorted(monos)
        assert MotiveClass.from_json_dict(data) == cls

    def test_zero_class(self):
        assert zero(3).to_json_dict() == {"genus": 3, "terms": []}
        assert MotiveClass.from_json_dict({"genus": 3, "terms": []}) == zero(3)

    @given(genus_and_classes)
    def test_json_round_trip(self, data):
        _, a, _ = data
        assert MotiveClass.from_json_dict(a.to_json_dict()) == a
        assert MotiveClass.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"terms": []}, "genus"),
            ({"genus": 2}, "terms"),
            ({"genus": 2, "terms": [{"coeffs": [1]}]}, "mono"),
            ({"genus": 2, "terms": [{"mono": [1]}]}, "coeffs"),
            ({"genus": "3", "terms": []}, "genus"),
            ({"genus": 3.9, "terms": []}, "genus"),
            ({"genus": True, "terms": []}, "genus"),
            ({"genus": 2, "terms": [{"mono": [1], "coeffs": [1, True]}]}, "coeffs"),
            ({"genus": 2, "terms": [{"mono": [1], "coeffs": [1.0]}]}, "coeffs"),
            ({"genus": 2, "terms": [{"mono": [1.0], "coeffs": [1]}]}, "mono"),
            ({"genus": 2, "terms": [{"mono": [2, 1], "coeffs": [1]}]}, "mono"),
            ({"genus": 2, "terms": [{"mono": [3], "coeffs": [1]}]}, "mono"),
            (
                {"genus": 2, "terms": [{"mono": [1], "coeffs": [1]},
                                       {"mono": [1], "coeffs": [2]}]},
                "mono",
            ),
            ({"genus": 2, "terms": 5}, "terms"),
            ({"genus": 2, "terms": None}, "terms"),
            ({"genus": 2, "terms": {"mono": [1], "coeffs": [1]}}, "terms"),
            ({"genus": 2, "terms": [{"mono": 5, "coeffs": [1]}]}, "mono"),
            ({"genus": 2, "terms": [{"mono": {1: 2}, "coeffs": [1]}]}, "mono"),
            ({"genus": 2, "terms": [{"mono": [1], "coeffs": 7}]}, "coeffs"),
            ({"genus": 2, "terms": [{"mono": [1], "coeffs": {0: 1}}]}, "coeffs"),
        ],
    )
    def test_malformed_documents_name_the_bad_field(self, document, field):
        with pytest.raises(ValueError, match=field):
            MotiveClass.from_json_dict(document)

    def test_constructor_rejects_unsorted_out_of_range_and_untyped_terms(self):
        with pytest.raises(ValueError):
            MotiveClass(2, {(2, 1): IntPoly.one()})
        with pytest.raises(ValueError):
            MotiveClass(2, {(3,): IntPoly.one()})
        with pytest.raises(TypeError):
            MotiveClass(2, {(1,): 1})

    @pytest.mark.parametrize("mono", [(1.0,), (True,), (1.5,), (1, 2.0)])
    def test_constructor_rejects_non_int_indices(self, mono):
        with pytest.raises(TypeError, match="not an int"):
            MotiveClass(2, {mono: IntPoly.one()})

    @pytest.mark.parametrize("genus", [2.0, True, "2", None])
    def test_constructor_rejects_a_genus_that_is_not_an_int(self, genus):
        with pytest.raises(TypeError, match="^genus must be an int"):
            MotiveClass(genus, {})


class TestCopyAndPickle:
    """The value types copy and pickle through their public constructors; a
    product class may come back expanded."""

    @pytest.mark.parametrize(
        "value",
        [
            IntPoly([3, 0, -1]),
            BiPoly({(1, 0): 2, (0, 1): -2}),
            jacobian(3),
            jacobian(3) * sym_curve(3, 2),
        ],
        ids=["intpoly", "bipoly", "class", "product-class"],
    )
    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips_are_equal_and_immutable(self, value, round_trip):
        twin = round_trip(value)
        assert type(twin) is type(value) and twin == value
        with pytest.raises(AttributeError, match="is immutable"):
            twin._coeffs = None
