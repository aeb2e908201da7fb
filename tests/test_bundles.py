import pytest

from modulimotives import (
    BundleSpec,
    InvalidDegree,
    bundle_dimension_fixed_det,
    bundle_motive,
    bundle_motive_fixed_det,
    jacobian,
    sym_curve,
    zero,
)
from support import fixed_det_double_sum, hodge_realization_reference, tate_sum


def _display_class(g, parts):
    """Sum of products of symmetric powers of the curve with Tate twists;
    ``parts`` is a list of (tuple of symmetric-power indices, twist exponents)."""
    acc = zero(g)
    for powers, twists in parts:
        term = tate_sum(g, *twists)
        for j in powers:
            term = term * sym_curve(g, j)
        acc = acc + term
    return acc


# closed-form expression of the genus-2 fixed-determinant class
GENUS2_FIXED_DET_DISPLAY = [
    ((), (0, 8)),
    ((1,), (1, 2, 5, 6)),
    ((2,), (2, 4)),
    ((1, 1), (3,)),
]

# closed-form expression of the genus-3 class, divided by the Jacobian factor
GENUS3_FIXED_DET_DISPLAY = [
    ((), (0, 16)),
    ((1,), (1, 2, 13, 14)),
    ((2,), (2, 4, 10, 12)),
    ((1, 1), (3, 11)),
    ((3,), (3, 6, 7, 10)),
    ((1, 2), (4, 5, 8, 9)),
    ((4,), (4, 8)),
    ((1, 3), (5, 7)),
    ((2, 2), (6,)),
]


class TestSpecValidation:
    def test_rejects_degree_divisible_by_three(self):
        with pytest.raises(InvalidDegree):
            BundleSpec(2, 3)
        with pytest.raises(InvalidDegree):
            BundleSpec(2, 0)
        with pytest.raises(InvalidDegree):
            BundleSpec(3, -6)

    def test_accepts_coprime_degrees(self):
        for d in (1, 2, -1, 4, 7):
            BundleSpec(2, d)

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            BundleSpec(1, 1)

    @pytest.mark.parametrize(
        "fields,name", [((2.5, 1), "g"), ((2, 1.0), "d"), ((True, 1), "g"), ((2, None), "d")]
    )
    def test_rejects_values_that_are_not_ints(self, fields, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            BundleSpec(*fields)


class TestGoldenDisplays:
    def test_genus_two_fixed_determinant(self):
        expected = _display_class(2, GENUS2_FIXED_DET_DISPLAY)
        assert bundle_motive_fixed_det(BundleSpec(2, 1)) == expected

    def test_genus_two_varying_determinant(self):
        expected = jacobian(2) * _display_class(2, GENUS2_FIXED_DET_DISPLAY)
        assert bundle_motive(BundleSpec(2, 1)) == expected

    def test_genus_three_varying_determinant(self):
        expected = jacobian(3) * _display_class(3, GENUS3_FIXED_DET_DISPLAY)
        assert bundle_motive(BundleSpec(3, 1)) == expected


class TestStructure:
    @pytest.mark.parametrize("g", range(2, 6))
    def test_top_degree_is_twice_dimension(self, g):
        cls = bundle_motive_fixed_det(BundleSpec(g, 1))
        assert cls.poincare_polynomial().degree == 2 * bundle_dimension_fixed_det(g)

    @pytest.mark.parametrize("g", range(2, 5))
    def test_unit_coefficient_starts_at_one(self, g):
        # connectedness: the constant coefficient of the unit monomial is 1
        cls = bundle_motive_fixed_det(BundleSpec(g, 1))
        assert cls.coefficient(())[0] == 1

    @pytest.mark.parametrize("g", range(2, 5))
    def test_total_betti_number_of_kunneth_factor(self, g):
        fixed = bundle_motive_fixed_det(BundleSpec(g, 1))
        full = bundle_motive(BundleSpec(g, 1))
        assert full.poincare_polynomial().evaluate(1) == 2 ** (
            2 * g
        ) * fixed.poincare_polynomial().evaluate(1)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_index_region_count(self, g):
        count = 0
        for k1 in range(2 * g - 1):
            for k2 in range(2 * g - 1):
                s = k1 + k2
                if s < 2 * g - 2 or (s == 2 * g - 2 and k1 < g - 1):
                    count += 1
        assert count == (2 * g - 1) * (g - 1) + (g - 1)

    @pytest.mark.parametrize("g", range(2, 10))
    def test_factored_sum_matches_the_double_sum(self, g):
        assert bundle_motive_fixed_det(BundleSpec(g, 1)) == fixed_det_double_sum(g)

    def test_degree_independence_of_the_class(self):
        assert bundle_motive(BundleSpec(2, 1)) == bundle_motive(BundleSpec(2, 2))
        assert bundle_motive(BundleSpec(3, 1)) == bundle_motive(BundleSpec(3, -1))


class TestRealization:
    @pytest.mark.parametrize("g", range(2, 6))
    def test_poincare_duality_fixed_determinant(self, g):
        cls = bundle_motive_fixed_det(BundleSpec(g, 1))
        h, dim = cls.hodge_realization(), bundle_dimension_fixed_det(g)
        expected = hodge_realization_reference(cls)  # both halves, term by term
        assert expected.is_symmetric()
        assert h == expected
        for (p, q), c in h.items():
            assert h.coefficient(dim - p, dim - q) == c

    @pytest.mark.parametrize("g", range(2, 6))
    def test_picard_rank_one(self, g):
        h = bundle_motive_fixed_det(BundleSpec(g, 1)).hodge_realization()
        assert h.coefficient(1, 1) == 1
        assert h.coefficient(1, 0) == 0

    def test_effectivity(self):
        assert bundle_motive(BundleSpec(4, 1)).is_effective()

    @pytest.mark.parametrize("g", range(2, 8))
    def test_realization_matches_the_term_by_term_reference(self, g):
        cls = bundle_motive_fixed_det(BundleSpec(g, 1))
        assert cls.hodge_realization() == hodge_realization_reference(cls)
