"""The diamonds of the smooth projective spaces computed here, every pair
chamber and both rank-3 bundle moduli spaces, meet the constraints any smooth
projective variety's diamond meets (:func:`support.hodge_diamond_violations`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modulimotives import BundleSpec, ChamberSpec, bundle_motive, bundle_motive_fixed_det, pair_motive_flip
from support import hodge_diamond_violations


@pytest.mark.parametrize("g", range(1, 7))
def test_every_pair_chamber(g):
    for e in range(2, 4 * g + 3):
        for i in range((e - 1) // 2 + 1):
            spec = ChamberSpec(g=g, e=e, i=i)
            matrix = pair_motive_flip(spec).hodge_matrix()
            assert hodge_diamond_violations(matrix, e + 2 * g - 2) == [], spec


@st.composite
def far_chambers(draw):
    g, e = draw(st.integers(1, 10)), draw(st.integers(2, 120))
    return ChamberSpec(g, e, draw(st.integers(0, (e - 1) // 2)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(far_chambers())
def test_far_pair_chambers(spec):
    matrix = pair_motive_flip(spec).hodge_matrix()
    assert hodge_diamond_violations(matrix, spec.e + 2 * spec.g - 2) == [], spec


@pytest.mark.parametrize("g", range(2, 9))
def test_bundle_moduli_spaces(g):
    spec = BundleSpec(g, 1)
    for cls, dim in ((bundle_motive(spec), 9 * g - 8), (bundle_motive_fixed_det(spec), 8 * g - 8)):
        assert hodge_diamond_violations(cls.hodge_matrix(), dim) == [], (g, dim)


class TestTheChecker:
    QUADRIC = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]  # P^1 x P^1

    def test_a_surface_diamond_meets_every_constraint(self):
        assert hodge_diamond_violations(self.QUADRIC, 2) == []
        assert hodge_diamond_violations([[1]], 0) == []

    @pytest.mark.parametrize(
        "matrix, dim, broken",
        [
            ([[1, 0], [0, 1]], 2, ["the matrix is not 3 x 3"]),
            ([[1, 0, 0], [0, 2], [0, 0, 1]], 2, ["the matrix is not 3 x 3"]),
            ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2, ["h^(0,0) = 2"]),
            ([[1, -1, 0], [-1, 2, 0], [0, 0, 1]], 2, [
                "h^(0,1) = -1 < 0", "h^(0,1) != h^(2,1)",
                "h^(1,0) = -1 < 0", "h^(1,0) != h^(1,2)",
                "h^(1,2) != h^(1,0)", "h^(2,1) != h^(0,1)",
            ]),
            ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 2, ["h^(0,0) != h^(2,2)", "h^(2,2) != h^(0,0)"]),
            ([[1, 0, 1], [0, 0, 0], [1, 0, 1]], 2, ["h^(0,0) > h^(1,1)"]),
        ],
        ids=["too-small", "ragged", "h00", "negative", "duality", "lefschetz"],
    )
    def test_each_broken_constraint_is_named(self, matrix, dim, broken):
        assert hodge_diamond_violations(matrix, dim) == broken
