"""The last pair chamber against an oracle that shares no code with the pair
routes: for odd ``e >= 4g - 3`` every stable pair's bundle has ``H^1 = 0``, so
the pair space in chamber ``(e-1)//2`` is a ``P^(e+1-2g)`` bundle over the
moduli space ``N(2, e)`` of stable rank-2 bundles (Thaddeus 1994), whose class
:func:`support.rank2_bundle_reference` computes by the Harder–Narasimhan
recursion on plain dicts."""

import pytest

from modulimotives import ChamberSpec, pair_motive_flip
from support import (
    laurent_mul,
    laurent_terms,
    over_one_minus,
    rank2_bundle_reference,
    thaddeus_reference,
)


def last_chamber(g, e):
    return laurent_terms(pair_motive_flip(ChamberSpec(g, e, (e - 1) // 2)))


@pytest.mark.parametrize("g", range(2, 11))
def test_the_last_chamber_is_a_projective_bundle_over_the_bundle_space(g):
    for e in (4 * g - 3, 4 * g - 1, 4 * g + 1, 4 * g + 11):
        assert last_chamber(g, e) == thaddeus_reference(g, e), (g, e)


@pytest.mark.parametrize("g", range(2, 11))
def test_below_4g_minus_3_the_identity_fails(g):
    # H^1(E) need not vanish at e = 4g - 5, so the last chamber is no projective bundle
    assert last_chamber(g, 4 * g - 5) != thaddeus_reference(g, 4 * g - 5)


class TestTheOracle:
    def test_genus_2(self):
        # N(2, 1) is the Jacobian times the fixed-determinant space, an intersection
        # of two quadrics in P^5: 1 + L + S_1 L + L^2 + L^3
        jac = {(): {0: 1, 2: 1}, (1,): {0: 1, 1: 1}, (2,): {0: 1}}
        fixed_det = {(): {0: 1, 1: 1, 2: 1, 3: 1}, (1,): {1: 1}}
        assert rank2_bundle_reference(2, 1) == laurent_mul(jac, fixed_det, 0)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_even_degree_is_refused(self, g):
        # strictly semistable bundles exist, so no polynomial class comes out
        with pytest.raises(ArithmeticError):
            rank2_bundle_reference(g, 2)

    def test_an_inexact_division_is_refused(self):
        assert over_one_minus({0: 1, -2: -1}, 2) == {0: 1}
        assert over_one_minus({1: 1, -1: -1}, 1) == {1: 1, 0: 1}
        with pytest.raises(ArithmeticError):
            over_one_minus({0: 1, -1: -2}, 1)
