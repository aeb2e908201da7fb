import pytest
from hypothesis import given
from hypothesis import strategies as st

from modulimotives import BiPoly, IntPoly, NonExactDivision, exact_div
from support import conv, divides_exactly, divmod_rational


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_zero_annihilates(self):
        p = P(3, 0, -2, 7)
        assert p * IntPoly.zero() == IntPoly.zero()
        assert p * 0 == IntPoly.zero()

    def test_product_against_convolution_oracle(self):
        a, b = [1, 1, 1], [1, 1, 1, 1, 1]
        expected = conv(a, b)
        assert expected == [1, 2, 3, 3, 3, 2, 1]  # frozen
        assert IntPoly(a) * IntPoly(b) == IntPoly(expected)

    def test_scalar_and_power(self):
        assert 3 * P(1, 2) == P(3, 6)
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(0, 1) ** 5 == IntPoly.monomial(5)
        assert P(2, 1) ** 0 == IntPoly.one()

    def test_normal_form_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).is_zero()
        assert P(1, -1) + P(-1, 1) == IntPoly.zero()
        # an int is not an IntPoly, so equality agrees with hashing
        assert IntPoly([3, 0]) != 3 and IntPoly([3, 0]) not in {3}

    def test_geometric_block(self):
        assert IntPoly.geometric(0, 3) == P(1, 1, 1, 1)
        assert IntPoly.geometric(2, 4) == P(0, 0, 1, 1, 1)
        assert IntPoly.geometric(3, 2).is_zero()

    def test_degree_and_indexing(self):
        p = P(5, 0, 7)
        assert p.degree == 2
        assert (p[0], p[1], p[2], p[99]) == (5, 0, 7, 0)
        assert IntPoly.zero().degree == -1

    def test_evaluate(self):
        p = P(1, 2, 3)
        assert p.evaluate(1) == 6
        assert p.evaluate(-1) == 2
        assert p.evaluate(10) == 321

    def test_rendering(self):
        assert P(1, 0, -2).to_str() == "1 - 2*T^2"
        assert P(0, 1).to_str("t") == "t"
        assert IntPoly.zero().to_str() == "0"


class TestExactDiv:
    def test_geometric_sum(self):
        assert exact_div(P(1, 0, 0, -1), P(1, -1)) == P(1, 1, 1)

    def test_against_long_division_oracle(self):
        num = IntPoly(conv(conv([1, 0, -1], [1, 0, 0, -1]), [1]))
        den = P(1, -1) * P(1, -1)
        q, rem = divmod_rational(list(num.coeffs), list(den.coeffs))
        assert not rem and q == [1, 2, 2, 1]  # frozen
        assert exact_div(num, den) == P(1, 2, 2, 1)

    def test_rejects_inexact(self):
        with pytest.raises(NonExactDivision):
            exact_div(P(1, 1), P(1, -1))

    def test_rejects_non_integral_quotient(self):
        with pytest.raises(NonExactDivision):
            exact_div(P(0, 1), P(2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P(1), IntPoly.zero())

    def test_zero_numerator(self):
        assert exact_div(IntPoly.zero(), P(1, 2)) == IntPoly.zero()


class TestIsNonneg:
    def test_examples(self):
        assert P(1, 2, 2, 1).is_nonneg()
        assert not P(1, -1).is_nonneg()
        assert IntPoly.zero().is_nonneg()
        assert BiPoly({(0, 1): 2, (3, 0): 0}).is_nonneg()
        assert not BiPoly({(0, 1): 2, (1, 1): -1}).is_nonneg()
        assert BiPoly.zero().is_nonneg()


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=31))
nonzero_polys = small_polys.filter(bool)
small_bipolys = st.builds(
    BiPoly,
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-3, 3)),
)


class TestRingLaws:
    @given(small_polys, small_polys)
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    def test_associative_and_distributive(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(small_polys, nonzero_polys)
    def test_division_inverts_multiplication(self, p, q):
        assert exact_div(p * q, q) == p

    @given(small_polys, nonzero_polys)
    def test_division_result_always_remultiplies(self, num, den):
        try:
            q = exact_div(num, den)
        except NonExactDivision:
            assert not divides_exactly(list(num.coeffs), list(den.coeffs))
        else:
            assert q * den == num


class TestTrustedResults:
    """Arithmetic results skip re-validation but must stay in normal form."""

    def test_cancellation_leaves_the_zero_polynomial(self):
        p = P(3, 0, -2, 7)
        assert (p - p).coeffs == ()
        assert (P(1, 2, 5) + P(0, 0, -5)).coeffs == (1, 2)
        assert (p * 0).coeffs == ()
        assert IntPoly.zero().shift(3).coeffs == ()

    @given(small_polys, nonzero_polys, st.integers(-3, 3), st.integers(0, 4))
    def test_results_equal_the_public_constructor(self, p, q, n, k):
        results = (p + q, p - q, -p, p * q, p * n, p.shift(k), exact_div(p * q, q))
        for result in results:
            rebuilt = IntPoly(list(result.coeffs))
            assert result == rebuilt and hash(result) == hash(rebuilt)
            assert result.coeffs == rebuilt.coeffs


class TestTrustedBiPolyResults:
    """``BiPoly`` arithmetic results skip re-validation but must stay in
    normal form: no zero coefficient is stored."""

    def test_cancellation_leaves_the_zero_polynomial(self):
        h = BiPoly({(0, 0): 1, (2, 1): -3})
        for result in (h - h, h * 0, h + (-h), h * BiPoly.zero()):
            assert result.is_zero() and list(result.items()) == []
        assert (h - h).diagonal_specialization().coeffs == ()

    @given(small_bipolys, small_bipolys, st.integers(-3, 3))
    def test_results_equal_the_public_constructor(self, a, b, n):
        for result in (a + b, a - b, -a, a * b, a * n):
            entries = dict(result.items())
            assert all(entries.values())
            assert BiPoly(entries) == result
            specialized = result.diagonal_specialization()
            assert specialized.coeffs == IntPoly(list(specialized.coeffs)).coeffs


class TestPublicConstructorsValidate:
    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_rejects_non_int_coefficients(self, bad):
        with pytest.raises(TypeError):
            IntPoly([1, bad])
        with pytest.raises(TypeError):
            BiPoly({(0, 0): bad})

    @pytest.mark.parametrize("key", [(1.5, True), (True, 0), (0, 1.0)])
    def test_bipoly_rejects_non_int_exponents(self, key):
        with pytest.raises(TypeError, match="exponents must be int"):
            BiPoly({key: 2})

    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda: IntPoly.monomial(True), "exponent", id="monomial-bool"),
            pytest.param(lambda: IntPoly.monomial(1.5), "exponent", id="monomial-float"),
            pytest.param(lambda: IntPoly.monomial(2, 0.0), "coeff", id="monomial-coeff-float"),
            pytest.param(lambda: IntPoly.monomial(2, True), "coeff", id="monomial-coeff-bool"),
            pytest.param(lambda: IntPoly.geometric(True, 3), "low", id="geometric-low"),
            pytest.param(lambda: IntPoly.geometric(0, 2.0), "high", id="geometric-high"),
            pytest.param(lambda: P(1, 2).shift(True), "shift", id="shift-bool"),
            pytest.param(lambda: P(1, 2).shift(1.0), "shift", id="shift-float"),
            pytest.param(lambda: P(1, 2) ** True, "exponent", id="pow-bool"),
            pytest.param(lambda: P(1, 2) ** 2.0, "exponent", id="pow-float"),
            pytest.param(lambda: exact_div(P(1, 2), 3), "den", id="exact_div-den"),
            pytest.param(lambda: exact_div([1, 2], P(1)), "num", id="exact_div-num"),
        ],
    )
    def test_scalar_arguments_are_named(self, build, name):
        with pytest.raises(TypeError, match=f"^{name} must be"):
            build()

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            IntPoly.monomial(-1)
        with pytest.raises(ValueError):
            IntPoly.one().shift(-1)


class TestBiPoly:
    def test_ring_ops(self):
        u = BiPoly.monomial(1, 0)
        v = BiPoly.monomial(0, 1)
        assert (u + v) * (u + v) == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert (u - u).is_zero()
        assert 2 * u == BiPoly.monomial(1, 0, 2)

    def test_from_diagonal(self):
        assert BiPoly.from_diagonal(P(1, 0, 3)) == BiPoly({(0, 0): 1, (2, 2): 3})

    def test_matrix_and_symmetry(self):
        h = BiPoly({(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4})
        assert h.is_symmetric()
        assert h.to_matrix() == [[1, 2], [2, 4]]
        assert not BiPoly({(1, 0): 1}).is_symmetric()

    @given(small_bipolys)
    def test_matrix_spans_the_largest_exponents(self, h):
        mat = h.to_matrix()
        if h.is_zero():
            assert mat == [[0]]
            return
        assert len(mat) == max(p for (p, _), _ in h.items()) + 1
        assert all(len(row) == max(q for (_, q), _ in h.items()) + 1 for row in mat)
        assert all(c == h.coefficient(p, q) for p, row in enumerate(mat) for q, c in enumerate(row))

    def test_diagonal_specialization(self):
        h = BiPoly({(1, 0): 2, (0, 1): 2, (1, 1): 4})
        assert h.diagonal_specialization() == P(0, 4, 4)

    def test_evaluate(self):
        h = BiPoly({(1, 0): 2, (0, 1): 2})
        assert h.evaluate(1, 1) == 4
        assert h.evaluate(-1, -1) == -4

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})
