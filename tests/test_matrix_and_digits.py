"""The pair query path without per-entry Python loops, each fast path against
a kept reference: the Hodge matrix placed line by line from half its lines,
signed digits decoded from bytes, and the coefficient polynomials built in
closed form."""

from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modulimotives import (
    BiPoly,
    ChamberSpec,
    IntPoly,
    MotiveClass,
    jacobian,
    pair_motive_flip,
    sym_coeff_poly,
    sym_curve,
    sym_h1_hodge_poly,
    tate,
    unit,
    zero,
)
import modulimotives.motive as motive_module
from modulimotives.cli import render_class
from modulimotives.motive import _monomial_hodge_lines, _pack, _unpack_rows, _width
from modulimotives.pairs import pair_cofactor_flip
from support import (
    classes_strategy,
    diamond_text_reference,
    hodge_realization_reference,
    pack_reference,
    sym_coeff_reference,
    unpack_reference,
)


def stripped(digits):
    digits = list(digits)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def assert_matrix(cls):
    expected = hodge_realization_reference(cls).to_matrix()
    assert cls.hodge_matrix() == expected == cls.hodge_realization().to_matrix()


def cancelling_class(c):
    """``c(L) * (4 S_2 - S_1^2)`` at g = 2: its Hodge polynomial is
    ``8uv * c(uv)``, as the lines ``p - q = +-2`` cancel."""
    return MotiveClass(2, {(2,): c * 4, (1, 1): -c})


class TestHodgeMatrix:
    """``hodge_matrix`` against the term-by-term reference, and against
    ``hodge_realization().to_matrix()``."""

    @given(st.integers(1, 4).flatmap(
        lambda g: st.tuples(classes_strategy(g), classes_strategy(g))
    ))
    def test_classes_and_products(self, classes):
        a, b = classes
        for cls in (a, b, a - b, a * b, (a - b) * a):
            assert_matrix(cls)

    @pytest.mark.parametrize("g", [pytest.param(g, id=f"g{g}") for g in (1, 2, 5)])
    def test_zero_class(self, g):
        for cls in (zero(g), jacobian(g) - jacobian(g), zero(g) * jacobian(g)):
            assert cls.hodge_matrix() == [[0]]
            assert_matrix(cls)

    def test_a_nonzero_class_that_realizes_to_zero(self):
        cls = cancelling_class(IntPoly.monomial(2)) + MotiveClass(2, {(): IntPoly.monomial(3, -8)})
        assert not cls.is_zero()
        assert cls.hodge_matrix() == [[0]]
        assert_matrix(cls)

    def test_lines_that_cancel_leave_a_smaller_matrix(self):
        c = IntPoly([3, -(2**70), 5, 0, -1])
        for cls in (cancelling_class(c), cancelling_class(c) * jacobian(2), unit(2) - cancelling_class(c)):
            assert_matrix(cls)
        assert cancelling_class(c).hodge_matrix() == [
            [8 * c[p - 1] if p == q and p else 0 for q in range(6)] for p in range(6)
        ]

    @pytest.mark.parametrize(
        "specs",
        [
            pytest.param((ChamberSpec(3, 7, 1), ChamberSpec(3, 7, 0)), id="g3-e7"),
            pytest.param((ChamberSpec(4, 11, 5), ChamberSpec(4, 11, 2)), id="g4-e11"),
        ],
    )
    def test_top_rows_and_columns_cancel(self, specs):
        # pair spaces of two chambers of one degree have one dimension and one
        # top Hodge number, so the difference loses its top rows and columns
        a, b = (pair_motive_flip(spec) for spec in specs)
        rows = len(a.hodge_matrix())
        assert rows == len(b.hodge_matrix())
        cofactors = [pair_cofactor_flip(spec) for spec in specs]
        for cls in (a - b, jacobian(specs[0].g) * (cofactors[0] - cofactors[1])):
            assert_matrix(cls)
            matrix = cls.hodge_matrix()
            assert len(matrix) < rows and len(matrix[0]) < rows


WIDTHS = (8, 16, 32, 64, 9, 33, 72, 136)


def widths():
    return [pytest.param(w, id=f"w{w}") for w in WIDTHS]


class TestDigits:
    """``_unpack_rows`` reads 8-, 16-, 32- and 64-bit digits with one cast and
    other widths one digit per shift; both against the reference loop."""

    @pytest.mark.parametrize(
        "bound, cast, w",
        [
            pytest.param(0, True, 8, id="0-cast"),
            pytest.param(2**7 - 1, True, 8, id="2^7-1-cast"),
            pytest.param(2**7, True, 16, id="2^7-cast"),
            pytest.param(2**15, True, 32, id="2^15-cast"),
            pytest.param(2**31 - 1, True, 32, id="2^31-1-cast"),
            pytest.param(2**31, True, 64, id="2^31-cast"),
            pytest.param(2**63 - 1, True, 64, id="2^63-1-cast"),
            pytest.param(2**63, True, 65, id="2^63-cast"),
            pytest.param(2**135 - 1, True, 136, id="2^135-1-cast"),
            pytest.param(0, False, 1, id="0"),
            pytest.param(2**7, False, 9, id="2^7"),
            pytest.param(2**31 - 1, False, 32, id="2^31-1"),
        ],
    )
    def test_width(self, bound, cast, w):
        assert _width(bound, cast) == w

    @pytest.mark.parametrize("w", widths())
    def test_round_trip_at_the_edges(self, w):
        top = 2 ** (w - 1) - 1
        cases = [
            [0],
            [top],
            [-top],
            [0, 0, 0, top],
            [0, 0, 0, -top],
            [top, -top] * 3 + [top],
            [-top, top, -1, 1, 0, -top],
            [1] + [0] * 9 + [-1],
        ]
        for digits in cases:
            x = _pack(tuple(digits), w)
            assert _unpack_rows([x], w)[0] == unpack_reference(x, w) == stripped(digits)

    @pytest.mark.parametrize("w", widths())
    def test_one_digit_per_shift_on_any_byte_order(self, monkeypatch, w):
        # a host of another byte order reads even the C-int digits one by one
        monkeypatch.setattr(motive_module, "sys", SimpleNamespace(byteorder="big"))
        top = 2 ** (w - 1) - 1
        for digits in ([0], [top, -top] * 3 + [top], [0, 0, -1, 1, -top]):
            x = _pack(tuple(digits), w)
            assert _unpack_rows([x], w)[0] == unpack_reference(x, w) == stripped(digits)

    @given(
        st.sampled_from(WIDTHS).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(st.integers(-(2 ** (w - 1)) + 1, 2 ** (w - 1) - 1), max_size=40),
            )
        )
    )
    def test_random_digits(self, case):
        w, digits = case
        x = _pack(tuple(digits), w)
        assert _unpack_rows([x], w)[0] == unpack_reference(x, w) == stripped(digits)


ROW_WIDTHS = (8, 16, 32, 64, 9, 17, 65)


def row_widths():
    return [pytest.param(w, id=f"w{w}") for w in ROW_WIDTHS]


class TestRows:
    """``_unpack_rows`` decodes a list of ints in one call: each row equals
    the reference loop's digits of its int, whatever the other rows hold."""

    def edge_rows(self, w):
        top = 2 ** (w - 1) - 1
        digit_lists = [
            [top, -top] * 5 + [top],
            [0],
            [-top],
            [1] + [0] * 12 + [-1],
            [-top, top, -1, 1, 0, -top],
            [0, 0, 0, top],
        ]
        return [_pack(tuple(digits), w) for digits in digit_lists], digit_lists

    @pytest.mark.parametrize("w", row_widths())
    def test_rows_of_unequal_length(self, w):
        xs, digit_lists = self.edge_rows(w)
        rows = _unpack_rows(xs, w)
        assert rows == [unpack_reference(x, w) for x in xs] == [stripped(d) for d in digit_lists]

    @pytest.mark.parametrize("w", row_widths())
    def test_one_digit_per_shift_on_any_byte_order(self, monkeypatch, w):
        monkeypatch.setattr(motive_module, "sys", SimpleNamespace(byteorder="big"))
        xs, _ = self.edge_rows(w)
        assert _unpack_rows(xs, w) == [unpack_reference(x, w) for x in xs]

    @pytest.mark.parametrize("w", row_widths())
    def test_no_rows(self, w):
        assert _unpack_rows([], w) == []

    @given(
        st.sampled_from(ROW_WIDTHS).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(
                    st.lists(st.integers(-(2 ** (w - 1)) + 1, 2 ** (w - 1) - 1), max_size=20),
                    max_size=6,
                ),
            )
        )
    )
    def test_random_rows(self, case):
        w, digit_lists = case
        xs = [_pack(tuple(digits), w) for digits in digit_lists]
        rows = [unpack_reference(x, w) for x in xs]
        assert _unpack_rows(xs, w) == rows == [stripped(digits) for digits in digit_lists]


class TestCanonicalRows:
    """A decoded row is exactly the packed digits: it ends in a nonzero digit
    and 0 has none, alone or in a batch, all zero or not, with one cast or one
    digit per shift."""

    @pytest.mark.parametrize("peel", [False, True], ids=["cast", "shift"])
    @pytest.mark.parametrize("w", row_widths())
    def test_rows_end_in_a_nonzero_digit(self, monkeypatch, w, peel):
        if peel:  # as on a host of another byte order, even C-int digits one by one
            monkeypatch.setattr(motive_module, "sys", SimpleNamespace(byteorder="big"))
        top = 2 ** (w - 1) - 1
        cancelled = _pack((1, -top, top), w) + _pack((0, 0, -top), w)  # the top digits cancel
        for xs, rows in [
            ([0], [[]]),
            ([0] * 5, [[]] * 5),
            ([cancelled], [[1, -top]]),
            ([0, cancelled, _pack((0, 0, -1), w), 0], [[], [1, -top], [0, 0, -1], []]),
        ]:
            assert _unpack_rows(xs, w) == rows


class TestPack:
    """``_pack`` joins two packed halves past 32 coefficients; it equals the
    one-shift-add-per-coefficient loop at every length across that edge."""

    @pytest.mark.parametrize("w", [pytest.param(w, id=f"w{w}") for w in (3, 8, 64, 386)])
    def test_every_length_up_to_100(self, w):
        top = 2 ** (w - 1) - 1
        for n in range(101):
            coeffs = [(-1) ** k * (top - k % top) for k in range(n)]
            assert _pack(tuple(coeffs), w) == pack_reference(coeffs, w)
            assert _pack(tuple(-c for c in coeffs), w) == -pack_reference(coeffs, w)
            assert _unpack_rows([_pack(tuple(coeffs), w)], w)[0] == coeffs


class TestDiamondText:
    """``diamond-text`` writes each row with one ``%d`` format, byte for byte
    the per-entry ``str`` rendering."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: cancelling_class(IntPoly([3, -(2**70), 5, 0, -1])), id="cancelling"),
            pytest.param(lambda: jacobian(2) * (sym_curve(2, 1) - tate(2, 1) * 3), id="jacobian-product"),
        ],
    )
    def test_negative_hodge_numbers(self, make):
        matrix = make().hodge_matrix()
        assert min(map(min, matrix)) < 0 < max(map(max, matrix))
        assert render_class(make(), "diamond-text") == diamond_text_reference(matrix)

    def test_the_zero_class(self):
        assert render_class(zero(3), "diamond-text") == diamond_text_reference([[0]]) == "0"


class TestSymCoeffPoly:
    """The closed form against the product form, divided exactly."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=f"g{g}") for g in range(2, 10)])
    def test_every_admissible_index(self, g):
        for e in range(1, 4 * g + 3):
            for i in range((e - 1) // 2 + 1):
                for b in range(i + 1):
                    assert sym_coeff_poly(g, i, e, b) == sym_coeff_reference(g, i, e, b)

    @pytest.mark.parametrize(
        "offset", [pytest.param(k, id=f"n=b{k:+d}") for k in (-1, 0, 1)]
    )
    def test_at_the_edges_of_the_sign_change(self, offset):
        # n = e+g-1-2i against b: one-term negative block, zero, one-term block
        seen = 0
        for g in range(2, 10):
            for e in range(1, 4 * g + 3):
                for i in range((e - 1) // 2 + 1):
                    b = e + g - 1 - 2 * i - offset
                    if 0 <= b <= i:
                        q = sym_coeff_poly(g, i, e, b)
                        assert q == sym_coeff_reference(g, i, e, b)
                        assert q.is_zero() == (offset == 0)
                        seen += 1
        assert seen > 20


def monomials(g):
    for k in range(4):
        yield from combinations_with_replacement(range(1, g + 1), k)


class TestHalfTheLines:
    """Only the lines ``p - q = d >= 0`` are formed; every class realizes
    symmetrically, and the mirror rebuilds the rest."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=f"g{g}") for g in range(1, 5)])
    def test_monomial_lines_mirror_to_the_hodge_polynomial(self, g):
        for mono in monomials(g):
            bound, entries = _monomial_hodge_lines(g, mono)
            expected = BiPoly.one()
            for b in mono:
                expected = expected * sym_h1_hodge_poly(g, b)
            assert all(d >= 0 for d, _, _ in entries)
            assert len({d for d, _, _ in entries}) == len(entries)  # one entry a line
            mirrored = {}
            for d, q, h in entries:
                mirrored[q + d, q] = mirrored[q, q + d] = h
            assert BiPoly(mirrored) == expected
            assert bound == max(abs(c) for _, c in expected.items())

    @given(st.integers(1, 4).flatmap(classes_strategy))
    def test_jacobian_products_on_either_side(self, x):
        jac = jacobian(x.genus)
        for cls in (jac * x, x * jac):
            expected = hodge_realization_reference(cls)
            assert cls.hodge_realization() == expected
            assert cls.hodge_matrix() == expected.to_matrix()

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: zero(3), id="zero"),
            pytest.param(lambda: cancelling_class(IntPoly([3, -(2**80), 5])), id="lines-cancel"),
            pytest.param(
                lambda: pair_cofactor_flip(ChamberSpec(4, 11, 5))
                - pair_cofactor_flip(ChamberSpec(4, 11, 2)),
                id="top-rows-cancel",
            ),
            pytest.param(lambda: MotiveClass(1, {(1,): IntPoly([2**80, -(2**80)])}), id="g1"),
        ],
    )
    def test_jacobian_products_of_edge_classes(self, make):
        x = make()
        jac = jacobian(x.genus)
        for cls in (jac * x, x * jac):
            expected = hodge_realization_reference(cls)
            assert cls.hodge_realization() == expected
            assert cls.hodge_matrix() == expected.to_matrix()
