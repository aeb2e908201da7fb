"""Classes kept as ``jacobian × cofactor``: a Jacobian multiple reads as the
expanded product everywhere, and its realizations, the cofactor's realization
times the Jacobian's in closed form, match the term-by-term references of the
expanded class.  Any other class product is formed at once."""

import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modulimotives.motive as motive_module
from modulimotives import (
    BundleSpec,
    ChamberSpec,
    HiggsSpec,
    IntPoly,
    MotiveClass,
    bundle_motive,
    bundle_motive_fixed_det,
    from_tate_poly,
    higgs_motive,
    higgs_motive_mod_jac,
    jacobian,
    pair_motive_flip,
    pair_motive_geo,
    pair_motive_sym,
    sym_curve,
    tate,
    unit,
    zero,
)
from modulimotives.cli import render_class
from modulimotives.pairs import pair_cofactor_flip
from support import (
    class_product_reference,
    classes_strategy,
    hodge_realization_reference,
    poincare_reference,
)

product = operator.mul


def assert_realizes_like(cls, expanded):
    hodge = hodge_realization_reference(expanded)
    assert cls.hodge_realization() == hodge
    assert cls.hodge_matrix() == hodge.to_matrix()
    assert cls.poincare_polynomial() == poincare_reference(expanded)


class TestRealizations:
    @given(st.integers(1, 4).flatmap(
        lambda g: st.tuples(classes_strategy(g), classes_strategy(g))
    ))
    def test_mixed_sign_factors(self, classes):
        a, b = classes
        for x, y in ((a, b), (b, a), (a - b, a), (-a, a)):
            assert_realizes_like(product(x, y), class_product_reference(x, y))

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_a_zero_factor(self, g):
        for cls in (jacobian(g), MotiveClass(g, {(1,): IntPoly([-(2**80), 3])})):
            for x, y in ((zero(g), cls), (cls, zero(g))):
                p = product(x, y)
                assert p.hodge_realization().is_zero() and p.poincare_polynomial().is_zero()
                assert p.is_zero() and p == zero(g)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 80, 15, 31, 71, 135])
    def test_digits_at_the_edge_of_the_width(self, n):
        # a unit factor leaves every digit at 2^(w-1) - 1 (on the Hodge lines
        # where n + 1 is 8, 16, 32, 64 or above 64); with 1 + L the inner
        # digits reach the bound 2 (2^n - 1); alternating signs borrow
        big = 2**n - 1
        flat, alternating = IntPoly([big] * 7), IntPoly([big, -big] * 3 + [big])
        cases = [
            (unit(3), from_tate_poly(3, flat)),
            (-unit(3), from_tate_poly(3, alternating)),
            (tate(3, 2), from_tate_poly(3, alternating)),
            (from_tate_poly(3, IntPoly([1, 1])), from_tate_poly(3, flat)),
            (unit(1), MotiveClass(1, {(1,): flat})),
            (MotiveClass(1, {(1,): IntPoly([1])}), MotiveClass(1, {(): alternating})),
        ]
        for a, b in cases:
            assert_realizes_like(product(a, b), class_product_reference(a, b))


class TestReadsAsTheExpandedProduct:
    def factors(self):
        return jacobian(3), MotiveClass(3, {(): IntPoly([1, -2]), (1, 2): IntPoly([0, 5])})

    def test_every_reader_sees_a_times_b(self):
        a, b = self.factors()
        expanded = class_product_reference(a, b)
        for left, right in ((product(a, b), expanded), (expanded, product(a, b))):
            assert left == right
            assert left + unit(3) == right + unit(3)
            assert left * sym_curve(3, 2) == right * sym_curve(3, 2)
            assert left.to_json_dict() == right.to_json_dict()
            assert repr(left) == repr(right)
            assert left.as_dict() == right.as_dict()
            assert left.monomials() == right.monomials()
            assert left.is_effective() is right.is_effective() is False
        assert product(a, a).is_effective()

    def test_immutable(self):
        p = product(*self.factors())
        for formed in (False, True):  # before and after the terms are formed
            if formed:
                p.items()
            for name in ("_terms", "_cofactor", "_genus", "extra"):
                with pytest.raises(AttributeError):
                    setattr(p, name, None)

    def test_factors_of_two_genera(self):
        # raised when the product is formed, also for an operand that is a product
        square = product(jacobian(2), jacobian(2))
        for left in (jacobian(2), square):
            with pytest.raises(motive_module.GenusMismatch):
                product(left, jacobian(3))


class TestTheOperator:
    """``a * b`` keeps a cofactor only beside a factor equal to ``jacobian(g)``."""

    def test_a_long_chain_of_products_never_nests(self):
        acc = unit(2)
        for _ in range(1000):
            acc = acc * tate(2, 1)
        assert acc._cofactor is None
        assert acc == tate(2, 1000)
        assert acc.poincare_polynomial() == IntPoly.monomial(2000)
        acc, expanded = unit(2), unit(2)
        for k in range(4):  # a Jacobian multiple enters the next as its terms
            acc = jacobian(2) * acc if k % 2 else acc * jacobian(2)
            expanded = class_product_reference(jacobian(2), expanded)
            assert acc._cofactor._cofactor is None
        assert acc == expanded
        assert_realizes_like(acc, expanded)

    def test_a_product_without_a_jacobian_factor_is_formed_at_once(self, monkeypatch):
        formed, products = [], motive_module.sum_of_products

        def spy(pairs):
            formed.append(pairs)
            return products(pairs)

        monkeypatch.setattr(motive_module, "sum_of_products", spy)
        a, b = sym_curve(3, 4), MotiveClass(3, {(): IntPoly([1, -2]), (1, 2): IntPoly([0, 5])})
        p = a * b
        assert formed == [[(a, b)]] and p._cofactor is None
        assert p == class_product_reference(a, b) and len(formed) == 1
        # a class equal to the Jacobian, though not the cached one, is its factor
        jac = MotiveClass(3, jacobian(3).as_dict())
        assert (jac * b)._cofactor is b and (b * jac)._cofactor is b and len(formed) == 1

    @pytest.mark.parametrize("g", [1, 3])
    def test_realizing_a_jacobian_product_never_packs_the_jacobian(self, monkeypatch, g):
        x = MotiveClass(g, {(): IntPoly([1, -2]), (1, 1): IntPoly([0, 5])})
        products = (jacobian(g) * x, x * jacobian(g))
        expanded = class_product_reference(jacobian(g), x)
        hodge, poincare = hodge_realization_reference(expanded), poincare_reference(expanded)
        packed, pack = [], motive_module._pack

        def spy(coeffs, w):
            packed.append(coeffs)
            return pack(coeffs, w)

        monkeypatch.setattr(motive_module, "_pack", spy)
        for cls in products:
            assert cls.hodge_realization() == hodge
            assert cls.poincare_polynomial() == poincare
        assert len(packed) == 8 and set(packed) == {p.coeffs for p in x.as_dict().values()}


class TestJacobianWidth:
    """``jacobian(g) * X`` is packed at ``w = _width(4^g * bound(X))``, cast on
    the Hodge lines; with ``X = ±(2^n - 1) L^k`` alternating,
    ``n = w - 1 - 2g`` puts ``w`` at 8, 16, 32, 64 and one bit above each
    (at g = 4, ``w`` starts at 10)."""

    @pytest.mark.parametrize("g, w", [
        pytest.param(g, w, id=f"g{g}-w{w}")
        for g in range(1, 5) for w in (8, 9, 16, 17, 32, 33, 64, 65) if w - 1 - 2 * g >= 1
    ])
    def test_digits_at_the_edge_of_the_width(self, g, w):
        big = 2 ** (w - 1 - 2 * g) - 1
        assert motive_module._width(4**g * big) == w
        alternating = IntPoly([big, -big] * 3 + [big])
        for x in (from_tate_poly(g, alternating), from_tate_poly(g, -alternating)):
            expanded = class_product_reference(jacobian(g), x)
            assert_realizes_like(jacobian(g) * x, expanded)
            assert_realizes_like(x * jacobian(g), expanded)


class TestJacobianTerms:
    """The terms of ``jacobian(g) * X`` formed in closed form (shift-adds of
    ``X``'s packed terms, no product) against the pair-by-pair reference, as
    sorted rows without trailing zeros and as the class's terms."""

    def assert_expands_like(self, x):
        expanded = class_product_reference(jacobian(x.genus), x)
        rows = [(m, list(p.coeffs)) for m, p in expanded.items()]
        for cls in (jacobian(x.genus) * x, x * jacobian(x.genus)):
            assert cls._rows() == rows  # from the expansion, no terms formed
            assert cls.as_dict() == expanded.as_dict()
            assert cls._rows() == rows  # from the formed terms
            assert cls.to_json_dict() == expanded.to_json_dict()

    @given(st.integers(1, 4).flatmap(classes_strategy))
    def test_classes_on_either_side(self, x):
        self.assert_expands_like(x)
        self.assert_expands_like(-x)

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_the_zero_class(self, g):
        assert list(motive_module._jacobian_rows(zero(g))) == []
        assert (jacobian(g) * zero(g)).is_zero() and (zero(g) * jacobian(g)).is_zero()

    def test_formed_terms_are_read_not_expanded_again(self, monkeypatch):
        cls = jacobian(3) * sym_curve(3, 2)
        rows = cls._rows()
        cls.as_dict()

        def expanded(x):
            raise AssertionError("the Jacobian product was expanded again")

        monkeypatch.setattr(motive_module, "_jacobian_rows", expanded)
        assert cls._rows() == rows
        assert render_class(cls, "class-json") == json.dumps(cls.to_json_dict())

    def test_terms_that_cancel_are_dropped(self):
        # J = S_1 + 1 + L at g = 1, so J * (S_1 - 1 - L) = S_1^2 - (1 + L)^2
        x = MotiveClass(1, {(1,): IntPoly([1]), (): IntPoly([-1, -1])})
        assert (jacobian(1) * x).as_dict() == {(1, 1): IntPoly([1]), (): IntPoly([-1, -2, -1])}
        self.assert_expands_like(x)

    @pytest.mark.parametrize("w", [pytest.param(w, id=f"w{w}") for w in (8, 16, 32, 64, 65, 81)])
    def test_digits_at_the_edge_of_the_width(self, w):
        # (1 + L^(g-b)) (p + q L^(g-b)) has the digit p + q = 2^(w-1) - 1, the
        # bound the width is taken from
        p = 2 ** (w - 2)
        q = 2 ** (w - 1) - 1 - p
        assert motive_module._width(p + q, cast=True) == w
        for g in (1, 3):
            for b in range(g):
                c = IntPoly([p] + [0] * (g - b - 1) + [q])
                for x in (MotiveClass(g, {(): c}), MotiveClass(g, {(g,): -c})):
                    self.assert_expands_like(x)


def chamber_specs(g):
    for e in range(2, 4 * g + 6):
        for i in range((e - 1) // 2 + 1):
            yield ChamberSpec(g=g, e=e, i=i)


@pytest.mark.parametrize("g", range(1, 7))
def test_every_pair_chamber_by_each_route(g):
    jac = jacobian(g)
    for spec in chamber_specs(g):
        expanded = jac * pair_cofactor_flip(spec)
        hodge, poincare = hodge_realization_reference(expanded), poincare_reference(expanded)
        routes = [pair_motive_flip]
        if spec.e <= 4 * g - 5:
            routes.append(pair_motive_geo)
        if g >= 2 and spec.i < spec.e // 2 <= 2 * g - 3:
            routes.append(pair_motive_sym)
        for route in routes:
            cls = route(spec)
            assert cls.hodge_realization() == hodge, (spec, route)
            assert cls.hodge_matrix() == hodge.to_matrix(), (spec, route)
            assert cls.poincare_polynomial() == poincare, (spec, route)


@pytest.mark.parametrize("g", [12, 16, 20])
def test_higgs_and_bundle_classes_against_the_plain_path(g):
    # the closed-form Jacobian product against the realization of the formed terms
    for cls in (higgs_motive(HiggsSpec(g, 1)), bundle_motive(BundleSpec(g, 1))):
        plain = MotiveClass._trusted(g, cls._terms)
        assert cls.hodge_matrix() == plain.hodge_matrix()
        assert cls.poincare_polynomial() == plain.poincare_polynomial()


@pytest.mark.parametrize("g", range(2, 11))
def test_higgs_and_bundle_classes(g):
    for cls in (higgs_motive(HiggsSpec(g, 1)), bundle_motive(BundleSpec(g, 1))):
        cofactor = cls._cofactor
        assert cofactor is not None and cofactor._cofactor is None
        assert_realizes_like(cls, class_product_reference(jacobian(g), cofactor))


EDGE_CLASSES = [
    pytest.param(lambda: zero(3), id="zero"),
    pytest.param(
        lambda: MotiveClass(2, {(2,): IntPoly([12, -(2**82), 20]), (1, 1): IntPoly([-3, 2**80, -5])}),
        id="lines-cancel",
    ),
    pytest.param(
        lambda: pair_cofactor_flip(ChamberSpec(4, 11, 5)) - pair_cofactor_flip(ChamberSpec(4, 11, 2)),
        id="top-rows-cancel",
    ),
    pytest.param(lambda: MotiveClass(1, {(1,): IntPoly([2**80, -(2**80)])}), id="g1"),
    pytest.param(lambda: MotiveClass(1, {(1,): IntPoly([1]), (): IntPoly([-1, -1])}), id="terms-cancel"),
]


class TestClassJsonWriter:
    """class-json of a Jacobian multiple, rendered from its closed-form rows
    before its terms are ever formed, is ``json.dumps`` of ``to_json_dict`` of
    the product expanded pair by pair, or by :func:`sum_of_products`."""

    def assert_writes_like(self, x):
        expected = json.dumps(class_product_reference(jacobian(x.genus), x).to_json_dict())
        for cls in (jacobian(x.genus) * x, x * jacobian(x.genus)):
            assert render_class(cls, "class-json") == expected

    @staticmethod
    def assert_renders_expanded(cls):
        expanded = cls
        if cls._cofactor is not None:
            expanded = motive_module.sum_of_products([(jacobian(cls.genus), cls._cofactor)])
        assert render_class(cls, "class-json") == json.dumps(expanded.to_json_dict())

    @given(st.integers(1, 4).flatmap(classes_strategy))
    def test_classes_on_either_side(self, x):
        self.assert_writes_like(x)

    @pytest.mark.parametrize("make", EDGE_CLASSES)
    def test_edge_classes(self, make):
        self.assert_writes_like(make())

    @pytest.mark.parametrize("g", range(1, 6))
    def test_every_pair_chamber_by_each_route(self, g):
        for spec in chamber_specs(g):
            routes = [pair_motive_flip]
            if spec.e <= 4 * g - 5:
                routes.append(pair_motive_geo)
            if g >= 2 and spec.i < spec.e // 2 <= 2 * g - 3:
                routes.append(pair_motive_sym)
            for route in routes:
                self.assert_renders_expanded(route(spec))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_bundle_and_higgs_classes(self, g):
        for d in (1, 2, -1):
            for build in (bundle_motive, bundle_motive_fixed_det):
                self.assert_renders_expanded(build(BundleSpec(g, d)))
            for build in (higgs_motive, higgs_motive_mod_jac):
                self.assert_renders_expanded(build(HiggsSpec(g, d)))


class TestRenderingKeepsTheFactors:
    """Rendering a realization of a pair, Higgs or bundle class never forms
    ``jacobian * cofactor``; only ``class-json`` does, in closed form."""

    @pytest.fixture
    def guarded(self, monkeypatch):
        products = motive_module.sum_of_products

        def expanded(*args):
            raise AssertionError("the Jacobian product was expanded")

        def guard(pairs):
            if any(x is jacobian(x.genus) for pair in pairs for x in pair):
                expanded()
            return products(pairs)

        monkeypatch.setattr(motive_module, "_jacobian_rows", expanded)
        monkeypatch.setattr(motive_module, "sum_of_products", guard)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pair_motive_flip(ChamberSpec(g=4, e=9, i=3)),
            lambda: pair_motive_sym(ChamberSpec(g=4, e=9, i=3)),
            lambda: pair_motive_geo(ChamberSpec(g=4, e=9, i=3)),
            lambda: higgs_motive(HiggsSpec(4, 2)),
            lambda: bundle_motive(BundleSpec(4, 1)),
        ],
        ids=["flip", "sym", "geo", "higgs", "bundles"],
    )
    def test_realized_formats(self, guarded, build):
        cls = build()
        for fmt in ("poincare", "diamond-text", "diamond-json"):
            render_class(cls, fmt)
        with pytest.raises(AssertionError, match="was expanded"):
            render_class(cls, "class-json")
