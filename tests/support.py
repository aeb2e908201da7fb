"""Shared test helpers: independent brute-force oracles and class builders.

The oracles here are deliberately naive and independent of the library's
code paths, so that frozen expected values are computed by a second route.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

from modulimotives import (
    BiPoly,
    ChamberSpec,
    HiggsSpec,
    IntPoly,
    MotiveClass,
    exact_div,
    fixed_components,
    folded_coeff_poly,
    from_tate_poly,
    jacobian,
    pair_motive_flip,
    projective_space,
    sym_coeff_poly,
    sym_curve,
    sym_h1,
    sym_h1_hodge_poly,
    zero,
)
from hypothesis import strategies as st

from modulimotives.bundles import bundle_dimension, bundle_motive_fixed_det
from modulimotives.higgs import AuditReport, AuditRow
from modulimotives.motive import check_ints
from modulimotives.pairs import InvalidChamber, OnWall, OutOfRange


ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict[str, str]:
    """The environment for a child Python process that imports the package
    from this checkout's ``src/``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def classes_strategy(g: int):
    """Hypothesis classes of genus g: up to three terms, each a product of up
    to three generators with up to 13 coefficients of absolute value <= 2^80."""
    monos = st.lists(st.integers(1, g), min_size=0, max_size=3).map(
        lambda ix: tuple(sorted(ix))
    )
    polys = st.lists(st.integers(-(2**80), 2**80), max_size=13).map(IntPoly)
    return st.dictionaries(monos, polys, max_size=3).map(
        lambda terms: MotiveClass(g, terms)
    )


def conv(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook convolution of coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def divmod_rational(num: list[int], den: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division of coefficient lists over the rationals."""
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    rem = [Fraction(c) for c in num]
    while rem and rem[-1] == 0:
        rem.pop()
    q: list[Fraction] = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    lead = Fraction(den[-1])
    for k in range(len(rem) - len(den), -1, -1):
        c = rem[k + len(den) - 1] / lead
        q[k] = c
        for j, dc in enumerate(den):
            rem[k + j] -= c * dc
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def divides_exactly(num: list[int], den: list[int]) -> bool:
    """True iff den divides num in the *integer* polynomial ring."""
    q, rem = divmod_rational(num, den)
    return not rem and all(c.denominator == 1 for c in q)


def tate_sum(g: int, *exponents: int) -> MotiveClass:
    """The class ``L^m1 + ... + L^mr`` (the building block of the golden
    closed-form expressions)."""
    acc = IntPoly.zero()
    for k in exponents:
        acc = acc + IntPoly.monomial(k)
    return from_tate_poly(g, acc)


def tate_range(g: int, low: int, high: int) -> MotiveClass:
    """The class ``L^low + ... + L^high``."""
    return from_tate_poly(g, IntPoly.geometric(low, high))


def class_product_reference(a: MotiveClass, b: MotiveClass) -> MotiveClass:
    """The class product pair by pair: one schoolbook ``IntPoly`` product per
    pair of monomials, added into the result with ``IntPoly.__add__``."""
    assert a.genus == b.genus
    out: dict[tuple[int, ...], IntPoly] = {}
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, IntPoly.zero()) + p1 * p2
    return MotiveClass(a.genus, out)


def chamber_of_reference(sigma: Fraction | int, e: int) -> int:
    """The chamber index of an exact stability parameter in ``Fraction``
    arithmetic: the floor of ``e/2 - sigma``, with the same exceptions and
    messages as :func:`~modulimotives.pairs.chamber_of`."""
    check_ints(e=e)
    if not isinstance(sigma, (int, Fraction)) or isinstance(sigma, bool):
        raise TypeError(f"sigma must be an int or a Fraction, got {sigma!r}")
    if e < 2:
        raise InvalidChamber(f"pair degree must be >= 2, got {e}")
    sigma = Fraction(sigma)
    if sigma <= 0 or sigma > Fraction(e, 2):
        raise OutOfRange(f"stability parameter {sigma} outside (0, {e}/2]")
    offset = Fraction(e, 2) - sigma  # lies in [0, e/2)
    if offset.denominator == 1:
        raise OnWall(f"stability parameter {sigma} is the wall of index {offset}")
    return int(offset)


def sym_curve_reference(g: int, j: int) -> MotiveClass:
    """The j-th symmetric power of the curve as the sum over b of the reduced
    generator ``S_b`` times ``1 + L + ... + L^(j-b)``, one class at a time."""
    acc = zero(g)
    for b in range(min(j, 2 * g) + 1):
        acc = acc + sym_h1(g, b) * IntPoly.geometric(0, j - b)
    return acc


def pair_flip_reference(spec: ChamberSpec) -> MotiveClass:
    """The wall-crossing pair class one wall at a time: ``sym_curve(j)`` times
    the block ``(L^(e+g-2j-1) - L^j) / (L - 1)`` as an ``IntPoly`` (one class
    by polynomial product and one class add per wall), then the Jacobian."""
    g, e, i = spec.g, spec.e, spec.i
    acc = zero(g)
    for j in range(i + 1):
        hi = e + g - 2 * j - 1
        block = IntPoly.geometric(j, hi - 1) if hi >= j else -IntPoly.geometric(hi, j - 1)
        acc = acc + sym_curve(g, j) * block
    return jacobian(g) * acc


def pair_geo_reference(spec: ChamberSpec) -> MotiveClass:
    """The geometric pair class one term at a time (``e <= 4g-5``): one class
    product and one class add per term of the sums in the
    :func:`~modulimotives.pairs.pair_motive_geo` docstring, then the Jacobian."""
    g, e, i = spec.g, spec.e, spec.i
    jac = jacobian(g)
    if 3 * i < e + g:
        acc = zero(g)
        for k in range(i + 1):
            n = e + g - 3 * k - 2
            if n < 0:
                continue
            acc = acc + sym_curve(g, k) * projective_space(g, n).tate_twist(k)
    else:
        acc = sym_curve(g, g - 1) * projective_space(g, e - 2 * g + 1).tate_twist(g - 1)
        for k in range(2 * g - 2 - i):
            acc = acc + sym_curve(g, k) * projective_space(g, e + g - 3 * k - 2).tate_twist(k)
        for k in range(2 * g - 2 - i, g - 1):
            twists = IntPoly.monomial(3 * g - 3 - 2 * k) + IntPoly.monomial(k)
            acc = acc + sym_curve(g, k) * projective_space(g, e - 2 * g + 1) * twists
        acc = acc + jac * from_tate_poly(g, sym_coeff_poly(g, i, e, g))
    return jac * acc


def pair_sym_reference(spec: ChamberSpec) -> MotiveClass:
    """The ``S_b`` pair class one term at a time (``i < floor(e/2) <= 2g-3``):
    the plain sum over ``b = 0 .. i`` when ``3i <= e+g-1``, else the sum with
    the negative terms folded across ``b = g`` into :func:`folded_coeff_poly`,
    one class-by-polynomial product and one class add per term, then the
    Jacobian."""
    g, e, i = spec.g, spec.e, spec.i
    acc = zero(g)
    if 3 * i <= e + g - 1:
        for b in range(i + 1):
            acc = acc + sym_h1(g, b) * sym_coeff_poly(g, i, e, b)
    else:
        for b in range(i + 1):
            if 2 * g - i <= b <= g - e + 2 * i:
                acc = acc + sym_h1(g, b) * folded_coeff_poly(g, i, e, 2 * g - b)
            elif b < 2 * g - i or abs(b - g) < e - 2 * i:
                acc = acc + sym_h1(g, b) * sym_coeff_poly(g, i, e, b)
    return jacobian(g) * acc


def pair_sym_unfolded(spec: ChamberSpec) -> MotiveClass:
    """The pair cofactor as the plain sum of ``sym_h1(g, b) * sym_coeff_poly(g, i,
    e, b)`` over ``b = 0 .. i``, with no route hypothesis: it holds in every
    chamber with ``g >= 2``, past ``e = 4g - 5`` too, where neither closed route
    applies.  This is an arithmetic second route, not a geometric one: the flip
    sum with its two sums swapped and the inner one in closed form.  One
    class-by-polynomial product and one class add per term, no packed sum."""
    g, e, i = spec.g, spec.e, spec.i
    acc = zero(g)
    for b in range(i + 1):
        acc = acc + sym_h1(g, b) * sym_coeff_poly(g, i, e, b)
    return acc


def fixed_det_double_sum(g: int) -> MotiveClass:
    """The fixed-determinant rank-3 bundle class as the unfactored double sum
    of the :mod:`modulimotives.bundles` docstring, one product per term."""
    acc = sym_curve(g, g - 1) * sym_curve(g, g - 1) * IntPoly.monomial(3 * g - 3)
    for k1 in range(2 * g - 1):
        for k2 in range(2 * g - 1):
            s = k1 + k2
            if s < 2 * g - 2 or (s == 2 * g - 2 and k1 < g - 1):
                twists = IntPoly.monomial(k1 + 2 * k2) + IntPoly.monomial(
                    8 * g - 8 - 2 * k1 - 3 * k2
                )
                acc = acc + sym_curve(g, k1) * sym_curve(g, k2) * twists
    return acc


def hodge_realization_reference(cls: MotiveClass) -> BiPoly:
    """The Hodge realization term by term: ``BiPoly.from_diagonal(poly)``
    times the product of the generators' Hodge polynomials, summed with
    ``BiPoly.__add__``.  No memoization and no in-place accumulation."""
    total = BiPoly.zero()
    for mono, poly in cls.items():
        factor = BiPoly.from_diagonal(poly)
        for b in mono:
            factor = factor * sym_h1_hodge_poly(cls.genus, b)
        total = total + factor
    return total


def hodge_diamond_violations(matrix: list[list[int]], dim: int) -> list[str]:
    """The constraints that a Hodge matrix (rows are p) breaks, where a smooth
    projective variety of dimension ``dim`` must meet them all: it is
    ``(dim + 1) x (dim + 1)``, ``h^(0,0) = 1``, every ``h^(p,q) >= 0``,
    Poincaré duality ``h^(p,q) = h^(dim-p,dim-q)``, and hard Lefschetz
    ``h^(p,q) <= h^(p+1,q+1)`` for ``p + q < dim``.  Empty when it meets them."""
    n = dim + 1
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return [f"the matrix is not {n} x {n}"]
    broken = [] if matrix[0][0] == 1 else [f"h^(0,0) = {matrix[0][0]}"]
    for p in range(n):
        for q in range(n):
            h = matrix[p][q]
            if h < 0:
                broken.append(f"h^({p},{q}) = {h} < 0")
            if h != matrix[dim - p][dim - q]:
                broken.append(f"h^({p},{q}) != h^({dim - p},{dim - q})")
            if p + q < dim and h > matrix[p + 1][q + 1]:
                broken.append(f"h^({p},{q}) > h^({p + 1},{q + 1})")
    return broken


def unpack_reference(x: int, w: int) -> list[int]:
    """The signed base-``2^w`` digits of ``x``, lowest first, peeled off one
    per shift: a digit at or above ``2^(w-1)`` is taken as negative and
    borrows one from the rest.  Peeled until nothing is left, so the last
    digit is nonzero and 0 has none."""
    half, mask, digits = 1 << (w - 1), (1 << w) - 1, []
    while x:
        c, x = x & mask, x >> w
        if c >= half:
            c, x = c - mask - 1, x + 1
        digits.append(c)
    return digits


def pack_reference(coeffs: list[int], w: int) -> int:
    """The polynomial ``coeffs`` at ``2^w``, one shift-add per coefficient."""
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << w) + c
    return packed


def diamond_text_reference(matrix: list[list[int]]) -> str:
    """The ``diamond-text`` rendering of a Hodge matrix, one ``str`` per entry."""
    return "\n".join(" ".join(str(c) for c in row) for row in matrix)


def sym_coeff_reference(g: int, i: int, e: int, b: int) -> IntPoly:
    """The coefficient polynomial of ``S_b`` in the pair class in product
    form: ``(T^b - T^(e+g-1-2i)) (1 - T^(i-b+1)) (1 - T^(i-b+2))`` as a
    product of three ``IntPoly`` factors, divided exactly by
    ``(1-T)^2 (1-T^2)``."""
    one, t = IntPoly.one(), IntPoly.variable()
    num = (
        (IntPoly.monomial(b) - IntPoly.monomial(e + g - 1 - 2 * i))
        * (one - IntPoly.monomial(i - b + 1))
        * (one - IntPoly.monomial(i - b + 2))
    )
    return exact_div(num, (one - t) * (one - t) * (one - IntPoly.monomial(2)))


def poincare_reference(cls: MotiveClass) -> IntPoly:
    """The Poincaré polynomial through the full Hodge realization, specialized
    by ``h^(p,q) -> t^(p+q)``."""
    return cls.hodge_realization().diagonal_specialization()


def audit_reference(spec: HiggsSpec) -> AuditReport:
    """The twist audit through each component's full class: the top degree of
    the realized product ``jacobian(g) * cofactor``, one product and one
    realization per component."""
    half = bundle_dimension(spec.g)
    rows = []
    for comp in fixed_components(spec):
        top = (jacobian(spec.g) * comp.cofactor).poincare_polynomial().degree
        ok = (
            top % 2 == 0
            and top // 2 == comp.dimension
            and comp.twist == half - comp.dimension
        )
        rows.append(
            AuditRow(comp.kind, comp.params, comp.dimension, comp.twist, top // 2, ok)
        )
    return AuditReport(spec.g, spec.d, tuple(rows))


def higgs_mod_jac_reference(spec: HiggsSpec) -> MotiveClass:
    """The cofactor Q of the Higgs class one fixed component at a time: the
    component's class without its Picard Jacobian, times ``L^twist``, added
    with ``MotiveClass.__add__``.  A pair component contributes the full class
    ``pair_motive_flip(chamber)``; the record's ``factors`` are not used."""
    g = spec.g
    acc = zero(g)
    for comp in fixed_components(spec):
        if comp.kind == "(3)":
            cls = bundle_motive_fixed_det(spec)
        elif comp.kind == "(1,1,1)":
            m1, m2 = comp.params
            cls = sym_curve(g, m1) * sym_curve(g, m2)
        else:
            cls = pair_motive_flip(comp.chamber)
        acc = acc + cls.tate_twist(comp.twist)
    return acc


# -- [N(2, e)] by the Harder–Narasimhan recursion, on plain dicts --------------
# A Laurent class is ``{mono: {exp: coef}}``, the coefficient of each monomial
# as a Laurent polynomial in L with no zero entries.  Nothing below uses
# MotiveClass, IntPoly, exact_div or sum_of_products, so the oracle shares no
# arithmetic with the classes it checks.


def _laurent_sym_h1(g: int, b: int, shift: int) -> dict:
    """``S_b · L^shift``, with ``S_b`` for ``b > g`` reduced to ``S_(2g-b) L^(b-g)``;
    ``S_0`` and so ``S_(2g) = L^g`` sit on the unit monomial ``()``."""
    if b > g:
        b, shift = 2 * g - b, shift + b - g
    return {(b,) if b else (): {shift: 1}}


def _laurent_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = {m: dict(p) for m, p in a.items()}
    for mono, poly in b.items():
        row = out.setdefault(mono, {})
        for k, c in poly.items():
            row[k] = row.get(k, 0) + sign * c
    return {m: r for m, p in out.items() if (r := {k: c for k, c in p.items() if c})}


def laurent_mul(a: dict, b: dict, shift: int) -> dict:
    """``a · b · L^shift``; a product of generators stays a formal monomial."""
    out: dict = {}
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            row = out.setdefault(tuple(sorted(m1 + m2)), {})
            for k1, c1 in p1.items():
                for k2, c2 in p2.items():
                    row[k1 + k2 + shift] = row.get(k1 + k2 + shift, 0) + c1 * c2
    return _laurent_add({}, out)


def over_one_minus(f: dict[int, int], k: int) -> dict[int, int]:
    """The Laurent polynomial ``f / (1 - L^-k)``, from the top down: its
    coefficient at ``n`` is ``f_n`` plus its own at ``n + k``.  ``ArithmeticError``
    if the division leaves a remainder."""
    q: dict[int, int] = {}
    for n in range(max(f), min(f) - 1, -1):
        c = f.get(n, 0) + q.get(n + k, 0)
        if n >= min(f) + k:
            q[n] = c
        elif c:
            raise ArithmeticError(f"{f} is not a multiple of 1 - L^-{k}")
    return {n: c for n, c in q.items() if c}


def rank2_bundle_reference(g: int, e: int) -> dict:
    """``[N(2, e)]`` as a Laurent class, from the Atiyah–Bott recursion at motive
    level (Behrend–Dhillon 2007): the stack of all rank-2 bundles, less its
    unstable strata, times ``L - 1``, is

        L·(Jac·L^(3g-4)·Σ_(b<=2g) S_b L^(-2b) - Jac²·L^(g-3-k0)) / ((1-L^-1)(1-L^-2))

    with ``k0 = 1`` for odd ``e`` and 2 for even ``e``.  ``ArithmeticError`` on an
    inexact division or a negative power of L in the result."""
    jac, zeta = {}, {}
    for b in range(2 * g + 1):
        jac = _laurent_add(jac, _laurent_sym_h1(g, b, 0))
        zeta = _laurent_add(zeta, _laurent_sym_h1(g, b, -2 * b))
    k0 = 1 if e % 2 else 2
    num = _laurent_add(laurent_mul(jac, zeta, 3 * g - 4), laurent_mul(jac, jac, g - 3 - k0), -1)
    out = {}
    for mono, f in num.items():
        q = {n + 1: c for n, c in over_one_minus(over_one_minus(f, 1), 2).items()}
        if min(q, default=0) < 0:
            raise ArithmeticError(f"[N(2, {e})] at genus {g} has L^{min(q)} on {mono}")
        out[mono] = q
    return out


def _laurent_zeta_sums(g: int) -> tuple[dict, dict, dict]:
    """``Jac = Σ_(b<=2g) S_b`` and the numerators ``Σ_b S_b L^(-2b)`` and
    ``Σ_b S_b L^(-3b)`` of the motivic zeta function at ``L^-2`` and ``L^-3``."""
    jac, zeta2, zeta3 = {}, {}, {}
    for b in range(2 * g + 1):
        jac = _laurent_add(jac, _laurent_sym_h1(g, b, 0))
        zeta2 = _laurent_add(zeta2, _laurent_sym_h1(g, b, -2 * b))
        zeta3 = _laurent_add(zeta3, _laurent_sym_h1(g, b, -3 * b))
    return jac, zeta2, zeta3


def _times_one_minus(a: dict, k: int) -> dict:
    """``a · (1 - L^-k)``."""
    return _laurent_add(a, laurent_mul(a, {(): {0: 1}}, -k), -1)


def rank3_bundle_reference(g: int, d: int) -> dict:
    """``[N(3, d)]`` (``d`` prime to 3) as a Laurent class, from the Atiyah–Bott
    recursion at motive level (Behrend–Dhillon 2007), with ``D_k = 1 - L^-k``:

        [Bun_3]        = Jac·L^(8g-9)·Σ_b S_b L^(-2b)·Σ_c S_c L^(-3c) / (D_1² D_2² D_3)
        [Bun^ss_1]     = Jac·L^-1 / D_1
        [Bun^ss_(2,e)] = (Jac·L^(3g-4)·Σ_b S_b L^(-2b) - Jac²·L^(g-3-k0)) / (D_1² D_2)

    with ``k0 = 1`` for odd ``e`` and 2 for even ``e`` (the rank-2 recursion of
    :func:`rank2_bundle_reference`).  A Harder–Narasimhan stratum of type
    ``(n_i, d_i)``, slopes falling, is ``L^(Σ_(i<j) (g-1) n_i n_j - (d_i n_j - d_j n_i))``
    times the product of its ``[Bun^ss_(n_i,d_i)]``; summed over the degrees,
    each type is a geometric series:

    * (1,1,1): ``L^(3g-3) [Bun^ss_1]³ Σ L^(-2(a+c))`` over ``a, c >= 1`` with
      ``a + 2c = d (mod 3)``, that is over ``a0, c0`` in 1..3 of ``L^(-2(a0+c0)) / D_6²``;
    * (1,2): ``L^(2g-2) [Bun^ss_1] [Bun^ss_(2,(2d-m)/3)] L^-m`` over ``m > 0``,
      ``m = -d (mod 3)``, that is over ``m0`` in 1..6 of ``L^-m0 / D_6``, as ``m``
      and ``m0`` give rank-2 degrees of one parity;
    * (2,1): the same with ``m = d (mod 3)`` and rank-2 degree ``(2d + m)/3``.

    ``[N(3, d)] = (L - 1)·[Bun^ss_3]``, the strata subtracted from ``[Bun_3]`` over
    one common denominator, which then divides out exactly.  ``ArithmeticError``
    on an inexact division or a negative power of L in the result."""
    jac, zeta2, zeta3 = _laurent_zeta_sums(g)

    def rank2(e: int) -> dict:  # the numerator of [Bun^ss_(2,e)] over D_1² D_2
        k0 = 1 if e % 2 else 2
        return _laurent_add(laurent_mul(jac, zeta2, 3 * g - 4), laurent_mul(jac, jac, g - 3 - k0), -1)

    series = {}  # Σ L^(-2(a0+c0)) over the (1,1,1) residues
    for a0 in (1, 2, 3):
        for c0 in (1, 2, 3):
            if (a0 + 2 * c0 - d) % 3 == 0:
                series = _laurent_add(series, {(): {-2 * (a0 + c0): 1}})
    terms = [  # (sign, numerator, the k of its factors D_k)
        (1, laurent_mul(laurent_mul(jac, zeta2, 8 * g - 9), zeta3, 0), (1, 1, 2, 2, 3)),
        (-1, laurent_mul(laurent_mul(jac, jac, 0), laurent_mul(jac, series, 0), 3 * g - 6),
         (1, 1, 1, 6, 6)),
    ]
    for m0 in range(1, 7):
        for residue, rank2_degree in ((-d, (2 * d - m0) // 3), (d, (2 * d + m0) // 3)):
            if (m0 - residue) % 3 == 0:  # (1,2) for -d, (2,1) for d
                num = laurent_mul(jac, rank2(rank2_degree), 2 * g - 3 - m0)
                terms.append((-1, num, (1, 1, 1, 2, 6)))
    den = Counter()
    for _, _, ks in terms:
        den |= Counter(ks)
    total = {}
    for sign, num, ks in terms:  # over the common denominator
        for k in (den - Counter(ks)).elements():
            num = _times_one_minus(num, k)
        total = _laurent_add(total, num, sign)
    den[1] -= 1  # (L - 1) = L·D_1
    out = {}
    for mono, f in total.items():
        for k in den.elements():
            f = over_one_minus(f, k)
        q = {n + 1: c for n, c in f.items()}
        if min(q, default=0) < 0:
            raise ArithmeticError(f"[N(3, {d})] at genus {g} has L^{min(q)} on {mono}")
        out[mono] = q
    return out


def thaddeus_reference(g: int, e: int) -> dict:
    """``[N(2, e)]·[P^(e+1-2g)]`` as a Laurent class: for odd ``e >= 4g - 3`` the
    pair space in the last chamber ``(e-1)//2`` is a projective bundle over
    ``N(2, e)`` (Thaddeus 1994)."""
    fibre = {(): dict.fromkeys(range(e + 2 - 2 * g), 1)}  # 1 + L + ... + L^(e+1-2g)
    return laurent_mul(rank2_bundle_reference(g, e), fibre, 0)


def laurent_terms(cls: MotiveClass) -> dict:
    """The terms of ``cls`` as a Laurent class."""
    return {m: {k: c for k, c in enumerate(p.coeffs) if c} for m, p in cls.items()}
