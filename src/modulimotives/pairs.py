"""Motives of moduli spaces of rank-2 pairs (a bundle with a nonzero section).

For fixed degree ``e >= 2`` the space of stability parameters ``(0, e/2]``
breaks into chambers separated by the walls ``sigma_i = e/2 - i`` for
``i = 0 .. m`` with ``m = floor((e-1)/2)``; the moduli space of stable pairs
is constant in the chamber ``C_i = (sigma_(i+1), sigma_i)`` and is smooth of
dimension ``e + 2g - 2``.

Every pair class is ``jacobian`` times a cofactor.  Three routes compute the
cofactor ``pair_cofactor_*`` as a list of terms (a class times a
polynomial in ``L``) fed to one builder, which sums them in one packed product
and checks the result effective; ``pair_motive_*`` returns
``jacobian(g) * cofactor``, a class that keeps its cofactor, so it realizes
with the Jacobian in closed form and is effective as both factors are:

* :func:`pair_motive_flip` -- the wall-crossing recursion.  Crossing the
  j-th wall changes the class by the class of the wall's center times a
  difference of projective-space classes, so

      class(i-th chamber) = sum over j <= i of
          jacobian * sym_curve(j) * (L^(e+g-2j-1) - L^j) / (L - 1),

  the fraction a block ``(e+g-2j-1, j)``, its numerator summed packed.  When
  ``3j > e + g - 1`` the block is genuinely negative (the flip shrinks that
  stratum); the total is nonetheless effective and this is checked.

* :func:`pair_motive_sym` -- a closed form in the ``S_b`` basis with
  coefficient polynomials :func:`sym_coeff_poly` (built without division),
  summed plainly; where some are negative, the reduction rule folds them across ``b = g`` into
  :func:`folded_coeff_poly`, a verified identity whose non-negativity the
  cofactor's effectivity check covers.

* :func:`pair_motive_geo` -- a closed form in terms of symmetric powers of
  the curve, its Jacobian and projective spaces (blocks, as in flip) only.
  Where ``3i < e + g`` it is the flip sum term for term, so it is a second
  formula only in the chambers past that.

The flip route is the trusted oracle (it is derived directly from the flip
description with no rearrangement); the sweep suites verify the two closed
forms against it, cofactor against cofactor.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .motive import (
    MotiveClass, UsageError, check_effective, check_ints, jacobian, sum_of_products,
    sym_curve, sym_h1,
)
from .polyring import IntPoly


class InvalidChamber(UsageError):
    """Chamber index outside ``[0, floor((e-1)/2)]`` or degree < 2."""


class HypothesisViolation(UsageError):
    """Arguments violate the numerical hypothesis of a closed formula."""


class OnWall(UsageError):
    """The stability parameter equals a wall value."""


class OutOfRange(UsageError):
    """The stability parameter lies outside ``(0, e/2]``."""


class ChamberSpec(namedtuple("ChamberSpec", "g e i")):
    """A chamber of the stability space for rank-2 pairs of degree e: a
    validated tuple, equal to the tuple of the same ints (harmless, as each
    cache is keyed by one kind of spec)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, g: int, e: int, i: int) -> "ChamberSpec":
        check_ints(g=g, e=e, i=i)
        if g < 1:
            raise InvalidChamber(f"genus must be >= 1, got {g}")
        m = _last_chamber(e)
        if not 0 <= i <= m:
            raise InvalidChamber(f"chamber index {i} outside [0, {m}] for degree {e}")
        return super().__new__(cls, g, e, i)


def _last_chamber(e: int) -> int:  # m = floor((e-1)/2), for e >= 2
    if e < 2:
        raise InvalidChamber(f"pair degree must be >= 2, got {e}")
    return (e - 1) // 2


def chambers(e: int) -> tuple[int, list[Fraction]]:
    """Return ``(m, walls)``: the walls are ``e/2 - i`` for ``i = 0 .. m``."""
    check_ints(e=e)
    m = _last_chamber(e)
    return m, [Fraction(e, 2) - i for i in range(m + 1)]


def chamber_of(sigma: Fraction | int, e: int) -> int:
    """Index of the chamber containing an exact stability parameter.

    In integers: ``sigma = n/d`` is in ``(0, e/2]`` iff ``0 < 2n <= e·d``, and the
    index, the floor of ``e/2 - sigma``, is ``(e·d - 2n) // 2d``, a wall iff exact.
    Raises :class:`OnWall` when sigma is a wall and :class:`OutOfRange` when
    sigma is outside ``(0, e/2]``.
    """
    check_ints(e=e)
    if not isinstance(sigma, (int, Fraction)) or isinstance(sigma, bool):
        raise TypeError(f"sigma must be an int or a Fraction, got {sigma!r}")
    _last_chamber(e)
    n, d = sigma.numerator, sigma.denominator
    if n <= 0 or 2 * n > e * d:
        raise OutOfRange(f"stability parameter {Fraction(sigma)} outside (0, {e}/2]")
    index, rest = divmod(e * d - 2 * n, 2 * d)  # e/2 - sigma, in [0, e/2)
    if rest == 0:
        raise OnWall(f"stability parameter {Fraction(sigma)} is the wall of index {index}")
    return index


def pair_dimension(spec: ChamberSpec) -> int:
    """Dimension of the pair moduli space: ``e + 2g - 2``."""
    return spec.e + 2 * spec.g - 2


def _pair_cofactor(spec: ChamberSpec, terms: list[tuple]) -> MotiveClass:
    """One packed sum of the terms, each a class times a polynomial in ``L`` or a block
    ``(hi, lo)``, ``(L^hi - L^lo) / (L - 1)`` unexpanded, that
    :func:`~modulimotives.motive.sum_of_products` takes as it is; checked effective."""
    return check_effective(sum_of_products(terms), f"pair class for {spec}")


def _flip_block(g: int, e: int, j: int) -> tuple[int, int]:
    # (L^(e+g-2j-1) - L^j) / (L - 1) as a block: negative when e+g-2j-1 < j, empty when equal
    return e + g - 2 * j - 1, j


@lru_cache(maxsize=None)
def pair_cofactor_flip(spec: ChamberSpec) -> MotiveClass:
    """The wall-crossing cofactor: over walls ``j <= i``, ``sym_curve(j)`` times its block."""
    g, e, i = spec
    return _pair_cofactor(spec, [(sym_curve(g, j), _flip_block(g, e, j)) for j in range(i + 1)])


def pair_motive_flip(spec: ChamberSpec) -> MotiveClass:
    """Class of the pair moduli space by wall-crossing: ``jacobian * pair_cofactor_flip``."""
    return jacobian(spec.g) * pair_cofactor_flip(spec)


def sym_coeff_poly(g: int, i: int, e: int, b: int) -> IntPoly:
    """Coefficient polynomial of ``S_b`` in the pair class, as a polynomial.

    The quotient ``(T^b - T^n) (1 - T^a) (1 - T^(a+1)) / ((1-T)^2 (1-T^2))``
    (``n = e+g-1-2i``, ``a = i-b+1``) is ``T^b [n-b]_T``, or ``-T^n [b-n]_T``,
    times ``[a+1 choose 2]_T``, whose ``T^k`` coefficient is ``min(k, 2a-2-k)
    // 2 + 1``: a running sum over a window of ``|n-b|`` of those, undivided.
    Requires ``0 <= b <= i < e/2`` and ``g >= 2``; non-negative iff ``b <= n``.
    """
    check_ints(g=g, i=i, e=e, b=b)
    if g < 2:
        raise HypothesisViolation(f"genus must be >= 2, got {g}")
    if not 0 <= b <= i:
        raise HypothesisViolation(f"need 0 <= b <= i, got b={b}, i={i}")
    if not 2 * i < e:
        raise HypothesisViolation(f"need i < e/2, got i={i}, e={e}")
    n, a = e + g - 1 - 2 * i, i - b + 1
    sign, window = (1, n - b) if b <= n else (-1, b - n)
    gauss = [min(k, 2 * a - 2 - k) // 2 + 1 for k in range(2 * a - 1)] + [0] * window
    coeffs, run = [0] * min(b, n), 0
    for k in range(len(gauss) - 1):  # gauss[k - window] is a padding 0 while k < window
        run += gauss[k] - gauss[k - window]
        coeffs.append(sign * run)
    return IntPoly._trusted(coeffs)


def folded_coeff_poly(g: int, i: int, e: int, b: int) -> IntPoly:
    """Non-negative recombination ``T^(b-g) * Q_b + Q_(2g-b)`` of two
    coefficient polynomials, obtained by folding the index range across g.

    Requires ``e+g-1-2i < b <= i < floor(e/2) <= 2g-3`` (which forces
    ``b > g``); the result is checked to have non-negative coefficients.
    """
    check_ints(g=g, i=i, e=e, b=b)
    if not (e + g - 1 - 2 * i < b <= i < e // 2 <= 2 * g - 3):
        raise HypothesisViolation(
            f"need e+g-1-2i < b <= i < floor(e/2) <= 2g-3, "
            f"got g={g}, i={i}, e={e}, b={b}"
        )
    result = sym_coeff_poly(g, i, e, b).shift(b - g) + sym_coeff_poly(g, i, e, 2 * g - b)
    if not result.is_nonneg():
        raise ArithmeticError(
            f"folded coefficient polynomial for g={g}, i={i}, e={e}, b={b} "
            "has a negative coefficient"
        )
    return result


def pair_motive_sym(spec: ChamberSpec) -> MotiveClass:
    """Class of the pair moduli space, ``jacobian * pair_cofactor_sym``."""
    return jacobian(spec.g) * pair_cofactor_sym(spec)


def pair_cofactor_sym(spec: ChamberSpec) -> MotiveClass:
    """The pair cofactor as the plain sum of ``sym_h1(b) * sym_coeff_poly(b)``
    over ``b = 0 .. i``; requires ``i < floor(e/2) <= 2g-3``.  The negative
    terms (``3i > e+g-1``, ``b`` in ``[g+e-2i, i]``) land on ``S_(2g-b)``,
    whose total is then :func:`folded_coeff_poly` at ``b``: a verified
    identity, whose non-negativity the cofactor's effectivity check covers."""
    g, e, i = spec.g, spec.e, spec.i
    if not i < e // 2:
        raise HypothesisViolation(f"need i < floor(e/2), got i={i}, e={e}")
    if not e // 2 <= 2 * g - 3:
        raise HypothesisViolation(f"need floor(e/2) <= 2g-3, got e={e}, g={g}")
    return _pair_cofactor(spec, [(sym_h1(g, b), sym_coeff_poly(g, i, e, b)) for b in range(i + 1)])


def pair_motive_geo(spec: ChamberSpec) -> MotiveClass:
    """Class of the pair moduli space, ``jacobian * pair_cofactor_geo``."""
    return jacobian(spec.g) * pair_cofactor_geo(spec)


def pair_cofactor_geo(spec: ChamberSpec) -> MotiveClass:
    """The pair cofactor in terms of symmetric powers of the curve, the
    Jacobian and projective spaces.

    Requires ``e <= 4g-5`` (``2i < e`` holds in every chamber).  For
    ``3i < e+g`` the cofactor is

        sum over k = 0..i of
            sym_curve(k) * projective_space(e+g-3k-2) * L^k

    (a term is empty when the projective-space dimension is -1): the k-th term
    is flip's wall block :func:`_flip_block` at ``j = k``, so this form is the
    flip sum term for term.  For ``3i >= e+g`` the rearranged four-part sum
    applies, its first ``2g-2-i`` terms again flip's; the Tate factor on its
    Jacobian-squared term is :func:`sym_coeff_poly` at ``b = g``.
    """
    g, e, i = spec.g, spec.e, spec.i
    if not e <= 4 * g - 5:
        raise HypothesisViolation(f"need e <= 4g-5, got e={e}, g={g}")

    def proj(k: int, n: int) -> tuple[int, int]:  # projective_space(n) * L^k, a block
        return k + n + 1, k

    if 3 * i < e + g:
        terms = [(sym_curve(g, k), _flip_block(g, e, k)) for k in range(i + 1)]
    else:
        n = e - 2 * g + 1
        terms = [(sym_curve(g, g - 1), proj(g - 1, n))]
        terms += [(sym_curve(g, k), _flip_block(g, e, k)) for k in range(2 * g - 2 - i)]
        terms += [
            (sym_curve(g, k), proj(twist, n))
            for k in range(2 * g - 2 - i, g - 1) for twist in (3 * g - 3 - 2 * k, k)
        ]
        terms.append((jacobian(g), sym_coeff_poly(g, i, e, g)))
    return _pair_cofactor(spec, terms)
