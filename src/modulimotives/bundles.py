"""Motives of moduli spaces of semistable rank-3 bundles of coprime degree.

The fixed-determinant moduli space is smooth projective of dimension
``8(g-1)``; its class is a sum of products of two symmetric powers of the
curve with explicit pairs of Tate twists:

    class = sym_curve(g-1)^2 * L^(3g-3)
          + sum over (k1, k2) with k1+k2 < 2g-2, or k1+k2 = 2g-2 and
            k1 < g-1, of
                sym_curve(k1) * sym_curve(k2)
                * (L^(k1+2k2) + L^(8g-8-2k1-3k2)).

The full moduli space is ``jacobian(g)`` times that class, a class that keeps
that cofactor and realizes with the Jacobian in closed form.  Up to isomorphism
neither space depends on the degree d (dualizing and twisting by line bundles
identify all coprime degrees), so d enters only through the coprimality check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .motive import (
    MotiveClass, UsageError, check_ints, jacobian, sum_of_products, sym_curve, zero
)


class InvalidDegree(UsageError):
    """Degree not coprime to 3 (semistable = stable fails)."""


class BundleSpec(namedtuple("BundleSpec", "g d")):
    """Genus and degree for the rank-3 bundle moduli space: a validated
    tuple, equal to the tuple of the same ints (harmless, as each cache is
    keyed by one kind of spec)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, g: int, d: int) -> "BundleSpec":
        check_ints(g=g, d=d)
        if g < 2:
            raise UsageError(f"genus must be >= 2, got {g}")
        if gcd(d, 3) != 1:
            raise InvalidDegree(f"degree {d} is not coprime to 3")
        return super().__new__(cls, g, d)


def bundle_dimension_fixed_det(g: int) -> int:
    return 8 * (g - 1)


def bundle_dimension(g: int) -> int:
    return 9 * (g - 1) + 1


@lru_cache(maxsize=None)
def _fixed_det_motive(g: int) -> MotiveClass:
    # The module docstring's double sum, grouped by k1.  For k1 the k2 range
    # over 0..K-1, K = 2g-2-k1 + [k1 < g-1], so with the running sums
    # P(K) = sum_(k2<K) S(k2) L^(2k2) and N(K) = sum_(k2<K) S(k2) L^(3(K-1-k2))
    # the inner sum is L^k1 P(K) + L^(8g-8-2k1-3(K-1)) N(K).
    prefix, horner = [zero(g)], [zero(g)]
    for k2 in range(2 * g - 1):
        s = sym_curve(g, k2)
        prefix.append(prefix[-1] + s.tate_twist(2 * k2))
        horner.append(horner[-1].tate_twist(3) + s)
    middle = sym_curve(g, g - 1)
    pairs = [(middle, middle.tate_twist(3 * g - 3))]
    for k1 in range(2 * g - 1):
        K = 2 * g - 2 - k1 + (k1 < g - 1)
        inner = prefix[K].tate_twist(k1) + horner[K].tate_twist(
            8 * g - 8 - 2 * k1 - 3 * (K - 1)
        )
        pairs.append((sym_curve(g, k1), inner))
    return sum_of_products(pairs)


def bundle_motive_fixed_det(spec: BundleSpec) -> MotiveClass:
    """Class of the fixed-determinant rank-3 moduli space (d-independent)."""
    return _fixed_det_motive(spec.g)


def bundle_motive(spec: BundleSpec) -> MotiveClass:
    """Class of the rank-3 moduli space with varying determinant."""
    return jacobian(spec.g) * bundle_motive_fixed_det(spec)
