"""Motives of moduli spaces of rank-3 Higgs bundles of coprime degree.

Scaling the Higgs field gives a torus action on the (smooth, quasi-projective,
dimension ``2(9(g-1)+1)``) moduli space whose fixed locus is proper, so the
class of the total space is the sum over fixed components F of

    class(F) * L^twist(F),      twist(F) = 9(g-1) + 1 - dim(F),

the twist being the codimension of the attracting stratum (the downward flow
is Lagrangian, whence the formula).  The fixed components come in four types
according to how the underlying bundle splits under the torus:

* type (3): the Higgs field is zero; one component, the rank-3 bundle moduli
  space itself, with twist 0;
* type (1,1,1): a sum of three line bundles chained by the Higgs field; one
  component per pair ``(m1, m2)`` of section degrees with
  ``max(2m1+m2, m1+2m2) < 6g-6`` and ``d = m2 - m1 (mod 3)``, isomorphic to
  ``Jacobian x sym_curve(m1) x sym_curve(m2)``;
* types (1,2) and (2,1): a line bundle plus a rank-2 piece; one component per
  ``k = 0 .. g-2``, isomorphic to ``Jacobian x (rank-2 pair moduli space)``
  whose degree and chamber are affine functions of k and of the residue
  ``x = d mod 3`` in {1, 2}.

For the (1,2)/(2,1) components, the chamber index predicted by the closed
formula is re-derived from the exact rational stability parameter through
:func:`modulimotives.pairs.chamber_of`; any disagreement raises
:class:`ChamberMismatch` (no silent formula drift).

Pair classes always enter through the wall-crossing route
(:func:`modulimotives.pairs.pair_cofactor_flip`), which has no numerical
hypothesis; the closed forms are verification-only.

Every component carries exactly one Jacobian factor, so the class is
``jacobian(g) * Q``, a class that keeps its cofactor Q and realizes with the
Jacobian in closed form; :func:`higgs_motive_mod_jac`, the one assembly, builds
Q in factored form and checks it effective.  A :class:`FixedComponent` holds no
class, only its cofactor's factors, which the twist audit realizes one by one;
for (1,2) and (2,1) they are ``jacobian`` and the pair cofactor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import NamedTuple

from .bundles import BundleSpec, bundle_dimension, bundle_motive_fixed_det
from .motive import MotiveClass, check_effective, jacobian, sum_of_products, sym_curve, top_degree
from .pairs import ChamberSpec, chamber_of, pair_cofactor_flip, pair_dimension
from .polyring import IntPoly


class ChamberMismatch(RuntimeError):
    """Closed-form chamber index disagrees with the wall/chamber search."""


class HiggsSpec(BundleSpec):
    """Genus and degree for the rank-3 Higgs moduli space, which has the same
    hypotheses as the bundle moduli space: a :class:`BundleSpec` by another
    name (so it equals the bundle spec and the tuple of the same ints)."""

    __slots__ = ()

    @property
    def x(self) -> int:
        """The representative of d mod 3 in {1, 2}."""
        return self.d % 3


class FixedComponent(NamedTuple):
    """One fixed component, isomorphic to ``Jacobian x`` the product of ``factors``."""

    spec: HiggsSpec
    kind: str  # "(3)", "(1,1,1)", "(1,2)" or "(2,1)"
    params: tuple[int, ...]  # (m1, m2) for (1,1,1); (k,) for (1,2)/(2,1)
    dimension: int
    twist: int
    chamber: ChamberSpec | None = None  # the pair moduli space of (1,2)/(2,1)

    @property
    def factors(self) -> tuple[MotiveClass, ...]:
        """The fixed-determinant bundle class for (3), ``sym_curve(m1)`` and
        ``sym_curve(m2)`` for (1,1,1), and for (1,2) and (2,1) ``jacobian`` and
        the pair cofactor, whose product is the pair class."""
        if self.kind == "(3)":
            return (bundle_motive_fixed_det(self.spec),)
        if self.kind == "(1,1,1)":
            m1, m2 = self.params
            return (sym_curve(self.spec.g, m1), sym_curve(self.spec.g, m2))
        return (jacobian(self.spec.g), pair_cofactor_flip(self.chamber))

    @property
    def cofactor(self) -> MotiveClass:
        """The class with its Jacobian factor removed, the product of ``factors``."""
        return reduce(mul, self.factors)


def higgs_dimension(g: int) -> int:
    return 2 * bundle_dimension(g)


def fixed_locus_bundles(spec: HiggsSpec) -> list[FixedComponent]:
    """The type-(3) component: the bundle moduli space, untwisted."""
    return [FixedComponent(spec, "(3)", (), bundle_dimension(spec.g), 0)]


def fixed_locus_111(spec: HiggsSpec) -> list[FixedComponent]:
    """Type-(1,1,1) components, sorted by ``(m1, m2)``."""
    g, d = spec.g, spec.d
    bound = 6 * g - 6
    comps = []
    for m1 in range(bound):
        for m2 in range(bound):
            if 2 * m1 + m2 >= bound or m1 + 2 * m2 >= bound:
                continue
            if (m2 - m1 - d) % 3 != 0:
                continue
            comps.append(
                FixedComponent(
                    spec, "(1,1,1)", (m1, m2), g + m1 + m2, 8 * g - 8 - m1 - m2
                )
            )
    return comps


def _pair_locus(spec: HiggsSpec, kind: str, y: int) -> list[FixedComponent]:
    """The (1,2) components at residue ``y``, labelled ``kind``: the (2,1)
    components at residue ``x`` have the (1,2) formulas at ``3 - x``."""
    g, comps = spec.g, []
    for k in range(g - 1):
        e = 4 * g - 3 * k - 7 + y
        i = 2 * g - 2 * k - 5 + y
        sigma = Fraction(k + 1, 2) - Fraction(y, 6)
        found = chamber_of(sigma, e)
        if found != i:
            raise ChamberMismatch(
                f"type {kind}, k={k}: stability parameter {sigma} lies in chamber "
                f"{found} of degree {e}, but the closed form predicts {i}"
            )
        chamber = ChamberSpec(g=g, e=e, i=i)
        dimension = g + pair_dimension(chamber)
        twist = 2 * g + 3 * k + 1 - y
        comps.append(FixedComponent(spec, kind, (k,), dimension, twist, chamber))
    return comps


def fixed_locus_12(spec: HiggsSpec) -> list[FixedComponent]:
    """Type-(1,2) components, one per ``k = 0 .. g-2``."""
    return _pair_locus(spec, "(1,2)", spec.x)


def fixed_locus_21(spec: HiggsSpec) -> list[FixedComponent]:
    """Type-(2,1) components, one per ``k = 0 .. g-2``."""
    return _pair_locus(spec, "(2,1)", 3 - spec.x)


def fixed_components(spec: HiggsSpec) -> list[FixedComponent]:
    """All fixed components in a deterministic order.

    Type (3) first, then (1,1,1) sorted by ``(m1, m2)``, then (1,2) and
    (2,1) each by k; output serialization is therefore reproducible.
    """
    return (
        fixed_locus_bundles(spec)
        + fixed_locus_111(spec)
        + fixed_locus_12(spec)
        + fixed_locus_21(spec)
    )


@lru_cache(maxsize=None)
def higgs_motive_mod_jac(spec: HiggsSpec) -> MotiveClass:
    """The cofactor Q of the Jacobian class: ``higgs_motive = jacobian * Q``.

    Every fixed component carries exactly one Jacobian factor: the type-(3)
    component through the varying determinant, the others through their
    Picard factor.  Q sums, over the :class:`FixedComponent` records that the
    twist audit checks, each cofactor times ``L^twist``.  The (1,1,1)
    components of one ``m1`` have every ``m2 = m1 + d (mod 3)`` up to a
    largest ``M``, and ``twist(m1, m2) = twist(m1, M) + M - m2``, so they sum to
    ``sym_curve(m1) * L^twist(m1,M)`` times ``upto[M]``, the sum of
    ``sym_curve(m2) * L^(M-m2)`` over those ``m2``, formed in Horner form as
    ``upto[M-3] * L^3 + sym_curve(M)``.  The (1,2) and (2,1) records
    enter as ``jacobian`` times the sum of their pair cofactors times
    ``L^twist``.  These products and the bundle cofactor form one packed
    :func:`~modulimotives.motive.sum_of_products`, checked effective; each
    ``L^twist`` of a cofactor enters it as ``IntPoly.monomial(twist)``.
    """
    g = spec.g
    paired = fixed_locus_12(spec) + fixed_locus_21(spec)  # factors (jacobian, pair cofactor)
    twisted = [(c.factors[1], IntPoly.monomial(c.twist)) for c in paired]
    pairs = [(jacobian(g), sum_of_products(twisted))]
    pairs += [(c.cofactor, IntPoly.monomial(c.twist)) for c in fixed_locus_bundles(spec)]
    last = {c.params[0]: c for c in fixed_locus_111(spec)}  # the (m1, M) record by m1
    upto = []
    for M in range(max(c.params[1] for c in last.values()) + 1):
        s = sym_curve(g, M)
        upto.append(upto[M - 3].tate_twist(3) + s if M >= 3 else s)
    pairs += [(sym_curve(g, m1), upto[c.params[1]].tate_twist(c.twist)) for m1, c in last.items()]
    return check_effective(sum_of_products(pairs), f"Higgs class for {spec}")


def higgs_motive(spec: HiggsSpec) -> MotiveClass:
    """Class of the rank-3 Higgs moduli space, ``jacobian * higgs_motive_mod_jac``."""
    return jacobian(spec.g) * higgs_motive_mod_jac(spec)  # effective, as both factors are


class AuditRow(NamedTuple):
    kind: str
    params: tuple[int, ...]
    dimension: int
    twist: int
    recomputed_dimension: int
    ok: bool


class AuditReport(NamedTuple):
    genus: int
    degree: int
    rows: tuple[AuditRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        """One line per component: kind, params, dimension, twist, verdict."""
        half = bundle_dimension(self.genus)
        lines = [
            f"fixed-locus audit: genus={self.genus} degree={self.degree} "
            f"half-dimension={half}"
        ]
        for row in self.rows:
            params = ",".join(str(p) for p in row.params)
            lines.append(
                f"  kind={row.kind} params=({params}) dim={row.dimension} "
                f"twist={row.twist} recomputed-dim={row.recomputed_dimension} "
                f"{'PASS' if row.ok else 'FAIL'}"
            )
        lines.append("all components pass" if self.all_pass else "AUDIT FAILED")
        return "\n".join(lines)


def audit_fixed_loci(spec: HiggsSpec) -> AuditReport:
    """Check ``twist = 9(g-1)+1 - dim`` for every fixed component.

    The dimension is recomputed from the component's own classes as half the
    top degree of P(jacobian * factors), P the Poincare realization: a ring map
    into the integral domain Z[t], so degrees add, each read off an effective
    factor's terms (:func:`~modulimotives.motive.top_degree`) with nothing
    multiplied or realized.  The audit catches wrong twists and wrong classes.
    """
    half, jacobian_degree = bundle_dimension(spec.g), top_degree(jacobian(spec.g))
    rows = []
    for comp in fixed_components(spec):
        top = jacobian_degree + sum(map(top_degree, comp.factors))
        ok = top == 2 * comp.dimension and comp.twist == half - comp.dimension
        rows.append(
            AuditRow(comp.kind, comp.params, comp.dimension, comp.twist, top // 2, ok)
        )
    return AuditReport(spec.g, spec.d, tuple(rows))
