"""Verification sweeps: the package checking its own formulas against each
other, exhaustively over parameter ranges.

Each sweep returns a :class:`SweepResult` holding the number of checks that
ran and a list of human-readable counterexample descriptions (empty on
success).  The command-line ``verify`` subcommand is a thin wrapper around
:func:`run_suite`.
"""

from __future__ import annotations

from typing import Callable

from .bundles import BundleSpec, bundle_dimension_fixed_det, bundle_motive_fixed_det
from .higgs import HiggsSpec, audit_fixed_loci, higgs_dimension, higgs_motive, higgs_motive_mod_jac
from .motive import UsageError, jacobian, projective_space, sym_curve, top_degree
from .pairs import (
    ChamberSpec,
    folded_coeff_poly,
    pair_cofactor_flip,
    pair_cofactor_geo,
    pair_cofactor_sym,
    pair_dimension,
    sym_coeff_poly,
)
from .polyring import BiPoly, IntPoly, NonExactDivision, exact_div


class SweepResult:
    """A sweep's name, its number of checks and its counterexamples."""

    def __init__(self, name: str, checked: int = 0, failures: list[str] | None = None):
        self.name, self.checked, self.failures = name, checked, failures or []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(describe)

    def render(self) -> str:
        if self.passed:
            return f"{self.name}: PASS ({self.checked} checks)"
        return (
            f"{self.name}: FAIL ({len(self.failures)}/{self.checked} checks failed); "
            f"first counterexample: {self.failures[0]}"
        )


def _chamber_specs(g: int):
    for e in range(2, 4 * g - 5 + 1):
        m = (e - 1) // 2
        for i in range(m + 1):
            yield ChamberSpec(g=g, e=e, i=i)


def _route(result: SweepResult, spec: ChamberSpec, route, name: str):
    """``route(spec)``, or None after failing a check when it raises ``ArithmeticError``."""
    try:
        return route(spec)
    except NonExactDivision:
        raise
    except ArithmeticError as exc:
        return result.check(False, f"{spec}: {name} fails: {exc}")


def sweep_route_agreement(max_genus: int) -> SweepResult:
    """The three pair-moduli routes agree wherever their hypotheses hold.

    For every chamber-valid ``(e, i)`` with ``e <= 4g-5``: the wall-crossing
    cofactor is effective and the class has top degree ``deg P(cofactor) + 2g``
    twice its dimension; the symmetric-power basis form (when ``i < floor(e/2)
    <= 2g-3``) and the geometric form (always applicable in this range)
    reproduce the cofactor exactly, hence the class, in an integral domain.
    """
    result = SweepResult("route-agreement")
    for g in range(2, max_genus + 1):
        for spec in _chamber_specs(g):
            flip = _route(result, spec, pair_cofactor_flip, "wall-crossing")
            if flip is None:
                continue
            top = top_degree(flip) + 2 * g
            result.check(
                top == 2 * pair_dimension(spec),
                f"{spec}: top degree {top} != twice the dimension",
            )
            routes = {"geometric form": pair_cofactor_geo}
            if spec.i < spec.e // 2 <= 2 * g - 3:
                routes = {"symmetric-power basis form": pair_cofactor_sym, **routes}
            for name, route in routes.items():
                other = _route(result, spec, route, name)
                if other is not None:
                    result.check(other == flip, f"{spec}: {name} disagrees with wall-crossing")
    return result


def sweep_symmetric_power_identity(max_genus: int) -> SweepResult:
    """Reduction identity for symmetric powers of the curve.

    For ``g <= j <= 2g-2``:
    ``sym_curve(j) = sym_curve(2g-2-j) * L^(j+1-g)
    + jacobian * projective_space(j-g)``.
    """
    result = SweepResult("symmetric-power-identity")
    for g in range(2, max_genus + 1):
        for j in range(g, 2 * g - 1):
            lhs = sym_curve(g, j)
            rhs = sym_curve(g, 2 * g - 2 - j).tate_twist(j + 1 - g) + jacobian(
                g
            ) * projective_space(g, j - g)
            result.check(lhs == rhs, f"g={g}, j={j}: reduction identity fails")
    return result


def _sym_coeff_by_division(g: int, i: int, e: int, b: int) -> IntPoly:
    """:func:`sym_coeff_poly` by division: ``(T^b - T^n) (1 - T^a) (1 - T^(a+1))``
    from its eight signed monomials, divided exactly by ``(1-T)^2 (1-T^2)``."""
    n, a = e + g - 1 - 2 * i, i - b + 1
    num = [0] * (max(b, n) + 2 * a + 2)
    for k, s in ((b, 1), (n, -1)):  # (T^b - T^n)(1 - T^a - T^(a+1) + T^(2a+1))
        for j, t in ((0, 1), (a, -1), (a + 1, -1), (2 * a + 1, 1)):
            num[k + j] += s * t
    return exact_div(IntPoly._trusted(num), IntPoly([1, -2, 0, 2, -1]))


def sweep_positivity(max_genus: int) -> SweepResult:
    """Exactness and positivity of the pair coefficient polynomials.

    Over all ``0 <= b <= i < floor(e/2)`` with ``e <= 4g-5``: the defining
    division is exact (any remainder raises), its quotient equals the closed
    form :func:`sym_coeff_poly`, and their sign matches the comparison of
    ``b`` with ``e+g-1-2i``.  Over the admissible range of
    :func:`folded_coeff_poly` the folded polynomial is coefficient-wise
    non-negative, and the hypothesis indeed forces ``b >= g+1``.
    """
    result = SweepResult("positivity")
    for g in range(2, max_genus + 1):
        for spec in _chamber_specs(g):
            e, i = spec.e, spec.i
            for b in range(i + 1):
                try:
                    q = _sym_coeff_by_division(g, i, e, b)
                except NonExactDivision:
                    result.check(False, f"g={g}, i={i}, e={e}, b={b}: division not exact")
                    continue
                if b < e + g - 1 - 2 * i:
                    ok = q.is_nonneg() and not q.is_zero()
                elif b == e + g - 1 - 2 * i:
                    ok = q.is_zero()
                else:
                    ok = (-q).is_nonneg() and not q.is_zero()
                ok = ok and q == sym_coeff_poly(g, i, e, b)
                result.check(ok, f"g={g}, i={i}, e={e}, b={b}: wrong sign pattern or routes differ")
                if e + g - 1 - 2 * i < b <= i < e // 2 <= 2 * g - 3:  # folded_coeff_poly's range
                    result.check(
                        b >= g + 1,
                        f"g={g}, i={i}, e={e}, b={b}: hypothesis fails to force b >= g+1",
                    )
                    try:
                        ok = folded_coeff_poly(g, i, e, b).is_nonneg()
                    except ArithmeticError:  # raised on a negative result
                        ok = False
                    result.check(
                        ok,
                        f"g={g}, i={i}, e={e}, b={b}: folded polynomial negative",
                    )
    return result


def _poincare_dual(h: BiPoly, dim: int) -> bool:
    return all(c == h.coefficient(dim - p, dim - q) for (p, q), c in h.items())


def sweep_duality(max_genus: int) -> SweepResult:
    """Structural properties of the realized classes.

    Each Hodge realization is symmetric by construction, so it is checked to
    specialize to the Poincare polynomial instead.  Fixed-determinant bundle
    space: Poincare duality ``h^(p,q) = h^(D-p, D-q)`` with ``D = 8(g-1)``
    (equivalently, a palindromic Poincare polynomial of degree ``16(g-1)``),
    and ``h^(1,1) = 1``.  Higgs space (d in {1, 2}): unit leading Betti
    number, first Betti number ``2g``, vanishing Euler characteristic, and
    top realized degree equal to ``2(9(g-1)+1)``.
    """
    result = SweepResult("duality")
    for g in range(2, max_genus + 1):
        bundle = bundle_motive_fixed_det(BundleSpec(g, 1))
        hn, dim = bundle.hodge_realization(), bundle_dimension_fixed_det(g)
        betti = bundle.poincare_polynomial().coeffs
        ok = hn.diagonal_specialization().coeffs == betti
        result.check(ok, f"g={g}: bundle Hodge and Poincare realizations differ")
        result.check(_poincare_dual(hn, dim), f"g={g}: bundle class fails Poincare duality")
        result.check(
            len(betti) == 2 * dim + 1 and betti == tuple(reversed(betti)),
            f"g={g}: bundle Betti numbers not palindromic of degree {2 * dim}",
        )
        result.check(hn.coefficient(0, 0) == 1, f"g={g}: bundle b0 != 1")
        result.check(hn.coefficient(1, 1) == 1, f"g={g}: bundle h^(1,1) != 1")
        for d in (1, 2):
            higgs = higgs_motive(HiggsSpec(g, d))
            hm, poincare = higgs.hodge_realization(), higgs.poincare_polynomial()
            ok = hm.diagonal_specialization() == poincare
            result.check(ok, f"g={g}, d={d}: Higgs Hodge and Poincare realizations differ")
            result.check(hm.coefficient(0, 0) == 1, f"g={g}, d={d}: Higgs b0 != 1")
            b1 = hm.coefficient(1, 0) + hm.coefficient(0, 1)
            result.check(b1 == 2 * g, f"g={g}, d={d}: Higgs b1 = {b1} != 2g")
            result.check(
                poincare.evaluate(-1) == 0,
                f"g={g}, d={d}: Higgs Euler characteristic nonzero",
            )
            result.check(
                poincare.degree == higgs_dimension(g),
                f"g={g}, d={d}: top realized degree != dimension",
            )
    return result


def sweep_degree_independence(max_genus: int) -> SweepResult:
    """The Higgs class is the same for degrees 1 and 2, compared through the
    cofactors of ``jacobian``: the ring is an integral domain and it is nonzero."""
    result = SweepResult("degree-independence")
    for g in range(2, max_genus + 1):
        result.check(
            higgs_motive_mod_jac(HiggsSpec(g, 1)) == higgs_motive_mod_jac(HiggsSpec(g, 2)),
            f"g={g}: Higgs classes for d=1 and d=2 differ",
        )
    return result


def sweep_twist_audit(max_genus: int) -> SweepResult:
    """Lagrangian twist identity for every fixed component, d in {1, 2}."""
    result = SweepResult("twist-audit")
    for g in range(2, max_genus + 1):
        for d in (1, 2):
            report = audit_fixed_loci(HiggsSpec(g, d))
            for row in report.rows:
                result.check(
                    row.ok,
                    f"g={g}, d={d}, kind={row.kind}, params={row.params}: "
                    f"dim={row.dimension}, twist={row.twist}, "
                    f"recomputed dim={row.recomputed_dimension}",
                )
    return result


SUITES: dict[str, tuple[Callable[[int], SweepResult], ...]] = {
    "identities": (sweep_route_agreement, sweep_symmetric_power_identity),
    "positivity": (sweep_positivity,),
    "duality": (sweep_duality,),
    "degree-independence": (sweep_degree_independence,),
    "audit": (sweep_twist_audit,),
}
SUITES["all"] = tuple(fn for fns in SUITES.values() for fn in fns)


def run_suite(name: str, max_genus: int) -> list[SweepResult]:
    if max_genus < 2:
        raise UsageError(f"max genus must be >= 2, got {max_genus}")
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [fn(max_genus) for fn in SUITES[name]]
