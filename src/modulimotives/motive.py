"""Normal-form classes in the Grothendieck ring of motives built from a curve.

Fix a smooth projective curve of genus ``g`` (with a rational point class
available).  The classes handled here live in the subring of the Grothendieck
ring of effective Chow motives generated by the curve motive.  A class is
stored in a normal form: an integer-polynomial combination, in the Lefschetz
class ``L``, of formal products of the generators

    ``S_b`` = class of the b-th symmetric power of the weight-1 part of the
    curve motive,   1 <= b <= g.

Indices outside ``[1, g]`` never appear: ``S_0 = 1``, and for ``b > g`` the
reduction rule ``S_b = S_(2g-b) * L^(b-g)`` (with ``S_b = 0`` for ``b > 2g``)
is applied on construction.  Products of generators are kept as formal
monomials; since the Hodge realization is multiplicative this loses nothing.

All values are immutable; binary operations check that both operands carry
the same genus (the reduction rule depends on g, so mixing genera is always
a bug).  Effectivity (all coefficients >= 0) is *checked* by
:meth:`MotiveClass.is_effective`, never assumed: differences of classes are
legitimate intermediate values in verification code.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, prod
from typing import Iterator, Mapping

from .polyring import BiPoly, IntPoly, NonExactDivision

#: A formal product of generators S_b, stored as a sorted tuple of indices
#: in [1, g].  The empty tuple is the ring unit.
SymMonomial = tuple[int, ...]


class GenusMismatch(ValueError):
    """Binary operation on classes attached to different genera."""


class UsageError(ValueError):
    """Input outside a documented range or hypothesis; the CLI exits 2 on it."""


def _json_field(data: object, key: str) -> object:
    if not isinstance(data, Mapping) or key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_ints(**fields: object) -> None:
    """Raise ``TypeError`` naming the first field that is a bool or not an int."""
    for name, value in fields.items():
        if not _is_int(value):
            raise TypeError(f"{name} must be an int, got {value!r}")


def _validated_terms(
    genus: int, terms: Mapping[SymMonomial, IntPoly]
) -> dict[SymMonomial, IntPoly]:
    out: dict[SymMonomial, IntPoly] = {}
    for mono, poly in terms.items():
        mono = tuple(mono)
        if not all(map(_is_int, mono)):
            raise TypeError(f"monomial {mono} has an index that is not an int")
        if any(b < 1 or b > genus for b in mono):
            raise ValueError(f"monomial {mono} has an index outside [1, {genus}]")
        if tuple(sorted(mono)) != mono:
            raise ValueError(f"monomial {mono} is not sorted")
        if not isinstance(poly, IntPoly):
            raise TypeError("coefficients must be IntPoly")
        if poly:
            out[mono] = poly
    return out


def _pack(coeffs: tuple[int, ...], w: int) -> int:
    """``coeffs`` at ``2^w``, long ones as ``lo + (hi << w·h)`` of halves: a shift-add copies."""
    if len(coeffs) > 32:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], w) + (_pack(coeffs[h:], w) << (w * h))
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << w) + c
    return packed


def _width(bound: int, cast: bool = False) -> int:
    """Bits per signed digit of absolute value at most ``bound``: one more than
    ``bound`` needs, and with ``cast`` at least 8, 16, 32 or 64, the C ints
    :func:`_unpack_rows` casts to (for the Hodge lines and Jacobian expansions)."""
    w = bound.bit_length() + 1
    return next((s for s in (8, 16, 32, 64) if cast and w <= s), w)


def _unpack_rows(xs: list[int], w: int) -> list[list[int]]:
    """The signed base-``2^w`` digits of each ``x`` in ``xs``, below ``2^(w-1)`` in
    absolute value and lowest first: exactly the coefficients :func:`_pack` took,
    less trailing zeros, so a row ends in a nonzero digit and 0 has none.  The top
    digit outweighs the rest, so a nonzero ``x`` has ``|x|.bit_length() // w + 1``.
    At a C-int ``w``, adding and XORing ``2^(w-1)`` a slot leaves the digits' two's
    complements, and one cast reads the bytes of all rows, each in ``n >= 1`` slots."""
    counts = [abs(x).bit_length() // w + 1 if x else 0 for x in xs]
    if w in (8, 16, 32, 64) and sys.byteorder == "little":  # the layout the cast reads
        n = max(counts, default=0) or 1
        bias = int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")
        data = b"".join([((x + bias) ^ bias).to_bytes(n * w // 8, "little") for x in xs])
        flat = memoryview(data).cast({8: "b", 16: "h", 32: "i", 64: "q"}[w]).tolist()
        return [flat[k : k + c] for k, c in zip(range(0, len(flat), n), counts)]
    half, mask, rows = 1 << (w - 1), (1 << w) - 1, []
    for x, n in zip(xs, counts):
        digits = []
        for _ in range(n):  # peel off the lowest digit
            c, x = x & mask, x >> w
            if c >= half:
                c, x = c - mask - 1, x + 1
            digits.append(c)
        rows.append(digits)
    return rows


class MotiveClass:
    """An element of the curve-generated Grothendieck ring, in normal form.

    ``terms`` maps each :data:`SymMonomial` to its coefficient polynomial in
    the Lefschetz class.  Zero coefficients are dropped, so the zero class
    has no terms.
    """

    __slots__ = ("_genus", "_terms", "_cofactor", "_norm1")

    def __init__(self, genus: int, terms: Mapping[SymMonomial, IntPoly]) -> None:
        check_ints(genus=genus)
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        object.__setattr__(self, "_genus", genus)
        object.__setattr__(self, "_terms", _validated_terms(genus, terms))

    @classmethod
    def _trusted(cls, genus: int, terms: dict[SymMonomial, IntPoly]) -> "MotiveClass":
        """A class from this module's own arithmetic: drop zero coefficients
        but skip the index, sort and type checks."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_genus", genus)
        object.__setattr__(obj, "_terms", {m: p for m, p in terms.items() if p})
        return obj

    def __getattr__(self, name: str) -> object:  # only for an unset slot
        """An ordinary class has no cofactor; a Jacobian multiple forms its terms in
        closed form (:func:`_jacobian_rows`) and every class its 1-norm ``_norm1``,
        the sum of ``||c||_1`` over its terms, when first read."""
        if name == "_cofactor":
            return None
        if name == "_terms":
            value = {m: IntPoly._trusted(r) for m, r in _jacobian_rows(self._cofactor)}
        elif name == "_norm1":
            value = sum(sum(map(abs, p.coeffs)) for p in self._terms.values())
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MotiveClass is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle expanded, through the constructor
        return MotiveClass, (self._genus, self._terms)

    # -- queries -----------------------------------------------------------

    @property
    def genus(self) -> int:
        return self._genus

    def as_dict(self) -> dict[SymMonomial, IntPoly]:
        return dict(self._terms)

    def coefficient(self, mono: SymMonomial) -> IntPoly:
        return self._terms.get(tuple(sorted(mono)), IntPoly.zero())

    def items(self) -> Iterator[tuple[SymMonomial, IntPoly]]:
        """Iterate ``(monomial, coefficient)`` sorted by monomial."""
        return iter(sorted(self._terms.items()))

    def _rows(self) -> list[tuple[SymMonomial, list[int]]]:
        """The terms as ``(monomial, coefficient list)`` rows sorted by monomial; a
        Jacobian multiple whose terms are not yet formed reads them straight from its
        closed-form expansion (:func:`_jacobian_rows`), with no ``IntPoly`` built."""
        try:
            terms = MotiveClass._terms.__get__(self)  # the slot, left unset by a multiple
        except AttributeError:
            return _jacobian_rows(self._cofactor)
        return [(m, list(p.coeffs)) for m, p in sorted(terms.items())]

    def monomials(self) -> list[SymMonomial]:
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_effective(self) -> bool:
        """True iff every coefficient of every term is >= 0."""
        return all(p.is_nonneg() for p in self._terms.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self._genus == other._genus and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def _check_genus(self, other: "MotiveClass") -> None:
        if self._genus != other._genus:
            raise GenusMismatch(
                f"cannot combine classes of genus {self._genus} and {other._genus}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MotiveClass") -> "MotiveClass":
        if not isinstance(other, MotiveClass):
            return NotImplemented
        self._check_genus(other)
        out = dict(self._terms)
        for mono, poly in other._terms.items():
            out[mono] = out[mono] + poly if mono in out else poly
        return MotiveClass._trusted(self._genus, out)

    def __neg__(self) -> "MotiveClass":
        return MotiveClass._trusted(
            self._genus, {m: -p for m, p in self._terms.items()}
        )

    def __sub__(self, other: "MotiveClass") -> "MotiveClass":
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "MotiveClass | IntPoly | int") -> "MotiveClass":
        """Product with a class, or with a polynomial in ``L`` or an int.

        Class by class, a product with a factor equal to ``jacobian(g)`` keeps
        the other factor as its cofactor, entered as its formed terms if it is
        itself a Jacobian multiple, so nothing nests; its terms are formed on
        first read and its realizations apply the Jacobian in closed form.
        Every other product is formed at once by :func:`sum_of_products`.
        """
        if isinstance(other, IntPoly) or _is_int(other):
            return MotiveClass._trusted(
                self._genus, {m: p * other for m, p in self._terms.items()}
            )
        if not isinstance(other, MotiveClass):
            return NotImplemented
        self._check_genus(other)
        jac = jacobian(self._genus)
        x = other if self == jac else self if other == jac else None
        if x is None:
            return sum_of_products([(self, other)])
        if x._cofactor is not None:  # a Jacobian multiple enters as its terms
            x = MotiveClass._trusted(x._genus, x._terms)
        obj = object.__new__(MotiveClass)
        object.__setattr__(obj, "_genus", self._genus)
        object.__setattr__(obj, "_cofactor", x)
        return obj

    __rmul__ = __mul__

    def tate_twist(self, k: int) -> "MotiveClass":
        """Multiply by ``L^k`` (k >= 0)."""
        check_ints(k=k)
        if k < 0:
            raise ValueError(f"negative Tate twist {k}")
        return MotiveClass._trusted(
            self._genus, {m: p.shift(k) for m, p in self._terms.items()}
        )

    # -- realizations ------------------------------------------------------

    def hodge_realization(self) -> BiPoly:
        """Hodge polynomial: the coefficient of ``u^p v^q`` is ``h^(p,q)``.

        Ring homomorphism sending ``L`` to ``uv`` and each generator ``S_b``
        to its Hodge polynomial (see :func:`sym_h1_hodge_poly`); products of
        generators go to products of those polynomials.

        Every class realizes symmetrically, ``h^(p,q) = h^(q,p)``, as swapping
        ``u`` and ``v`` fixes ``uv`` and each ``sum_p C(g,p) C(g,b-p) u^p
        v^(b-p)``; so only the lines ``p - q = d >= 0`` of the diamond are
        formed.  A monomial's Hodge polynomial is homogeneous of degree
        ``sum(mono)``, so it has at most one entry ``h`` on each line, at ``q``,
        and along a line ``L`` acts as ``uv``: a term ``c(L) * mono`` adds
        ``h * c(uv) * (uv)^q`` to line ``d``.
        Each line is one int, its polynomial in ``uv`` at ``2^w``;
        :meth:`hodge_matrix` forms the lines and places each and its mirror.
        """
        rows = enumerate(self.hodge_matrix())
        return BiPoly._trusted({(p, q): c for p, row in rows for q, c in enumerate(row) if c})

    def hodge_matrix(self) -> list[list[int]]:
        """``hodge_realization().to_matrix()``, ``[[0]]`` for the zero class.

        An output digit sums at most one ``c_k * h`` a term, so ``w`` is the cast
        :func:`_width` of the sum of ``max|c_k| * max|h|``, times ``4^g`` (the
        Jacobian's coefficient sum) where the Jacobian factor is applied in
        closed form to the cofactor's lines (:func:`_times_jacobian`).
        Line ``d >= 0`` starts at ``(d, 0)`` and its mirror at ``(0, d)``; the
        nonzero lines span ``n = max(d + len)`` rows and columns, and the k-th digit
        sits at ``(d+k)·n + k`` of the row-major list and at ``k·n + d + k``, so two
        slices of step ``n + 1`` place the line."""
        g, cofactor = self._genus, self._cofactor
        source = self if cofactor is None else cofactor
        terms = source._terms.items()
        bound = sum(max(map(abs, p.coeffs)) * _monomial_hodge_lines(g, m)[0] for m, p in terms)
        w = _width(bound if cofactor is None else 4**g * bound, cast=True)
        lines = [0] * max((sum(m) + 1 for m in source._terms), default=0)  # d <= sum(m)
        for mono, poly in terms:
            packed = _pack(poly.coeffs, w)
            for d, q, h in _monomial_hodge_lines(g, mono)[1]:
                lines[d] += (h * packed) << (w * q)
        if cofactor is not None:
            lines = _times_jacobian(lines, g, w)
        placed = [(d, digits) for d, digits in enumerate(_unpack_rows(lines, w)) if digits]
        n = max((d + len(digits) for d, digits in placed), default=1)
        flat = [0] * (n * n)
        for d, digits in placed:
            span = len(digits) * (n + 1)
            flat[d * n : d * n + span : n + 1] = flat[d : d + span : n + 1] = digits
        return [flat[r : r + n] for r in range(0, n * n, n)]

    def poincare_polynomial(self) -> IntPoly:
        """Poincaré polynomial: the Hodge realization specialized by
        ``h^(p,q) -> t^(p+q)``, computed without it.

        Ring homomorphism into ``Z[t]`` sending ``L`` to ``t^2`` and ``S_b``
        to ``C(2g, b) * t^b`` (by Vandermonde, ``sum_p C(g,p) C(g,b-p)`` is
        ``C(2g, b)``), so a term ``c(L) * mono`` goes to ``betti * c(t^2) *
        t^deg`` with ``betti`` the product of ``C(2g, b)`` over the monomial
        and ``deg`` its index sum.  The whole sum is one int, the polynomial
        at ``2^w`` (Kronecker substitution; ``c(t^2)`` is ``c`` packed at
        ``2^(2w)``), with ``w`` as in :meth:`hodge_matrix` but for ``h = betti``,
        uncast; a Jacobian factor multiplies it by ``(1+t)^(2g)`` at ``t = 2^w``.
        """
        g, cofactor = self._genus, self._cofactor
        terms = (self if cofactor is None else cofactor)._terms.items()
        bound = sum(max(map(abs, p.coeffs)) * _monomial_betti(g, m) for m, p in terms)
        w = _width(bound if cofactor is None else 4**g * bound)
        total = sum(
            (_monomial_betti(g, m) * _pack(p.coeffs, 2 * w)) << (w * sum(m)) for m, p in terms
        )
        if cofactor is not None:
            total *= (1 + (1 << w)) ** (2 * g)
        return IntPoly._trusted(_unpack_rows([total], w)[0])

    def euler_characteristic(self) -> int:
        value = self.poincare_polynomial().evaluate(-1)
        assert isinstance(value, int)
        return value

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: terms sorted by monomial, dense coefficients."""
        return {
            "genus": self._genus,
            "terms": [{"mono": list(mono), "coeffs": coeffs} for mono, coeffs in self._rows()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MotiveClass":
        """Inverse of :meth:`to_json_dict`; ``ValueError`` names a bad field."""
        genus, terms = _json_field(data, "genus"), {}
        if not _is_int(genus):
            raise ValueError(f"genus must be an int, got {genus!r}")
        entries = _json_field(data, "terms")
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"terms must be an array, got {entries!r}")
        for entry in entries:
            mono, coeffs = _json_field(entry, "mono"), _json_field(entry, "coeffs")
            for name, values in (("mono", mono), ("coeffs", coeffs)):
                if not isinstance(values, (list, tuple)) or not all(map(_is_int, values)):
                    raise ValueError(f"{name} must be an array of ints, got {values!r}")
            if tuple(mono) in terms:
                raise ValueError(f"mono {mono!r} appears twice in terms")
            terms[tuple(mono)] = IntPoly(coeffs)
        return cls(genus, terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"MotiveClass(g={self._genus}, 0)"
        parts = []
        for mono, poly in self.items():
            name = "1" if not mono else "*".join(f"S{b}" for b in mono)
            parts.append(f"{name}:({poly.to_str('L')})")
        return f"MotiveClass(g={self._genus}, " + " + ".join(parts) + ")"


def _times_jacobian(lines: list[int], g: int, w: int) -> list[int]:
    """The Hodge lines at ``2^w``, ``lines[d]`` for ``d >= 0``, times the Jacobian:
    times ``(1+u)^g``, reading line ``-d`` as line ``d``, and then ``(1+v)^g``.
    ``u^k`` takes line ``d`` to ``d + k``, line ``-d`` to ``k - d``, ``d`` digits
    along, and ``v^l`` takes line ``d`` to ``d - l``, ``l`` digits along; no line
    below 0 is formed, so the ``len(lines) + g`` lines out are indexed as the ones
    in (all zero for a zero cofactor, whose ``lines`` is empty)."""
    binomials = [comb(g, k) for k in range(g + 1)]
    mid = [0] * (len(lines) + g)
    for d, x in enumerate(lines):
        mirrored = x << (w * d)
        for k, c in enumerate(binomials):
            mid[d + k] += c * x
            if 0 < d <= k:
                mid[k - d] += c * mirrored
    out = [0] * len(mid)
    for d, x in enumerate(mid):
        for c in binomials[: d + 1]:
            out[d] += c * x
            x, d = x << w, d - 1
    return out


def sum_of_products(pairs: list[tuple[MotiveClass, MotiveClass | IntPoly | tuple]]) -> MotiveClass:
    """The sum of ``a * b`` over a nonempty list of pairs, expanded: the one expansion of
    class products.  The ``a`` are classes of one genus; each ``b`` is a class of it, an
    ``IntPoly`` in ``L`` or a block ``(hi, lo)``, ``(L^hi - L^lo) / (L - 1)`` of any sign,
    read with no class built.  Each polynomial is packed into one int at ``2^w`` (Kronecker
    substitution), each pair of monomials costs one int product (a block: ``(x << w·hi) -
    (x << w·lo)`` for a packed ``x``), and each output monomial is unpacked once as signed
    digits, exact for ``w`` the :func:`_width` of ``sum of ||a||_1 * ||b||_inf`` (``a._norm1``;
    at most 1 for a block): per pair, output monomial and power of ``L``, a coefficient of
    ``a`` meets at most one of ``b``.  With a block, each other ``b`` is scaled by ``2^w - 1``
    and each sum divided by it once, a remainder raising ``NonExactDivision``."""
    g, bound, sums, operands, over = pairs[0][0].genus, 0, {}, [], False
    for a, b in pairs:
        pairs[0][0]._check_genus(a)
        if isinstance(b, tuple):
            top, over = int(b[0] != b[1]), True
        elif isinstance(b, MotiveClass):
            a._check_genus(b)
            top = max((max(map(abs, p.coeffs)) for p in b._terms.values()), default=0)
            b = b._terms.items()
        else:
            top, b = max(map(abs, b.coeffs), default=0), [((), b)] if b else []
        bound += a._norm1 * top
        operands.append((a._terms, b))
    w = _width(bound)
    scale = (1 << w) - 1 if over else 1
    for a, b in operands:
        block = isinstance(b, tuple)
        packed = [] if block else [(m, _pack(p.coeffs, w) * scale) for m, p in b]
        for m1, p1 in a.items():
            x1 = _pack(p1.coeffs, w)
            if block:
                sums[m1] = sums.get(m1, 0) + (x1 << w * b[0]) - (x1 << w * b[1])
            for m2, x2 in packed:
                mono = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                sums[mono] = sums.get(mono, 0) + x1 * x2
    if over:
        sums = {m: _over_base_minus_one(x, w) for m, x in sums.items()}
    rows = _unpack_rows(list(sums.values()), w)
    return MotiveClass._trusted(g, {m: IntPoly._trusted(r) for m, r in zip(sums, rows)})


def _over_base_minus_one(x: int, w: int) -> int:
    """``x`` packed at ``L = 2^w`` over ``L - 1``, or :class:`NonExactDivision`."""
    quotient, rest = divmod(x, (1 << w) - 1)
    if rest:
        raise NonExactDivision(f"L - 1 does not divide a packed numerator at 2^{w}")
    return quotient


def _jacobian_rows(x: MotiveClass) -> list[tuple[SymMonomial, list[int]]]:
    """The terms of ``jacobian(g) * x`` by the closed form of :func:`jacobian`, with
    no product, as exact ``(monomial, digits)`` rows sorted by monomial: each term
    ``c·m`` of ``x``, packed once as ``y``, adds ``y`` (b = g) or ``y + (y << w·(g-b))``
    to ``m·S_b``, and a monomial whose sum is 0 is skipped.  An output digit sums at
    most two of each ``c``, so ``w`` is the cast :func:`_width` of ``sum of ||c||_1``,
    ``x._norm1``."""
    g, sums = x._genus, {}
    w = _width(x._norm1, cast=True)
    for m, p in x._terms.items():
        packed = _pack(p.coeffs, w)
        for b in range(g + 1):
            mono = tuple(sorted(m + (b,))) if b else m
            y = packed if b == g else packed + (packed << (w * (g - b)))
            sums[mono] = sums.get(mono, 0) + y
    monos = sorted(m for m, y in sums.items() if y)
    return list(zip(monos, _unpack_rows([sums[m] for m in monos], w)))


def check_effective(cls: MotiveClass, name: str) -> MotiveClass:
    """Return ``cls``, the class of a variety, after checking it effective;
    otherwise raise ``ArithmeticError`` naming it."""
    if not cls.is_effective():
        raise ArithmeticError(f"{name} has a negative coefficient")
    return cls


def top_degree(cls: MotiveClass) -> int:
    """The degree of the Poincaré polynomial of ``cls``, which must be
    effective, read off its terms: the largest ``2·deg(c) + sum(mono)``, -1
    for zero.  No top term cancels, as every coefficient is >= 0 and every
    Betti factor ``prod C(2g, b)`` is > 0."""
    return max((2 * p.degree + sum(m) for m, p in cls._terms.items()), default=-1)


# -- constructors of basic classes ------------------------------------------


def zero(g: int) -> MotiveClass:
    return MotiveClass(g, {})


def unit(g: int) -> MotiveClass:
    return MotiveClass(g, {(): IntPoly.one()})


def tate(g: int, k: int) -> MotiveClass:
    """The Tate class ``L^k``."""
    check_ints(k=k)
    if k < 0:
        raise ValueError(f"negative Tate twist {k}")
    return MotiveClass(g, {(): IntPoly.monomial(k)})


def from_tate_poly(g: int, poly: IntPoly) -> MotiveClass:
    """The class whose unit-monomial coefficient is ``poly`` (in L)."""
    return MotiveClass(g, {(): poly})


@lru_cache(maxsize=None, typed=True)  # one class, and one 1-norm, per (g, b)
def sym_h1(g: int, b: int) -> MotiveClass:
    """Normal form of the generator ``S_b`` for any b >= 0.

    ``S_0 = 1``; for ``b <= g`` the generator itself; for ``g < b <= 2g``
    the reduction ``S_(2g-b) * L^(b-g)``; zero for ``b > 2g``.  Checks
    ``(g, b)`` as :class:`MotiveClass` would and builds the class unchecked.
    """
    check_ints(b=b)
    if b < 0:
        raise ValueError(f"negative symmetric-power index {b}")
    check_ints(genus=g)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if b > 2 * g:
        return MotiveClass._trusted(g, {})
    twist, b = (b - g, 2 * g - b) if b > g else (0, b)
    return MotiveClass._trusted(g, {(b,) if b else (): IntPoly.monomial(twist)})


@lru_cache(maxsize=None, typed=True)  # so sym_curve(g, True) misses and is checked
def sym_curve(g: int, j: int) -> MotiveClass:
    """Class of the j-th symmetric power of the curve, in normal form.

    Expanding the j-th symmetric power of ``1 + h^1 + L`` gives
    ``sum over b of S_b * (1 + L + ... + L^(j-b))``.  For ``b < g`` the
    reduced ``S_(2g-b) = S_b * L^(g-b)`` adds ``L^(g-b) + ... + L^(j-g)`` to
    the coefficient of ``S_b`` (``S_0 = 1``).
    """
    check_ints(g=g, j=j)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if j < 0:
        raise ValueError(f"negative symmetric power {j}")
    terms = {}
    for b in range(min(j, g) + 1):
        coeffs = [1] * (j - b + 1)
        if b < g:
            coeffs[g - b : j - g + 1] = [2] * (j - 2 * g + b + 1)
        terms[(b,) if b else ()] = IntPoly._trusted(coeffs)
    return MotiveClass._trusted(g, terms)


@lru_cache(maxsize=None)
def jacobian(g: int) -> MotiveClass:
    """Class of the Jacobian: the sum of all ``S_b`` for 0 <= b <= 2g, in
    normal form ``S_g + sum over b < g of S_b * (1 + L^(g-b))`` (``S_0 = 1``)."""
    acc = zero(g)
    for b in range(2 * g + 1):
        acc = acc + sym_h1(g, b)
    return acc


def projective_space(g: int, n: int) -> MotiveClass:
    """Class of n-dimensional projective space, ``1 + L + ... + L^n``."""
    check_ints(n=n)
    if n < 0:
        raise ValueError(f"negative projective-space dimension {n}")
    return from_tate_poly(g, IntPoly.geometric(0, n))


@lru_cache(maxsize=None)
def _monomial_betti(g: int, mono: SymMonomial) -> int:
    """``betti``, the coefficient of the Poincaré image ``betti * t^deg`` of a monomial."""
    return prod(comb(2 * g, b) for b in mono)


@lru_cache(maxsize=None)
def _monomial_hodge_lines(g: int, mono: SymMonomial) -> tuple[int, tuple]:
    """Hodge polynomial of a product of generators: the largest of its
    |coefficients|, and its ``(p - q, q, h)`` entries with ``p >= q``, one a line."""
    h = BiPoly.one()
    for b in mono:
        h = h * sym_h1_hodge_poly(g, b)
    entries = tuple((p - q, q, c) for (p, q), c in h.items() if p >= q)
    return max(abs(c) for _, _, c in entries), entries


@lru_cache(maxsize=None, typed=True)
def sym_h1_hodge_poly(g: int, b: int) -> BiPoly:
    """Hodge polynomial of ``S_b``: ``sum_p C(g,p) C(g,b-p) u^p v^(b-p)``.

    The formula is valid for every b >= 0 (it vanishes for b > 2g) and is
    compatible with the reduction rule: for ``g <= b <= 2g`` it equals the
    Hodge polynomial of ``S_(2g-b)`` times ``(uv)^(b-g)``.
    """
    check_ints(g=g, b=b)
    if g < 1 or b < 0:
        raise ValueError(f"genus must be >= 1 and b >= 0, got genus {g} and b {b}")
    return BiPoly(
        {
            (p, b - p): comb(g, p) * comb(g, b - p)
            for p in range(max(0, b - g), min(g, b) + 1)
        }
    )
