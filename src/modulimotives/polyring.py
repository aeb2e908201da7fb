"""Exact polynomial arithmetic in one and two variables over the integers.

Every coefficient is a Python int, so all arithmetic is arbitrary-precision
and exact.  There is deliberately no rational-function type anywhere in this
package: quotients that are known to be polynomials are produced by synthetic
long division with an explicit remainder check (:func:`exact_div`), and a
fraction ``(T^a - T^b) / (T - 1)`` is a geometric sum (:meth:`IntPoly.geometric`)
or, on the pair path, a numerator that ``sum_of_products`` divides once, packed.

``IntPoly`` is dense (degrees stay small in this package), ``BiPoly`` is a
sparse exponent map.  Both are immutable value types and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class NonExactDivision(ArithmeticError):
    """A division that was supposed to be exact left a remainder.

    This signals either a violated hypothesis of a divisibility statement or
    an implementation bug; it is never caught and "handled" internally.
    """


def _as_int(c: object, what: str = "coefficients") -> int:
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"{what} must be int, got {type(c).__name__}")
    return c


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of the k-th power of the variable; the
    highest stored coefficient is nonzero (the zero polynomial stores an
    empty tuple).  The variable is purely formal: depending on context it is
    printed as ``T``, ``L`` or ``t``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs: list[int]) -> "IntPoly":
        """Take ownership of ``cs``, a list of ints from this module's own
        arithmetic: strip trailing zeros but skip re-validation."""
        while cs and cs[-1] == 0:
            cs.pop()
        obj = object.__new__(cls)
        object.__setattr__(obj, "_coeffs", tuple(cs))
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle through the public constructor
        return IntPoly, (self._coeffs,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def variable(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "IntPoly":
        """``coeff * T^exponent``."""
        if _as_int(exponent, "exponent") < 0:
            raise ValueError(f"negative exponent {exponent}")
        return cls._trusted([0] * exponent + [_as_int(coeff, "coeff")])

    @classmethod
    def geometric(cls, low: int, high: int) -> "IntPoly":
        """The geometric block ``T^low + T^(low+1) + ... + T^high``.

        Empty (zero) when ``high < low``; this is the expanded form of
        ``(T^(high+1) - T^low) / (T - 1)``.
        """
        if _as_int(high, "high") < _as_int(low, "low"):
            return cls.zero()
        if low < 0:
            raise ValueError(f"negative exponent {low}")
        return cls._trusted([0] * low + [1] * (high - low + 1))

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0."""
        return min(self._coeffs, default=0) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self._coeffs))

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly._trusted([-c for c in self._coeffs])

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPoly._trusted([c * other for c in self._coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if _as_int(n, "exponent") < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by ``T^k`` (k >= 0)."""
        if _as_int(k, "shift") < 0:
            raise ValueError(f"negative shift {k}")
        if not self._coeffs:
            return self
        return IntPoly._trusted([0] * k + list(self._coeffs))

    def evaluate(self, x: "int | Fraction") -> "int | Fraction":
        """Evaluate at an exact point (Horner)."""
        acc: int | Fraction = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # -- rendering ---------------------------------------------------------

    def to_str(self, var: str = "T") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = var if mag == 1 else f"{mag}*{var}"
            else:
                term = f"{var}^{k}" if mag == 1 else f"{mag}*{var}^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self.to_str()})"


def _coerce(x: "IntPoly | int") -> "IntPoly":
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return IntPoly((x,))
    return NotImplemented


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact quotient ``num / den`` in the integer polynomial ring.

    Synthetic long division; raises :class:`NonExactDivision` if at any step
    the leading coefficient does not divide, or if a nonzero remainder is
    left.  The result ``q`` always satisfies ``q * den == num``.
    """
    for name, poly in (("num", num), ("den", den)):
        if not isinstance(poly, IntPoly):
            raise TypeError(f"{name} must be IntPoly, got {type(poly).__name__}")
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return IntPoly.zero()
    dn, dd = num.degree, den.degree
    if dn < dd:
        raise NonExactDivision(f"degree {dn} < {dd}: nonzero remainder")
    rem = list(num.coeffs)
    dcoeffs = den.coeffs
    lead = dcoeffs[-1]
    qcoeffs = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        head = rem[k + dd]
        if head == 0:
            continue
        q, r = divmod(head, lead)
        if r != 0:
            raise NonExactDivision(
                f"leading coefficient {lead} does not divide {head}"
            )
        qcoeffs[k] = q
        for j, c in enumerate(dcoeffs):
            rem[k + j] -= q * c
    if any(rem):
        raise NonExactDivision("nonzero remainder")
    return IntPoly._trusted(qcoeffs)


class BiPoly:
    """Sparse polynomial in two variables u, v with integer coefficients.

    Exponents are pairs ``(p, q)`` of non-negative integers; zero
    coefficients are never stored.  In this package (p, q) are Hodge
    bidegrees and the coefficients are Hodge numbers.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None) -> None:
        data: dict[tuple[int, int], int] = {}
        if coeffs:
            for key, c in coeffs.items():
                p, q = (_as_int(x, "exponents") for x in key)
                if p < 0 or q < 0:
                    raise ValueError(f"negative exponent pair {key}")
                c = _as_int(c)
                if c != 0:
                    data[(p, q)] = c
        object.__setattr__(self, "_coeffs", data)

    @classmethod
    def _trusted(cls, data: dict[tuple[int, int], int]) -> "BiPoly":
        """Take ownership of ``data``, an exponent map from this package's own
        arithmetic: drop zero coefficients but skip re-validation."""
        if 0 in data.values():
            data = {k: c for k, c in data.items() if c}
        obj = object.__new__(cls)
        object.__setattr__(obj, "_coeffs", data)
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BiPoly is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle through the public constructor
        return BiPoly, (self._coeffs,)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, p: int, q: int, coeff: int = 1) -> "BiPoly":
        return cls({(p, q): coeff})

    @classmethod
    def from_diagonal(cls, poly: IntPoly) -> "BiPoly":
        """Send ``sum c_k T^k`` to ``sum c_k (uv)^k``."""
        return cls({(k, k): c for k, c in enumerate(poly.coeffs)})

    def coefficient(self, p: int, q: int) -> int:
        return self._coeffs.get((p, q), 0)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Iterate ``((p, q), coeff)`` in sorted exponent order."""
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiPoly._trusted(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly._trusted({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int) and not isinstance(other, bool):
            return BiPoly._trusted({k: c * other for k, c in self._coeffs.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), c1 in self._coeffs.items():
            for (p2, q2), c2 in other._coeffs.items():
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly._trusted(out)

    __rmul__ = __mul__

    def is_nonneg(self) -> bool:
        return min(self._coeffs.values(), default=0) >= 0

    def is_symmetric(self) -> bool:
        """True iff the coefficient of u^p v^q equals that of u^q v^p."""
        return all(
            c == self._coeffs.get((q, p), 0) for (p, q), c in self._coeffs.items()
        )

    def to_matrix(self) -> list[list[int]]:
        """Rectangular matrix with rows indexed by p, columns by q."""
        if not self._coeffs:
            return [[0]]
        rows = cols = 0
        for p, q in self._coeffs:  # both largest exponents in one pass
            if p > rows:
                rows = p
            if q > cols:
                cols = q
        mat = [[0] * (cols + 1) for _ in range(rows + 1)]
        for (p, q), c in self._coeffs.items():
            mat[p][q] = c
        return mat

    def diagonal_specialization(self) -> IntPoly:
        """Collapse to one variable: ``u^p v^q`` goes to ``t^(p+q)``."""
        if not self._coeffs:
            return IntPoly.zero()
        out = [0] * (max(map(sum, self._coeffs)) + 1)
        for (p, q), c in self._coeffs.items():
            out[p + q] += c
        return IntPoly._trusted(out)

    def evaluate(self, u: "int | Fraction", v: "int | Fraction") -> "int | Fraction":
        return sum(c * u**p * v**q for (p, q), c in self._coeffs.items())

    def __repr__(self) -> str:
        if not self._coeffs:
            return "BiPoly(0)"
        parts = []
        for (p, q), c in self.items():
            parts.append(f"{c}*u^{p}*v^{q}")
        return "BiPoly(" + " + ".join(parts) + ")"
