"""Exact rational functions in t = q^(-s) with factored denominators.

Every zeta value produced by the engine is a rational function whose
denominator is a product of factors (1 - q^(-a) t^b) with a, b >= 1.  The
prime q = p is substituted at construction time, so coefficients are plain
`fractions.Fraction` values and cancellation is exact.

Canonical form: the numerator is divided by every denominator factor that
divides it (greedily, factors in sorted order) and the remaining factor
multiset is kept sorted.  Because distinct multisets can still represent
equal functions, equality is decided by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation


@dataclass(frozen=True, order=True)
class DenomFactor:
    """The factor (1 - q^(-a) t^b)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("denominator factor requires a >= 1 and b >= 1")


Coeffs = Tuple[Fraction, ...]


def _trim(coeffs: Sequence[Fraction]) -> Coeffs:
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _divide_once(num: Coeffs, b: int, c: Fraction) -> Optional[Coeffs]:
    """Exact quotient of ``num`` by (1 - c t^b), or None when not divisible."""
    if not num:
        return ()
    deg = len(num) - 1
    if deg < b:
        return None
    q = [Fraction(0)] * (deg + 1)
    for i in range(deg + 1):
        q[i] = num[i] + (c * q[i - b] if i >= b else 0)
    if any(q[i] != 0 for i in range(deg - b + 1, deg + 1)):
        return None
    return _trim(q[: deg - b + 1])


class RatFun:
    """Rational function in t with exact rational coefficients, fixed prime p."""

    __slots__ = ("p", "num", "denom")

    def __init__(self, p: int, num: Sequence, denom: Sequence[DenomFactor] = ()):
        num = _trim([Fraction(c) for c in num])
        factors = sorted(DenomFactor(f.a, f.b) if isinstance(f, DenomFactor) else DenomFactor(*f) for f in denom)
        if not num:
            factors = []
        else:
            # Greedy cancellation in sorted factor order until nothing divides.
            changed = True
            while changed and factors:
                changed = False
                for i, f in enumerate(factors):
                    quot = _divide_once(num, f.b, Fraction(1, p**f.a))
                    if quot is not None:
                        num = quot
                        del factors[i]
                        changed = True
                        break
        self.p = p
        self.num = num
        self.denom = tuple(factors)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "RatFun":
        return cls(p, ())

    @classmethod
    def const(cls, p: int, c) -> "RatFun":
        return cls(p, (Fraction(c),))

    @classmethod
    def monomial(cls, p: int, c, e: int) -> "RatFun":
        return cls(p, (Fraction(0),) * e + (Fraction(c),))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other: "RatFun"):
        if not isinstance(other, RatFun):
            raise TypeError("expected a RatFun")
        if self.p != other.p:
            raise ValueError("mixed primes")

    def factor_coeffs(self, f: DenomFactor) -> Coeffs:
        return (Fraction(1),) + (Fraction(0),) * (f.b - 1) + (Fraction(-1, self.p**f.a),)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatFun") -> "RatFun":
        self._check(other)
        merged: List[DenomFactor] = []
        d1, d2 = list(self.denom), list(other.denom)
        for f in sorted(set(d1) | set(d2)):
            merged.extend([f] * max(d1.count(f), d2.count(f)))
        num1, num2 = self.num, other.num
        for f in merged:
            if f in d1:
                d1.remove(f)
            else:
                num1 = _poly_mul(num1, self.factor_coeffs(f))
            if f in d2:
                d2.remove(f)
            else:
                num2 = _poly_mul(num2, self.factor_coeffs(f))
        return RatFun(self.p, _poly_add(num1, num2), merged)

    def __neg__(self) -> "RatFun":
        return RatFun(self.p, tuple(-c for c in self.num), self.denom)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def scale(self, c, e: int = 0) -> "RatFun":
        """Multiply by c * t^e."""
        c = Fraction(c)
        num = (Fraction(0),) * e + tuple(v * c for v in self.num)
        return RatFun(self.p, num, self.denom)

    def geometric_close(self, a: int, b: int) -> "RatFun":
        """Multiply by the closed geometric-series factor 1/(1 - q^(-a) t^b)."""
        return RatFun(self.p, self.num, self.denom + (DenomFactor(a, b),))

    def times_factor(self, a: int, b: int) -> "RatFun":
        """Multiply by (1 - q^(-a) t^b)."""
        return RatFun(self.p, _poly_mul(self.num, self.factor_coeffs(DenomFactor(a, b))), self.denom)

    # -- analysis --------------------------------------------------------------

    def series_expand(self, order: int) -> List[Fraction]:
        """Taylor coefficients c_0..c_order at t = 0, exact."""
        if order < 0:
            return []
        out = [Fraction(0)] * (order + 1)
        for i, c in enumerate(self.num[: order + 1]):
            out[i] = c
        for f in self.denom:
            c = Fraction(1, self.p**f.a)
            for i in range(f.b, order + 1):
                out[i] += c * out[i - f.b]
        return out

    def pole_real_parts(self) -> set:
        """Real parts of the poles in s: { -a/b } over the canonical denominator."""
        return {Fraction(-f.a, f.b) for f in self.denom}

    def evaluate(self, t: Fraction) -> Fraction:
        num = sum(c * t**i for i, c in enumerate(self.num))
        den = Fraction(1)
        for f in self.denom:
            den *= 1 - Fraction(1, self.p**f.a) * t**f.b
        if den == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return Fraction(num) / den

    def divide_numerator_exactly(self, b: int, c) -> "RatFun":
        """Divide the numerator by (1 - c t^b); raises when not exact."""
        quot = _divide_once(self.num, b, Fraction(c))
        if quot is None:
            raise InvariantViolation(f"numerator not divisible by (1 - {c} t^{b})")
        return RatFun(self.p, quot, self.denom)

    # -- equality and rendering -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.p != other.p:
            return False
        left = self.num
        right = other.num
        for f in other.denom:
            left = _poly_mul(left, self.factor_coeffs(f))
        for f in self.denom:
            right = _poly_mul(right, self.factor_coeffs(f))
        return left == right

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "num": [[c.numerator, c.denominator] for c in self.num],
            "denom": [{"a": f.a, "b": f.b} for f in self.denom],
        }

    @classmethod
    def from_json(cls, obj: dict, p: int) -> "RatFun":
        num = [Fraction(a, b) for a, b in obj["num"]]
        denom = [DenomFactor(d["a"], d["b"]) for d in obj["denom"]]
        return cls(p, num, denom)

    def _num_str(self, tvar: str = "t") -> str:
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                tpow = tvar if i == 1 else f"{tvar}^{i}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        num = self._num_str()
        if not self.denom:
            return num
        den = "".join(
            f"(1 - {self.p}^-{f.a}{'*t' if f.b == 1 else f'*t^{f.b}'})" for f in self.denom
        )
        return f"({num}) / {den}"

    __repr__ = __str__

    def latex(self) -> str:
        if not self.num:
            return "0"

        def frac(c: Fraction) -> str:
            if c.denominator == 1:
                return str(c.numerator)
            sign = "-" if c < 0 else ""
            return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"

        parts = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            tpow = "" if i == 0 else ("t" if i == 1 else f"t^{{{i}}}")
            coef = frac(c) if (i == 0 or abs(c) != 1) else ("-" if c == -1 else "")
            parts.append(f"{coef}{tpow}")
        num = " + ".join(parts).replace("+ -", "- ")
        if not self.denom:
            return num
        den = "".join(f"\\left(1 - {self.p}^{{-{f.a}}} t^{{{f.b}}}\\right)" for f in self.denom)
        return f"\\frac{{{num}}}{{{den}}}"

