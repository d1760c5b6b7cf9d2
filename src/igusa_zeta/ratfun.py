"""Exact rational functions in t = q^(-s) with factored denominators.

Every zeta value produced by the engine is a rational function whose
denominator is a product of factors (1 - q^(-a) t^b) with a, b >= 1.  The
prime q = p is substituted at construction time, so the value is exact and
rational.

Storage: an integer numerator N(t) (a tuple of Python ints, trimmed) over
one positive integer denominator D, with gcd(D, coefficients of N) = 1, and
the factor multiset.  The value is N(t) / (D * prod (1 - p^(-a) t^b)).  The
arithmetic is integer polynomial arithmetic: a factor (1 - p^(-a) t^b)
multiplies N by (p^a - t^b) and D by p^a, a sum brings both numerators to
one common denominator, and equality cross-multiplies integer vectors.
The Taylor series and the JSON form are read off the integers too (see
series_integers and to_json); ``num``, the tuple of Fraction coefficients
N_i / D, is a derived view for the text and LaTeX renderings only.

Canonical form: the numerator is divided by every denominator factor that
divides it (greedily, factors in sorted order) and the remaining factor
multiset is kept sorted.  Because distinct multisets can still represent
equal functions, equality is decided by cross-multiplication.

Exact division by (1 - p^(-a) t^b) is division of the integer N by the
primitive (p^a - t^b), whose quotient is integral by Gauss's lemma when it
exists; so the low-end recurrence stops at the first coefficient that p^a
does not divide.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation


class DenomFactor(namedtuple("DenomFactor", "a b")):
    """The factor (1 - q^(-a) t^b); compared, ordered and hashed as the pair (a, b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError("denominator factor requires a >= 1 and b >= 1")
        return tuple.__new__(cls, (a, b))


def _trim(coeffs: List[int]):
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    del coeffs[k:]


def _times_factor(num: Sequence[int], pa: int, b: int) -> List[int]:
    """num * (pa - t^b); trimmed when num is, as the factor's leading coefficient is -1."""
    out = [pa * c for c in num]
    out.extend([0] * b)
    for i, c in enumerate(num):
        out[i + b] -= c
    return out


def _times_factors(num: Sequence[int], den: int, p: int, factors) -> Tuple[Sequence[int], int]:
    """(num, den) multiplied by every factor (1 - p^(-a) t^b) in ``factors``."""
    for f in factors:
        pa = p**f.a
        num = _times_factor(num, pa, f.b)
        den *= pa
    return num, den


def _divide_exact(num: Sequence[int], b: int, d: int) -> Optional[List[int]]:
    """R with num = R * (d - t^b), or None when (d - t^b) does not divide num.

    ``num`` is trimmed and integral and the divisor is primitive, so an
    exact quotient is integral: the recurrence R_i = (N_i + R_(i-b)) / d
    stops at the first inexact step.
    """
    if not num:
        return []
    deg = len(num) - 1
    if deg < b:
        return None
    top = deg - b
    quot: List[int] = []
    for i in range(top + 1):
        v = num[i] + quot[i - b] if i >= b else num[i]
        r, rem = divmod(v, d)
        if rem:
            return None
        quot.append(r)
    for i in range(top + 1, deg + 1):
        if (num[i] + quot[i - b] if i >= b else num[i]) != 0:
            return None
    return quot


def _missing(have: Sequence[DenomFactor], want: Sequence[DenomFactor]) -> List[DenomFactor]:
    """The factors of the multiset ``want`` not matched in the multiset ``have``."""
    rest = list(have)
    out = []
    for f in want:
        if f in rest:
            rest.remove(f)
        else:
            out.append(f)
    return out


class RatFun:
    """Rational function in t with exact rational coefficients, fixed prime p."""

    __slots__ = ("p", "_num", "_den", "denom")

    def __init__(self, p: int, num: Sequence, denom: Sequence[DenomFactor] = ()):
        coeffs = [Fraction(c) for c in num]
        den = lcm(*(c.denominator for c in coeffs))
        factors = [DenomFactor(*f) for f in denom]
        self._set(p, [c.numerator * (den // c.denominator) for c in coeffs], den, factors)

    def _set(self, p: int, num: List[int], den: int, factors: List[DenomFactor]):
        """Store num / (den * prod factors) in canonical form (``num`` is consumed)."""
        _trim(num)
        if not num:
            den, factors = 1, []
        else:
            # Cancellation in one pass over the sorted factors: a quotient is
            # divisible only by factors that divided the numerator before.
            # Dividing by (1 - p^(-a) t^b) is dividing by (p^a - t^b) and
            # multiplying by p^a; the p^a are collected in mult.
            mult, kept = 1, []
            for f in sorted(factors):
                pa = p**f.a
                quot = _divide_exact(num, f.b, pa)
                if quot is None:
                    kept.append(f)
                else:
                    num = quot
                    mult *= pa
            factors = kept
            if mult != 1:
                num = [mult * c for c in num]
            # Leading coefficient first: in a sum over a common denominator it
            # carries the largest denominator, so the running gcd falls at once.
            g = gcd(den, *reversed(num))
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.p = p
        self._num = tuple(num)
        self._den = den
        self.denom = tuple(factors)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_integers(
        cls, p: int, num: Sequence[int], den: int, denom: Sequence[DenomFactor] = ()
    ) -> "RatFun":
        """num(t) / (den * prod denom) for integer coefficients and den >= 1."""
        out = cls.__new__(cls)
        out._set(p, list(num), den, list(denom))
        return out

    @classmethod
    def zero(cls, p: int) -> "RatFun":
        return cls(p, ())

    @classmethod
    def const(cls, p: int, c) -> "RatFun":
        return cls.monomial(p, c, 0)

    @classmethod
    def monomial(cls, p: int, c, e: int) -> "RatFun":
        n, d = Fraction(c).as_integer_ratio()
        return cls.from_integers(p, [0] * e + [n], d)

    # -- views ----------------------------------------------------------------

    @property
    def num(self) -> Tuple[Fraction, ...]:
        """Numerator coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def _check(self, other: "RatFun"):
        if not isinstance(other, RatFun):
            raise TypeError("expected a RatFun")
        if self.p != other.p:
            raise ValueError("mixed primes")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RatFun") -> "RatFun":
        self._check(other)
        p = self.p
        extra1 = _missing(self.denom, other.denom)
        extra2 = _missing(other.denom, self.denom)
        num1, den1 = _times_factors(self._num, self._den, p, extra1)
        num2, den2 = _times_factors(other._num, other._den, p, extra2)
        g = gcd(den1, den2)
        m1, m2 = den2 // g, den1 // g
        den = den1 * m1
        if len(num1) < len(num2):
            num1, num2, m1, m2 = num2, num1, m2, m1
        total = [m1 * c for c in num1]
        for i, c in enumerate(num2):
            total[i] += m2 * c
        return RatFun.from_integers(p, total, den, self.denom + tuple(extra1))

    def __neg__(self) -> "RatFun":
        return RatFun.from_integers(self.p, [-c for c in self._num], self._den, self.denom)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def scale(self, c, e: int = 0) -> "RatFun":
        """Multiply by c * t^e."""
        n, d = Fraction(c).as_integer_ratio()
        return RatFun.from_integers(self.p, [0] * e + [n * v for v in self._num], d * self._den, self.denom)

    def geometric_close(self, a: int, b: int) -> "RatFun":
        """Multiply by the closed geometric-series factor 1/(1 - q^(-a) t^b)."""
        return RatFun.from_integers(self.p, self._num, self._den, self.denom + (DenomFactor(a, b),))

    # -- analysis --------------------------------------------------------------

    def series_integers(self, order: int) -> Tuple[List[int], int, int]:
        """(s, D, r) with Taylor coefficients c_j = s_j / (D r^j), j = 0..order, all integers.

        r = p^E with E = max ceil(a/b) over the factors (E = 0 without any),
        so D times the value at r t is N(r t) / prod (1 - p^(E b - a) t^b),
        whose coefficients are integers: the numerator N_i r^i, then per
        factor the recurrence s_i += p^(E b - a) s_(i-b).
        """
        E = max((-(-f.a // f.b) for f in self.denom), default=0)
        r = self.p**E
        s = [0] * (order + 1)
        power = 1
        for i, c in enumerate(self._num[: order + 1]):
            s[i] = c * power
            power *= r
        for f in self.denom:
            m = self.p ** (E * f.b - f.a)
            for i in range(f.b, order + 1):
                s[i] += m * s[i - f.b]
        return s, self._den, r

    def series_expand(self, order: int) -> List[Fraction]:
        """Taylor coefficients c_0..c_order at t = 0, exact."""
        s, den, r = self.series_integers(order)
        out = []
        for c in s:
            out.append(Fraction(c, den))
            den *= r
        return out

    def poincare(self) -> "RatFun":
        """(1 - t Z) / (1 - t) for Z = self; InvariantViolation unless (1 - t) divides exactly.

        With Z = N / (D prod (1 - p^(-a) t^b)), 1 - t Z is
        D prod (p^a - t^b) - t N prod p^a over D prod p^a and Z's factors.
        (1 - t) divides that numerator iff it vanishes at t = 1, its last
        running sum; the running sums before it are the quotient.
        """
        num, scale = _times_factors([self._den], 1, self.p, self.denom)
        num.extend([0] * (len(self._num) + 1 - len(num)))
        for i, c in enumerate(self._num):
            num[i + 1] -= scale * c
        total = 0
        for i, c in enumerate(num):
            total += c
            num[i] = total
        if num.pop():
            raise InvariantViolation("numerator not divisible by (1 - 1 t^1)")
        return RatFun.from_integers(self.p, num, self._den * scale, self.denom)

    def pole_real_parts(self) -> set:
        """Real parts of the poles in s: { -a/b } over the canonical denominator."""
        return {Fraction(-f.a, f.b) for f in self.denom}

    # -- equality and rendering -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.p != other.p:
            return False
        if self.denom == other.denom:
            return self._num == other._num and self._den == other._den
        left, lden = _times_factors(self._num, self._den, self.p, _missing(self.denom, other.denom))
        right, rden = _times_factors(other._num, other._den, self.p, _missing(other.denom, self.denom))
        return len(left) == len(right) and all(x * rden == y * lden for x, y in zip(left, right))

    __hash__ = None

    def to_json(self) -> dict:
        """Coefficients as [numerator, denominator] pairs in lowest terms, and the factors."""
        den = self._den
        num = []
        for c in self._num:
            g = gcd(c, den)
            num.append([c // g, den // g])
        return {
            "num": num,
            "denom": [{"a": f.a, "b": f.b} for f in self.denom],
        }

    @classmethod
    def from_json(cls, obj: dict, p: int) -> "RatFun":
        num = [Fraction(a, b) for a, b in obj["num"]]
        denom = [DenomFactor(d["a"], d["b"]) for d in obj["denom"]]
        return cls(p, num, denom)

    def _num_str(self, tvar: str = "t") -> str:
        if not self._num:
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
        if not self._num:
            return "0"

        def frac(c: Fraction) -> str:
            if c.denominator == 1:
                return str(c.numerator)
            sign = "-" if c < 0 else ""
            return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"

        def tpow(i: int) -> str:
            return "" if i == 0 else ("t" if i == 1 else f"t^{{{i}}}")

        parts = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            coef = frac(c) if (i == 0 or abs(c) != 1) else ("-" if c == -1 else "")
            parts.append(f"{coef}{tpow(i)}")
        num = " + ".join(parts).replace("+ -", "- ")
        if not self.denom:
            return num
        den = "".join(f"\\left(1 - {self.p}^{{-{f.a}}} {tpow(f.b)}\\right)" for f in self.denom)
        return f"\\frac{{{num}}}{{{den}}}"
