"""Fraction-coefficient reference for RatFun's numerator arithmetic.

Every coefficient is its own `fractions.Fraction`, and every construction
runs the greedy cancellation on the Fraction numerator: the factors are
tried in sorted order, the first that divides is removed, and the scan
restarts until none divides.  Tests compare `igusa_zeta.RatFun`, which
stores integers over one common denominator, against this class; its
series, and the Poincare series P = (1 - t Z) / (1 - t) with its counts,
against the Fraction constructions below.
"""

from fractions import Fraction

from igusa_zeta import DenomFactor, InvariantViolation, RatFun


def _trim(coeffs):
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _divide_once(num, b, c):
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


class ReferenceRatFun:
    """num / prod(1 - p^(-a) t^b) with Fraction coefficients."""

    def __init__(self, p, num, denom=()):
        num = _trim([Fraction(c) for c in num])
        factors = sorted(DenomFactor(*f) if not isinstance(f, DenomFactor) else f for f in denom)
        if not num:
            factors = []
        else:
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

    def _factor(self, f):
        return (Fraction(1),) + (Fraction(0),) * (f.b - 1) + (Fraction(-1, self.p**f.a),)

    def __add__(self, other):
        merged = []
        d1, d2 = list(self.denom), list(other.denom)
        for f in sorted(set(d1) | set(d2)):
            merged.extend([f] * max(d1.count(f), d2.count(f)))
        num1, num2 = self.num, other.num
        for f in merged:
            if f in d1:
                d1.remove(f)
            else:
                num1 = _poly_mul(num1, self._factor(f))
            if f in d2:
                d2.remove(f)
            else:
                num2 = _poly_mul(num2, self._factor(f))
        return ReferenceRatFun(self.p, _poly_add(num1, num2), merged)

    def __neg__(self):
        return ReferenceRatFun(self.p, tuple(-c for c in self.num), self.denom)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c, e=0):
        c = Fraction(c)
        return ReferenceRatFun(self.p, (Fraction(0),) * e + tuple(v * c for v in self.num), self.denom)

    def geometric_close(self, a, b):
        return ReferenceRatFun(self.p, self.num, self.denom + (DenomFactor(a, b),))

    def times_factor(self, a, b):
        return ReferenceRatFun(self.p, _poly_mul(self.num, self._factor(DenomFactor(a, b))), self.denom)

    def series_expand(self, order):
        """Taylor coefficients c_0..c_order: the numerator, then 1/(1 - c t^b) per factor."""
        out = [Fraction(0)] * (order + 1)
        for i, c in enumerate(self.num[: order + 1]):
            out[i] = c
        for f in self.denom:
            c = Fraction(1, self.p**f.a)
            for i in range(f.b, order + 1):
                out[i] += c * out[i - f.b]
        return out

    def divide_numerator_exactly(self, b, c):
        quot = _divide_once(self.num, b, Fraction(c))
        if quot is None:
            raise InvariantViolation(f"numerator not divisible by (1 - {c} t^{b})")
        return ReferenceRatFun(self.p, quot, self.denom)

    def __eq__(self, other):
        left, right = self.num, other.num
        for f in other.denom:
            left = _poly_mul(left, self._factor(f))
        for f in self.denom:
            right = _poly_mul(right, self._factor(f))
        return left == right

    __hash__ = None


def poincare_reference(Z):
    """P = (1 - t Z) / (1 - t) for a RatFun Z: const - scale, add, then the Fraction division."""
    one_minus = RatFun.const(Z.p, 1) - Z.scale(1, 1)
    quot = _divide_once(one_minus.num, 1, Fraction(1))
    if quot is None:
        raise InvariantViolation("numerator not divisible by (1 - 1 t^1)")
    return RatFun(Z.p, quot, one_minus.denom)


def counts_reference(P, n, j_max):
    """N_j = p^(n j) [t^j] P for j <= j_max from P's Fraction series.

    Raises unless every N_j is a nonnegative integer.
    """
    out = []
    for j, c in enumerate(ReferenceRatFun(P.p, P.num, P.denom).series_expand(j_max)):
        scaled = c * Fraction(P.p ** (n * j))
        if scaled.denominator != 1 or scaled < 0:
            raise InvariantViolation(
                f"coefficient of t^{j} gives non-integral or negative count {scaled}"
            )
        out.append(int(scaled))
    return out
