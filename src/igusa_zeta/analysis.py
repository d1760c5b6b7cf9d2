"""Congruence counting, Poincare series and closed forms.

This module is the verification side of the package: an exhaustive counter
of the solutions in (O/pi^j)^n, independent of the recursive engine, the
Poincare-series bridge between counts and zeta values, and a closed-form
generator for two-term curves a*x^n + b*y^m that shares no code with the
engine path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List

from .coeff import DEFAULT_BUDGET, LocalRing, LocalRingElement
from .errors import InvalidParameters, InvariantViolation
from .poly import MultiPoly
from .ratfun import DenomFactor, RatFun


def oracle_counts(f: MultiPoly, j_max: int, budget: int = DEFAULT_BUDGET) -> List[int]:
    """N_0..N_jmax: solutions in (O/pi^j)^n of f = 0 mod pi^j; N_0 = 1.

    One lifting pass counts every level.  ``budget`` caps the lifting
    candidates N_(j-1) p^n of each level (BudgetExceeded beyond it).
    Negative ``j_max`` raises ValueError.
    """
    if j_max < 0:
        raise ValueError("levels must be >= 0")
    from . import _kernels  # numpy is loaded by the first count, not by the engine

    ring = f.ring
    terms = sorted(f.terms)
    coeffs = [f.terms[e].payload for e in terms]
    return _kernels.lift_counts(terms, coeffs, f.n, ring.p, j_max, ring.positive_char, budget)


def congruence_count(f: MultiPoly, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of x in (O/pi^j)^n with f(x) = 0 mod pi^j."""
    return oracle_counts(f, j, budget)[j]


class PoincareSeries:
    """P(t) with nonnegative coefficients and N_j = p^(n j) [t^j] P integral.

    Both are read off P's integer series (RatFun.series_integers): with
    [t^j] P = s_j / (D r^j), the constant term is 1 iff s_0 = D, and N_j is
    the exact quotient of s_j p^(n j) by D r^j.
    """

    __slots__ = ("ratfun", "n", "p")

    def __init__(self, ratfun: RatFun, n: int, p: int):
        s, den, _ = ratfun.series_integers(0)
        if s[0] != den:
            raise InvariantViolation("Poincare series must have constant term 1")
        self.ratfun = ratfun
        self.n = n
        self.p = p

    def counts(self, j_max: int) -> List[int]:
        s, den, r = self.ratfun.series_integers(j_max)
        q = self.p**self.n
        scale, out = 1, []
        for j, c in enumerate(s):
            count, rem = divmod(c * scale, den)
            if rem or count < 0:
                raise InvariantViolation(
                    f"coefficient of t^{j} gives non-integral or negative count "
                    f"{Fraction(c * scale, den)}"
                )
            out.append(count)
            scale *= q
            den *= r
        return out


def poincare_from_zeta(Z: RatFun, n: int) -> PoincareSeries:
    """P(t) = (1 - t Z(t)) / (1 - t) for a full-region zeta function.

    The numerator of 1 - t Z always vanishes at t = 1 when Z integrates a
    nonzero polynomial over the whole space (mass one), so the division is
    exact; RatFun.poincare builds P from Z's integer form in one step, and
    a perturbed Z fails there or in the count extraction.
    """
    return PoincareSeries(Z.poincare(), n, Z.p)


# -- closed form for a*x^n + b*y^m ---------------------------------------------


def _unit_square_counts(p: int, n: int, m: int, a_bar: int, mu_bar: int):
    """Points of (F_p^*)^2 where a*x^n + mu*y^m does not vanish, and where it is a smooth zero."""
    nonvanishing = 0
    smooth = 0
    for x in range(1, p):
        xn = pow(x, n, p)
        dx = n % p * a_bar % p * pow(x, n - 1, p) % p
        for y in range(1, p):
            if (a_bar * xn + mu_bar * pow(y, m, p)) % p:
                nonvanishing += 1
            elif dx or (m % p * mu_bar % p * pow(y, m - 1, p)) % p:
                smooth += 1
            else:
                raise InvalidParameters(
                    "reduction is singular on the unit square; hypotheses violated"
                )
    return nonvanishing, smooth


def two_term_closed_form(
    ring: LocalRing, n: int, m: int, alpha: LocalRingElement, beta: LocalRingElement
) -> RatFun:
    """Zeta function of alpha*x^n + beta*y^m by the piecewise valuation split.

    Valid for coprime n, m > 1 with alpha a unit and the residue
    characteristic not dividing both n and m (automatic from coprimality).
    The domain splits by (v(x), v(y)) into slabs where one term dominates,
    plus a balanced diagonal handled through one classification of the unit
    square.  Every slab contributes c p^(-k) t^E, or a balanced one
    p^(-k) t^E times the unit square's integral; the terms are summed as
    one integer numerator over p^K and (1 - q^(-1) t), and one RatFun is
    built.  This path shares nothing with the recursive engine and serves
    as its oracle.
    """
    p = ring.p
    if n <= 1 or m <= 1:
        raise InvalidParameters("exponents must exceed 1")
    if gcd(n, m) != 1:
        raise InvalidParameters("exponents must be coprime")
    if n % p == 0 and m % p == 0:
        raise InvalidParameters("residue characteristic divides both exponents")
    if alpha.ring != ring or beta.ring != ring:
        raise InvalidParameters("coefficients from the wrong ring")
    if alpha.valuation() != 0:
        raise InvalidParameters("x-coefficient must be a unit")
    if beta.is_zero():
        raise InvalidParameters("y-coefficient must be nonzero")

    v_beta = int(beta.valuation())
    mu = beta.divide_by_uniformizer(v_beta)
    g, r = divmod(v_beta, n)
    shift = m + g + r
    top = shift + n  # every slab's p^(-k) has k <= top
    monomials: Dict[int, int] = {}  # t^E -> p^top times the sum of the c p^(-k)
    balanced: Dict[int, int] = {}  # t^E -> p^top times the sum of the p^(-k)

    def add(terms: Dict[int, int], e: int, c: int, k: int):
        terms[e] = terms.get(e, 0) + c * p ** (top - k)

    def add_slab(i_range):
        for i in i_range:
            for jj in range(n):
                val = jj * m - i * n + v_beta
                if val > 0:
                    add(monomials, n * i, (p - 1) ** 2, i + jj + 2)
                elif val < 0:
                    add(monomials, v_beta + m * jj, (p - 1) ** 2, i + jj + 2)
                else:
                    add(balanced, n * i, 1, i + jj)

    # x-term dominates: v(x) < m, v(y) >= n
    for k in range(m):
        add(monomials, k * n, p - 1, n + k + 1)
    # both coordinates small: v(x) < m, v(y) < n, split by the dominance sign
    add_slab(range(m))
    # y-term dominates: v(x) >= m + [v(beta)/n] + r, v(y) < n
    for k in range(n):
        add(monomials, v_beta + m * k, p - 1, shift + k + 1)
    # intermediate slab m <= v(x) < m + [v(beta)/n] + r, again split by sign
    add_slab(range(m, shift))

    # over p^3 (1 - q^(-1) t): a monomial c t^E is c (p^3 - p^2 t) t^E, and
    # the unit square's integral a/p^2 + (b/p^2)(1 - q^(-1)) t / (1 - q^(-1) t)
    # is (a p + (b (p - 1) - a) t) for its a nonvanishing and b smooth points
    a, b = _unit_square_counts(p, n, m, alpha.reduce(), mu.reduce())
    num = [0] * (max(monomials.keys() | balanced.keys()) + 2)
    for e, c in monomials.items():
        num[e] += c * p**3
        num[e + 1] -= c * p**2
    for e, c in balanced.items():
        num[e] += c * a * p
        num[e + 1] += c * (b * (p - 1) - a)
    total = RatFun.from_integers(p, num, p ** (top + 3), (DenomFactor(1, 1),))
    # close the self-similarity of the polydisc v(x) >= m, v(y) >= n
    return total.geometric_close(n + m, n * m)
